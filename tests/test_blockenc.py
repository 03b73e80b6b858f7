import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsqp.blockenc import (
    BlockEncoding,
    EncodingError,
    be_add,
    be_mul,
    be_neg,
    be_rescale,
    be_transpose,
    encode,
    operator_norm,
)
from oracles import encoding_error


def padding_is_zero(u: BlockEncoding) -> bool:
    """Every entry outside the logical block is exactly zero."""
    mask = np.ones_like(u.embedded, dtype=bool)
    mask[: u.logical_rows, : u.logical_cols] = False
    return bool(np.all(u.embedded[mask] == 0.0))


def test_encode_identity_2x2():
    u = encode(np.eye(2))
    assert u.size == 2  # s = 1
    assert u.alpha == 1.0
    assert u.eps == 0.0
    np.testing.assert_array_equal(u.embedded, np.eye(2))


def test_encode_pads_3x3_to_4x4():
    a = np.arange(9.0).reshape(3, 3) + 1.0
    u = encode(a)
    assert u.size == 4
    assert (u.logical_rows, u.logical_cols) == (3, 3)
    assert padding_is_zero(u)
    np.testing.assert_allclose(u.represented(), a, rtol=1e-15)


def test_encode_vector_goes_to_first_column():
    v = np.array([3.0, 4.0, 0.0])
    u = encode(v)
    assert u.size == 4
    assert u.logical_cols == 1
    assert u.alpha == 5.0
    np.testing.assert_allclose(u.alpha * u.embedded[:3, 0], v)
    assert np.all(u.embedded[:, 1:] == 0.0)


def test_encode_noise_respects_budget_and_block_norm():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    u = encode(a, target_eps=1e-8, rng=rng)
    assert encoding_error(u, a) <= 1e-8
    assert operator_norm(u.embedded) <= 1.0 + 1e-12
    assert u.eps == 1e-8


def test_encode_zero_requires_alpha_override():
    with pytest.raises(EncodingError):
        encode(np.zeros((2, 2)))
    u = encode(np.zeros((2, 2)), alpha=1.0)
    assert np.all(u.embedded == 0.0)


def test_mul_identity_law():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    u = encode(a, target_eps=1e-3, rng=rng)
    v = encode(np.eye(4))
    w = be_mul(u, v)
    np.testing.assert_array_equal(w.embedded, u.embedded)
    assert w.alpha == u.alpha
    assert w.eps == u.eps


def test_mul_composition_arithmetic():
    # alpha_u=2, alpha_v=3, eps_u=1e-3, eps_v=1e-4 -> alpha=6, eps=3.2e-3
    u = BlockEncoding(np.eye(2) * 0.5, 2, 2, alpha=2.0, ancillas=1, eps=1e-3)
    v = BlockEncoding(np.eye(2) * 0.5, 2, 2, alpha=3.0, ancillas=2, eps=1e-4)
    w = be_mul(u, v)
    assert w.alpha == 6.0
    assert np.isclose(w.eps, 3.2e-3)
    assert w.ancillas == 3


def test_add_composition_arithmetic():
    u = BlockEncoding(np.eye(2), 2, 2, alpha=1.0, ancillas=2, eps=1e-4)
    v = BlockEncoding(np.eye(2), 2, 2, alpha=1.0, ancillas=3, eps=2e-4)
    w = be_add(u, v)
    assert w.alpha == 2.0
    assert np.isclose(w.eps, 3e-4)
    assert w.ancillas == 4
    # U = V: the encoding represents A + A = 2A with the block unchanged.
    np.testing.assert_array_equal(w.embedded, u.embedded)
    np.testing.assert_allclose(w.represented(), 2.0 * u.represented())


def test_subtraction_via_negated_operand():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    u, v = encode(a), encode(b)
    w = be_add(u, be_neg(v))
    np.testing.assert_allclose(w.represented(), a - b, atol=1e-14)
    assert w.alpha == u.alpha + v.alpha


def test_transpose_and_rescale_preserve_representation():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 2))
    u = encode(a)
    ut = be_transpose(u)
    np.testing.assert_allclose(ut.represented(), a.T)
    us = be_rescale(u, 2.0)
    np.testing.assert_allclose(us.represented(), a, atol=1e-14)
    assert us.alpha == u.alpha / 2.0


def test_dimension_mismatch_raises():
    u = encode(np.ones((2, 3)))
    v = encode(np.ones((2, 2)))
    with pytest.raises(EncodingError):
        be_mul(u, v)
    with pytest.raises(EncodingError):
        be_add(u, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_composition_laws_hold_against_dense_oracle(seed):
    """Definition-level inequality survives products and sums of noisy encodings."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    a = rng.standard_normal((n, n)) * rng.uniform(0.1, 5.0)
    b = rng.standard_normal((n, n)) * rng.uniform(0.1, 5.0)
    ea, eb = rng.uniform(0.0, 1e-2, size=2)
    u = encode(a, ea, rng=rng)
    v = encode(b, eb, rng=rng)

    prod = be_mul(u, v)
    assert encoding_error(prod, a @ b) <= prod.eps * (1.0 + 1e-9) + 1e-13

    tot = be_add(u, v)
    assert encoding_error(tot, a + b) <= tot.eps * (1.0 + 1e-9) + 1e-13
    assert padding_is_zero(prod) and padding_is_zero(tot)
