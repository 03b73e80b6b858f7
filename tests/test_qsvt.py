import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from qbsqp import qsvt
from qbsqp.blockenc import encode
from qbsqp.qsvt import (
    CLENSHAW_BLOCK,
    CLENSHAW_CHUNK,
    LSQ_DEGREE_MAX,
    InfeasibleAccuracyError,
    SpectrumViolationError,
    build_inversion_spec,
    qsvt_invert,
)


def random_spd_with_spectrum(n, lo, hi, rng):
    """SPD matrix with eigenvalues spanning exactly [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(lo, hi, n)
    return (q * eigs) @ q.T


class TestInversionSpec:
    def test_degenerate_interval_kappa_one(self):
        spec = build_inversion_spec(1.0, 1e-6)
        assert spec.degree <= 3
        # p(1) * kappa * beta recovers 1/1 within eps'.
        assert abs(spec(1.0) * spec.kappa * spec.beta - 1.0) <= 1e-6

    @pytest.mark.parametrize("kappa,epsp", [(2, 1e-6), (10, 1e-8), (32, 1e-6)])
    def test_accuracy_on_interval(self, kappa, epsp):
        spec = build_inversion_spec(kappa, epsp)
        x = np.linspace(1.0 / kappa, 1.0, 4001)
        err = np.max(np.abs(spec(x) - 1.0 / (kappa * spec.beta * x)))
        assert err <= epsp

    @pytest.mark.parametrize("kappa", [2.0, 8.0, 17.5])
    def test_bounded_and_odd(self, kappa):
        spec = build_inversion_spec(kappa, 1e-6)
        x = np.linspace(-1.0, 1.0, 20001)
        assert np.max(np.abs(spec(x))) <= 1.0 + 1e-12
        xg = np.linspace(0.0, 1.0, 1000)
        np.testing.assert_allclose(spec(-xg), -spec(xg), atol=1e-14)
        assert np.all(spec.coeffs[0::2] == 0.0)

    def test_degree_grows_roughly_linearly_in_kappa(self):
        degrees = [
            build_inversion_spec(k, 1e-8, minimize_degree=True).degree
            for k in (10, 20)
        ]
        assert 1.6 <= degrees[1] / degrees[0] <= 2.6

    def test_degree_cap_raises(self):
        with pytest.raises(InfeasibleAccuracyError):
            build_inversion_spec(64.0, 1e-10, degree_cap=31)

    def test_smooth_engine_matches_constraints(self):
        # Least squares misses 1e-8 below its degree limit at kappa = 64.
        spec = build_inversion_spec(64.0, 1e-8)
        assert spec.engine == "smooth"
        x = np.linspace(1.0 / 64.0, 1.0, 4001)
        err = np.max(np.abs(spec(x) - 1.0 / (64.0 * spec.beta * x)))
        assert err <= 1e-8
        xb = np.linspace(-1.0, 1.0, 40001)
        assert np.max(np.abs(spec(xb))) <= 1.0 + 1e-12
        assert np.all(spec.coeffs[0::2] == 0.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_inversion_spec(0.5, 1e-6)
        with pytest.raises(ValueError):
            build_inversion_spec(2.0, 1.5)


def clenshaw_longdouble(x, coeffs):
    """Plain Clenshaw recurrence in extended precision: the test oracle."""
    x = np.asarray(x, dtype=np.longdouble)
    c = np.asarray(coeffs, dtype=np.longdouble)
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for k in range(len(c) - 1, 0, -1):
        b1, b2 = c[k] + 2 * x * b1 - b2, b1
    return c[0] + x * b1 - b2


# The interval of the kappa = 1024 polynomial, the band just below 1 where the
# top singular value of a pre-scaled block lies, and 1 itself.
LONG_GRID = np.concatenate([np.linspace(1.0 / 1024.0, 1.0, 41),
                            1.0 - np.array([1e-3, 1e-5, 1e-8, 1e-12, 2.0**-52]), [1.0]])


# The long-series tests run at this degree or above, where the blocked
# evaluator folds about 730 blocks in 12 groups.
LONG_DEGREE = 46935


def random_odd_series(degree, seed):
    coeffs = np.zeros(degree + 1)
    coeffs[1::2] = np.random.default_rng(seed).standard_normal((degree + 1) // 2)
    return coeffs


@pytest.fixture(scope="module")
def spec_kappa64():
    return build_inversion_spec(64.0, 1e-12, degree_cap=400001)


@pytest.fixture(scope="module")
def spec_kappa1024():
    return build_inversion_spec(1024.0, 1e-12, degree_cap=400001)


class TestSmoothChop:
    def test_degree_set_by_the_series_not_its_rounding_noise(self, spec_kappa64,
                                                            spec_kappa1024):
        # The kappa = 64 coefficients fall below 1e-16 by about k = 3900,
        # but the DCT's rounding noise has spikes above 1e-16 up to
        # k = 46,935; they must not set the degree.
        assert spec_kappa64.engine == spec_kappa1024.engine == "smooth"
        assert spec_kappa64.degree <= 4500
        assert spec_kappa1024.degree >= 10 * spec_kappa64.degree

    @pytest.mark.parametrize("kappa", [64.0, 1024.0])
    def test_achieved_err_bounds_a_dense_independent_grid(self, kappa, spec_kappa64,
                                                          spec_kappa1024):
        spec = spec_kappa64 if kappa == 64.0 else spec_kappa1024
        # the cutoff's error peaks at 1/kappa, so the grid is densest there
        x = np.unique(np.concatenate([np.linspace(1.0 / kappa, 1.0, 4001),
                                      np.geomspace(1.0 / kappa, 4.0 / kappa, 1001)]))
        assert x[0] == 1.0 / kappa
        err = np.max(np.abs(spec(x) - 1.0 / (kappa * spec.beta * x)))
        assert err <= spec.achieved_err <= 1e-12 / spec.beta


class TestClenshaw:
    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the oracle needs an extended-precision longdouble")
    def test_accuracy_against_extended_precision(self, spec_kappa1024):
        spec = spec_kappa1024
        assert spec.engine == "smooth" and spec.degree >= LONG_DEGREE
        err = np.abs(spec(LONG_GRID) - clenshaw_longdouble(LONG_GRID, spec.coeffs))
        assert float(np.max(err)) <= 1e-2 * spec.achieved_err

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the oracle needs an extended-precision longdouble")
    def test_random_long_series_against_extended_precision(self):
        # Undamped coefficients: the partial sums do not decay, so the bound
        # scales with the l1 norm (measured 2.6e-15 of it; numpy's chebval
        # is off by 1.6e-7 here).
        coeffs = random_odd_series(LONG_DEGREE, 1)
        err = np.abs(qsvt._clenshaw(LONG_GRID, coeffs)
                     - clenshaw_longdouble(LONG_GRID, coeffs))
        assert float(np.max(err)) <= 1e-14 * np.sum(np.abs(coeffs))

    @pytest.mark.parametrize("degree", [3, CLENSHAW_BLOCK - 1, CLENSHAW_BLOCK + 1,
                                        3 * CLENSHAW_BLOCK + 17])
    def test_matches_chebval_at_any_degree(self, degree):
        coeffs = random_odd_series(degree, degree)
        x = np.linspace(-1.0, 1.0, 257)
        np.testing.assert_allclose(qsvt._clenshaw(x, coeffs), cheb.chebval(x, coeffs),
                                   rtol=0.0, atol=1e-12)

    # One full fold group of CLENSHAW_BLOCK blocks, then two groups of 33
    # blocks (one padded), then three groups of 44 (two padded).
    @pytest.mark.parametrize("degree", [CLENSHAW_BLOCK**2 - 1, CLENSHAW_BLOCK**2 + 1,
                                        2 * CLENSHAW_BLOCK**2 + CLENSHAW_BLOCK + 1])
    def test_matches_chebval_across_fold_groups(self, degree):
        coeffs = random_odd_series(degree, degree)
        x = np.linspace(-1.0, 1.0, 257)
        # chebval's own rounding error grows with the degree (1e-10 here)
        np.testing.assert_allclose(qsvt._clenshaw(x, coeffs), cheb.chebval(x, coeffs),
                                   rtol=0.0, atol=1e-13 * degree)

    def test_degree_one_is_identity(self):
        x = np.linspace(-1.0, 1.0, 11)
        np.testing.assert_array_equal(qsvt._clenshaw(x, np.array([0.0, 1.0])), x)

    def test_scalar_and_shaped_input(self):
        coeffs = random_odd_series(99, 7)
        y = qsvt._clenshaw(0.3, coeffs)
        assert isinstance(y, float) and np.ndim(y) == 0
        assert y == pytest.approx(cheb.chebval(0.3, coeffs), abs=1e-13)
        grid = np.array([[0.1, -0.2], [0.5, 0.9]])
        out = qsvt._clenshaw(grid, coeffs)
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out.ravel(), qsvt._clenshaw(grid.ravel(), coeffs))

    def test_odd_series_exactly_odd_and_zero_at_origin(self, spec_kappa64):
        for coeffs in (random_odd_series(3 * CLENSHAW_BLOCK + 17, 3), spec_kappa64.coeffs):
            x = np.linspace(0.0, 1.0, 129)
            np.testing.assert_array_equal(qsvt._clenshaw(-x, coeffs),
                                          -qsvt._clenshaw(x, coeffs))
            assert qsvt._clenshaw(0.0, coeffs) == 0.0

    def test_work_arrays_stay_within_chunk_bound(self):
        coeffs = random_odd_series(LONG_DEGREE, 2)
        coeffs /= np.sum(np.abs(coeffs))
        x = np.linspace(-1.0, 1.0, 40001)
        rows = -(-len(coeffs) // CLENSHAW_BLOCK) + 2
        assert rows * x.size > 20 * CLENSHAW_CHUNK  # unchunked would be far larger
        tracemalloc.start()
        try:
            y = qsvt._clenshaw(x, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three work arrays of at most CLENSHAW_CHUNK doubles, plus O(points)
        assert peak <= 8 * (3 * CLENSHAW_CHUNK + 8 * x.size)
        assert np.max(np.abs(y)) <= 1.0


class TestLsqPreflight:
    @pytest.mark.parametrize("kappa", [2.0, 4.0, 16.0, 64.0, 256.0])
    def test_skipped_fits_cannot_reach_target(self, kappa):
        degree = max(3, int(2 * math.ceil(kappa / 2) + 1))
        while degree <= LSQ_DEGREE_MAX:
            floor = qsvt._odd_fit_error_floor(kappa, degree)
            _, err = qsvt._lsq_fit(kappa, degree)
            assert floor <= err
            for eps_prime in (1e-3, 1e-6, 1e-8, 1e-10, 1e-12):
                if floor > eps_prime:  # build_inversion_spec skips this fit
                    assert err > eps_prime
            degree = 2 * degree + 1

    def test_engine_selection_pinned(self):
        smooth = build_inversion_spec(64.0, 1e-8)
        assert smooth.engine == "smooth"
        lsq = build_inversion_spec(16.0, 1e-6)
        assert lsq.engine == "lsq" and lsq.degree == 287


class TestQsvtInvert:
    def test_identity_inverse(self):
        u = encode(np.eye(4))
        spec = build_inversion_spec(1.0, 1e-10)
        v = qsvt_invert(u, spec)
        np.testing.assert_allclose(v.represented(), np.eye(4), atol=1e-10)

    def test_diag_half_kappa_two(self):
        u = encode(np.diag([1.0, 0.5]))
        spec = build_inversion_spec(2.0, 1e-9)
        v = qsvt_invert(u, spec)
        np.testing.assert_allclose(v.represented(), np.diag([1.0, 2.0]), atol=1e-8)
        assert v.alpha == spec.kappa * spec.beta / u.alpha

    def test_spd_4x4_random(self):
        rng = np.random.default_rng(11)
        a = random_spd_with_spectrum(4, 0.25, 1.0, rng)
        u = encode(a)
        spec = build_inversion_spec(4.0, 1e-8)
        v = qsvt_invert(u, spec)
        err = np.linalg.norm(v.represented() - np.linalg.inv(a), 2)
        assert err <= 1e-6

    def test_padding_stays_zero_and_inert(self):
        rng = np.random.default_rng(4)
        a = random_spd_with_spectrum(3, 0.5, 1.0, rng)
        u = encode(a)  # padded to 4x4
        spec = build_inversion_spec(2.0, 1e-8)
        v = qsvt_invert(u, spec)
        assert np.all(v.embedded[3, :] == 0.0)
        assert np.all(v.embedded[:, 3] == 0.0)
        np.testing.assert_allclose(v.represented(), np.linalg.inv(a), atol=1e-6)

    def test_spectrum_violation_names_offender(self):
        u = encode(np.diag([1.0, 0.1]))
        spec = build_inversion_spec(2.0, 1e-6)  # 0.1 < 1/2
        with pytest.raises(SpectrumViolationError, match="0.1"):
            qsvt_invert(u, spec)

    def test_error_budget_dominates_true_error(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = random_spd_with_spectrum(n, 1.0 / 3.0, 1.0, rng)
            u = encode(a, target_eps=1e-6, rng=rng)
            spec = build_inversion_spec(4.0, 1e-8)
            v = qsvt_invert(u, spec)
            true_err = np.linalg.norm(v.represented() - np.linalg.inv(a), 2)
            assert true_err <= v.eps * (1.0 + 1e-9) + 1e-13
