import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsqp.blockenc import BlockEncoding, encode
from qbsqp.qsvt import (
    SIGMA_TOL,
    InfeasibleAccuracyError,
    SpectrumViolationError,
    build_inversion_spec,
    qsvt_invert,
)
from qbsqp.schur import BlockDiagonal
from oracles import perturbed_encoding


def random_spd_with_spectrum(n, lo, hi, rng):
    """SPD matrix with eigenvalues spanning exactly [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(lo, hi, n)
    return (q * eigs) @ q.T


def chebyshev_recurrence(d, lvals):
    """T_d by the three-term recurrence in extended precision."""
    t_prev, t = np.ones_like(lvals), lvals
    for _ in range(d - 1):
        t_prev, t = t, 2 * lvals * t - t_prev
    return t


def chebyshev_ladder(d, lvals):
    """T_d by the doubling recurrences T_2n = 2 T_n^2 - 1 and
    T_2n+1 = 2 T_n T_n+1 - l, in O(log d) steps, for degrees too large for
    the three-term recurrence."""
    t, t_next = np.ones_like(lvals), lvals
    for bit in bin(d)[2:]:
        if bit == "1":
            t, t_next = 2 * t * t_next - lvals, 2 * t_next * t_next - 1
        else:
            t, t_next = 2 * t * t - 1, 2 * t * t_next - lvals
    return t


def closed_form_longdouble(spec, x, chebyshev=chebyshev_recurrence):
    """p(x)/beta of the spec from its definition, in extended precision: the
    test oracle.  Assumes x != 0."""
    x = np.asarray(x, dtype=np.longdouble)
    a = 1 / np.longdouble(spec.kappa)
    lvals = (1 + a * a - 2 * x * x) / (1 - a * a)
    l0 = np.array([(1 + a * a) / (1 - a * a)])
    t0 = chebyshev(spec.d, l0)[0]
    return (1 - chebyshev(spec.d, lvals) / t0) / (spec.kappa * spec.beta * x)


def achieser_floor(kappa, degree):
    """Lower bound on sup |p - 1/(kappa*x)| on [1/kappa, 1] over odd p.

    With a = 1/kappa, y = x^2 and p(x) = x q(y), deg q = k = (degree-1)/2,
    the error is x |q(y) - a/y| >= a^2 |q(y)/a - 1/y| on [a^2, 1].
    Achieser's closed form for the best approximation of 1/y there gives
    (1 - a^2)/(2 a^2) rho^k with rho = (1 - a)/(1 + a).
    """
    a = 1.0 / kappa
    return 0.5 * (1.0 - a * a) * ((1.0 - a) / (1.0 + a)) ** ((degree - 1) // 2)


DOUBLE_EPS = np.finfo(float).eps
needs_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="the oracle needs an extended-precision longdouble")


class TestInversionSpec:
    def test_degenerate_interval_kappa_one(self):
        spec = build_inversion_spec(1.0, 1e-6)
        assert spec.degree <= 3 and spec.engine == "exact"
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
        np.testing.assert_array_equal(spec(-xg), -spec(xg))
        assert spec(0.0) == 0.0

    def test_scalar_and_shaped_input(self):
        spec = build_inversion_spec(8.0, 1e-8)
        y = spec(0.3)
        assert isinstance(y, float) and np.ndim(y) == 0
        grid = np.array([[0.1, -0.2], [0.5, 0.9]])
        out = spec(grid)
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out.ravel(), spec(grid.ravel()))

    @pytest.mark.parametrize("kappa,epsp", [(2.0, 1e-6), (64.0, 1e-12),
                                            (1024.0, 1e-12), (1024.0, 1e-6)])
    def test_degree_is_predicted_from_kappa_and_eps(self, kappa, epsp):
        spec = build_inversion_spec(kappa, epsp, degree_cap=400001)
        d = math.ceil(math.acosh(8.0 / epsp) / (2.0 * math.atanh(1.0 / kappa)))
        assert spec.engine == "chebyshev"
        assert (spec.d, spec.degree) == (d, 2 * d - 1)
        assert spec.t0 >= 8.0 / epsp
        assert spec.achieved_err == 1.0 / (spec.t0 * spec.beta) <= epsp / 8.0

    def test_degree_grows_roughly_linearly_in_kappa(self):
        degrees = [build_inversion_spec(k, 1e-8).degree for k in (10, 20)]
        assert 1.6 <= degrees[1] / degrees[0] <= 2.6

    def test_near_optimal_against_achieser_floor(self):
        # No odd polynomial of degree below the floor degree reaches the
        # spec's own (unscaled) error; the spec is within 10% of it.
        spec = build_inversion_spec(64.0, 1e-12)
        err = spec.achieved_err * spec.beta
        floor_degree = 1
        while achieser_floor(64.0, floor_degree) > err:
            floor_degree += 2
        assert floor_degree <= spec.degree <= 1.1 * floor_degree

    def test_degree_cap_raises(self):
        with pytest.raises(InfeasibleAccuracyError):
            build_inversion_spec(64.0, 1e-10, degree_cap=31)

    @pytest.mark.parametrize("cap", [1, 2, 36, 37, 38])
    def test_degree_never_exceeds_cap(self, cap):
        # kappa = 4 at eps' = 1e-3 needs degree 37
        try:
            spec = build_inversion_spec(4.0, 1e-3, degree_cap=cap)
        except InfeasibleAccuracyError:
            assert cap < 37
        else:
            assert spec.degree == 37 <= cap

    def test_rounded_interval_raises_with_prediction_before_allocation(self):
        # At kappa = 2^27, 1 + 1/kappa^2 rounds to 1, so l(0) = 1 in double
        # precision; theta_0 = 2 atanh(1/kappa) stays positive.
        kappa = 2.0**27
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleAccuracyError) as info:
                build_inversion_spec(kappa, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        message = str(info.value)
        for part in ("kappa=1.34218e+08", "eps'=1e-08", "degree cap 4001"):
            assert part in message
        predicted = float(re.search(r"predicted degree (\d+)", message).group(1))
        theta0 = 2.0 * math.atanh(1.0 / kappa)
        assert abs(predicted - (2.0 * math.acosh(8e8) / theta0 - 1.0)) <= 1.0

    @pytest.mark.parametrize("eps_prime", [5e-308, 1e-306])
    def test_overflowing_t0_raises_typed_error(self, eps_prime):
        # The degree is small, but cosh(d theta_0) exceeds the largest double.
        with pytest.raises(InfeasibleAccuracyError) as info:
            build_inversion_spec(1.01, eps_prime)
        for part in ("kappa=1.01", f"eps'={eps_prime:g}", "overflows"):
            assert part in str(info.value)

    def test_invalid_parameters(self):
        for kappa, epsp in ((0.5, 1e-6), (2.0, 1.5), (math.nan, 1e-6),
                            (math.inf, 1e-6), (2.0, math.nan)):
            with pytest.raises(ValueError):
                build_inversion_spec(kappa, epsp)


class TestClosedFormOracle:
    @needs_longdouble
    @pytest.mark.parametrize("kappa,epsp", [(2.0, 1e-6), (64.0, 1e-12),
                                            (1024.0, 1e-12)])
    def test_matches_extended_precision_at_the_edges(self, kappa, epsp):
        spec = build_inversion_spec(kappa, epsp, degree_cap=400001)
        x = np.concatenate([
            np.linspace(1.0 / kappa, 1.0, 41),
            [1.0 / kappa, 0.5 / kappa, 1.0 - 1e-12, 1.0 - DOUBLE_EPS,
             1.0 + SIGMA_TOL, 1.0 - SIGMA_TOL, 1.0 / kappa - SIGMA_TOL],
        ])
        got = spec(x)
        want = closed_form_longdouble(spec, x)
        np.testing.assert_allclose(got.astype(np.longdouble), want,
                                   rtol=16 * DOUBLE_EPS, atol=0.0)

    @needs_longdouble
    @pytest.mark.parametrize("kappa,epsp", [(8.0, 1e-6), (64.0, 1e-12)])
    def test_declared_bounds_hold_on_a_dense_grid(self, kappa, epsp):
        spec = build_inversion_spec(kappa, epsp)
        # the error peaks at 1/kappa, so the grid is densest there
        x = np.unique(np.concatenate([np.linspace(1.0 / kappa, 1.0, 4001),
                                      np.geomspace(1.0 / kappa, 4.0 / kappa, 1001)]))
        true_err = np.max(np.abs(closed_form_longdouble(spec, x)
                                 - 1 / (kappa * spec.beta * x.astype(np.longdouble))))
        # 1/T_0 is attained at x = 1/kappa, where T_d(l) = 1; the error is
        # a difference of O(1) values, rounded in extended precision
        rounding = 16 * np.finfo(np.longdouble).eps
        assert abs(true_err - spec.achieved_err) <= rounding
        float_err = np.max(np.abs(spec(x) - 1.0 / (kappa * spec.beta * x)))
        assert float_err <= spec.achieved_err + 4 * DOUBLE_EPS

        xb = np.linspace(1e-6, 1.0, 8001)
        assert np.max(np.abs(closed_form_longdouble(spec, xb))) <= 1.0 - 1e-9

    @needs_longdouble
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(kappa=st.floats(1.01, 1e5), eps_prime=st.floats(1e-15, 0.9))
    def test_beta_bounds_the_polynomial_below_one_over_kappa(self, kappa, eps_prime):
        # The proven sup on [0, 1/kappa] is the one beta must cover; the
        # grid is linear, and geometric toward 0.
        spec = build_inversion_spec(kappa, eps_prime, degree_cap=1 << 32)
        a = 1.0 / kappa
        x = np.unique(np.concatenate([np.linspace(a / 4000, a, 4000),
                                      np.geomspace(1e-9 * a, a, 1000)]))
        p = closed_form_longdouble(spec, x, chebyshev_ladder) * spec.beta
        assert np.max(p) <= spec.beta * (1.0 - 1e-9)

    @needs_longdouble
    @pytest.mark.parametrize("kappa", [16.0, 64.0, 1024.0])
    @pytest.mark.parametrize("epsp", [1e-6, 1e-12])
    def test_beta_is_within_two_percent_of_the_sampled_sup(self, kappa, epsp):
        spec = build_inversion_spec(kappa, epsp, degree_cap=400001)
        x = np.linspace(1.0 / (2000 * kappa), 1.0 / kappa, 2000)
        sup = float(np.max(closed_form_longdouble(spec, x))) * spec.beta
        # the doubling ladder of the bound test finds the same sup
        ladder_sup = float(np.max(closed_form_longdouble(spec, x, chebyshev_ladder)))
        assert math.isclose(ladder_sup * spec.beta, sup, rel_tol=1e-12)
        assert spec.beta <= 1.02 * sup
        if epsp == 1e-12:
            assert spec.beta < 2.6

    def test_huge_kappa_evaluates_without_nan(self):
        # the toy:box1d interval, where 1 + 1/kappa^2 rounds to 1
        kappa = 2.0**27
        spec = build_inversion_spec(kappa, 1e-8, degree_cap=1 << 32)
        x = np.array([0.5 / kappa, 1.0 / kappa, 1e-4, 0.5, 1.0 - SIGMA_TOL, 1.0])
        p = spec(x)
        assert np.all(np.isfinite(p)) and np.all(np.abs(p) <= 1.0 - 1e-9)
        inside = p[1:] - 1.0 / (kappa * spec.beta * x[1:])
        assert np.max(np.abs(inside)) <= 1e-8


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

    def test_block_diagonal_matches_its_dense_twin(self):
        rng = np.random.default_rng(12)
        op = BlockDiagonal(
            np.stack([random_spd_with_spectrum(4, 0.3, 1.0, rng) for _ in range(6)]),
            random_spd_with_spectrum(3, 0.3, 1.0, rng))
        spec = build_inversion_spec(4.0, 1e-10)
        blocked = qsvt_invert(encode(op), spec)
        dense = qsvt_invert(encode(op.dense()), spec)
        assert isinstance(blocked.block, BlockDiagonal)
        np.testing.assert_allclose(blocked.block.dense(), dense.block, rtol=0.0, atol=1e-12)
        assert math.isclose(blocked.alpha, dense.alpha, rel_tol=1e-12)
        assert math.isclose(blocked.eps, dense.eps, rel_tol=1e-12)

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
            u = perturbed_encoding(a, 1e-6, rng)
            spec = build_inversion_spec(4.0, 1e-8)
            v = qsvt_invert(u, spec)
            true_err = np.linalg.norm(v.represented() - np.linalg.inv(a), 2)
            assert true_err <= v.eps * (1.0 + 1e-9) + 1e-13

    def test_input_error_is_charged_its_attained_constant(self):
        # The held operand S' has spectrum [1/4, 1] at alpha = 1; the true
        # operand S = S' - t v v^T moves its smallest eigenvalue by t, where
        # ||S^{-1} - S'^{-1}|| = (kappa/alpha)^2 t/(1 - kappa t/alpha)
        # exactly.  The declared error adds only the polynomial's 4/T_0
        # (< 5e-13), so it is within 1e-6 of the true error, relative.
        rng = np.random.default_rng(13)
        held = random_spd_with_spectrum(6, 0.25, 1.0, rng)
        t = 1e-4
        v_min = np.linalg.eigh(held)[1][:, 0]
        true_op = held - t * np.outer(v_min, v_min)
        u = BlockEncoding(block=held, alpha=1.0, eps=t)
        inv = qsvt_invert(u, build_inversion_spec(4.0, 1e-12))
        true_err = np.linalg.norm(inv.represented() - np.linalg.inv(true_op), 2)
        # the two agree to rounding in the dense inverse, far below 1e-9
        assert true_err <= inv.eps * (1.0 + 1e-9)
        assert inv.eps <= (1.0 + 1e-6) * true_err
