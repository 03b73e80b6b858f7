import numpy as np
import pytest

from qbsqp.blockenc import encode
from qbsqp.qsvt import (
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
