import re

import numpy as np
import pytest

from qbsqp.models import HivParameters, hiv_initial_guess, hiv_ocp, toy_problems
from qbsqp.nlp import BarrierConfig, build_qp, transcribe
from qbsqp.schur import (
    ExactSchurSolver,
    NoisySchurSolver,
    QpData,
    SingularityError,
    exact_step,
    noisy_step,
)


def kkt_residual_norm(qp: QpData, dz: np.ndarray, lam: np.ndarray) -> float:
    """Oracle: ||Q dz + A^T lam + g|| + ||A dz - r||."""
    stat = np.linalg.norm(qp.Q @ dz + qp.A.T @ lam + qp.g)
    feas = np.linalg.norm(qp.A @ dz - qp.r) if qp.m_eq else 0.0
    return float(stat + feas)


def dense_kkt_solve(qp: QpData) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: factorize the full KKT matrix directly (no Schur elimination)."""
    n, m = qp.n_z, qp.m_eq
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = qp.Q
    kkt[:n, n:] = qp.A.T
    kkt[n:, :n] = qp.A
    rhs = np.concatenate([-qp.g, qp.r])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n], sol[n:]


def random_qp(rng, n=12, m=4, spd_lo=0.5, spd_hi=5.0):
    q_basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(spd_lo, spd_hi, size=n)
    q = (q_basis * eigs) @ q_basis.T
    q = 0.5 * (q + q.T)
    a = rng.standard_normal((m, n))
    g = rng.standard_normal(n)
    r = rng.standard_normal(m)
    return QpData(Q=q, A=a, g=g, r=r)


class TestExactStep:
    def test_two_var_one_constraint_hand_solution(self):
        # Q = I, A = [1 0], g = 0, r = [1]: S = 1, b = -1, lam = -1, dz = (1, 0).
        qp = QpData(Q=np.eye(2), A=np.array([[1.0, 0.0]]),
                    g=np.zeros(2), r=np.array([1.0]))
        sol = exact_step(qp)
        np.testing.assert_allclose(sol.dz, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(sol.lam, [-1.0], atol=1e-14)
        np.testing.assert_allclose(qp.A @ sol.dz, qp.r, atol=1e-14)

    def test_homogeneous_system_gives_zero(self):
        qp = QpData(Q=np.eye(3), A=np.array([[1.0, 1.0, 0.0]]),
                    g=np.zeros(3), r=np.zeros(1))
        sol = exact_step(qp)
        assert np.all(sol.dz == 0.0)
        assert np.all(sol.lam == 0.0)

    def test_matches_dense_kkt_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            qp = random_qp(rng)
            sol = exact_step(qp)
            dz_ref, lam_ref = dense_kkt_solve(qp)
            assert np.linalg.norm(sol.dz - dz_ref) <= 1e-10 * (1 + np.linalg.norm(dz_ref))
            assert np.linalg.norm(sol.lam - lam_ref) <= 1e-9 * (1 + np.linalg.norm(lam_ref))

    def test_residual_postcondition(self):
        rng = np.random.default_rng(1)
        qp = random_qp(rng)
        sol = exact_step(qp)
        bound = 1e-9 * (1 + np.linalg.norm(qp.g) + np.linalg.norm(qp.r))
        assert kkt_residual_norm(qp, sol.dz, sol.lam) <= bound

    def test_unconstrained_case(self):
        qp = QpData(Q=2.0 * np.eye(3), A=np.zeros((0, 3)),
                    g=np.array([2.0, 0.0, -4.0]), r=np.zeros(0))
        sol = exact_step(qp)
        np.testing.assert_allclose(sol.dz, [-1.0, 0.0, 2.0])
        assert sol.lam.shape == (0,)

    def test_singular_q_raises_with_diagnostics(self):
        qp = QpData(Q=np.diag([1.0, 0.0]), A=np.array([[1.0, 0.0]]),
                    g=np.zeros(2), r=np.zeros(1))
        with pytest.raises(SingularityError, match="eig range"):
            exact_step(qp)

    @pytest.mark.parametrize("bad, name", [(1, "stage block 1"), (3, "stage block 3")])
    def test_indefinite_block_raises_naming_the_block(self, bad, name):
        # Three stage blocks of size 2, then a trailing block of size 1
        # (stage 3); block `bad` gets the eigenvalues -2 and 0.5.
        q = np.eye(7)
        q[2 * bad, 2 * bad] = -2.0
        if bad < 3:
            q[2 * bad + 1, 2 * bad + 1] = 0.5
        qp = QpData(Q=q, A=np.ones((1, 7)), g=np.zeros(7), r=np.zeros(1),
                    layout=(3, 2))
        low, high = (-2.0, 0.5) if bad < 3 else (-2.0, -2.0)
        message = (f"Q {name} is not positive definite "
                   f"(eig range [{low:.3e}, {high:.3e}])")
        with pytest.raises(SingularityError, match=f"^{re.escape(message)}$"):
            exact_step(qp)

    def test_layout_must_fit_q(self):
        with pytest.raises(ValueError, match="layout"):
            QpData(Q=np.eye(3), A=np.ones((1, 3)), g=np.zeros(3), r=np.zeros(1),
                   layout=(2, 2))

    def test_singular_schur_complement_raises(self):
        # Repeated constraint rows make S = A Q^-1 A^T singular.
        qp = QpData(Q=np.eye(2), A=np.array([[1.0, 0.0], [1.0, 0.0]]),
                    g=np.zeros(2), r=np.zeros(2))
        with pytest.raises(SingularityError, match="Schur complement S"):
            exact_step(qp)

    def test_kappa_s_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            qp = random_qp(rng)
            s = qp.A @ np.linalg.solve(qp.Q, qp.A.T)
            kappa_s = np.linalg.cond(s)
            bound = np.linalg.cond(qp.A) ** 2 * np.linalg.cond(qp.Q)
            assert kappa_s <= bound * (1 + 1e-6)


def ocp_qps():
    """build_qp subproblems at each OCP's start point, HIV at three horizons."""
    qps = {}
    for horizon in (4, 20, 160):
        nlp = transcribe(hiv_ocp(HivParameters(N=horizon)))
        qps[f"hiv_N{horizon}"] = build_qp(nlp, hiv_initial_guess(nlp, 0.05),
                                          BarrierConfig(mu=1e-2))
    for name, toy in toy_problems().items():
        qps[name] = build_qp(transcribe(toy.ocp), toy.z0, BarrierConfig(mu=1e-2))
    return qps


@pytest.mark.parametrize("name, qp", list(ocp_qps().items()))
def test_block_step_matches_dense_kkt_oracle_on_ocp_qps(name, qp):
    count, size = qp.layout
    assert count >= 1 and qp.n_z - count * size >= 1  # stage and terminal blocks
    sol = exact_step(qp)
    dz_ref, lam_ref = dense_kkt_solve(qp)
    assert np.linalg.norm(sol.dz - dz_ref) <= 1e-10 * np.linalg.norm(dz_ref)
    assert np.linalg.norm(sol.lam - lam_ref) <= 1e-10 * np.linalg.norm(lam_ref)


class TestNoisyStep:
    def test_eps_zero_is_exact(self):
        rng = np.random.default_rng(4)
        qp = random_qp(rng)
        sol_noisy = noisy_step(qp, 0.0, np.random.default_rng(0))
        sol_exact = exact_step(qp)
        np.testing.assert_array_equal(sol_noisy.dz, sol_exact.dz)

    def test_hard_norm_bound(self):
        rng = np.random.default_rng(5)
        qp = random_qp(rng)
        exact = exact_step(qp).dz
        for seed in range(50):
            sol = noisy_step(qp, 1e-3, np.random.default_rng(seed))
            assert np.linalg.norm(sol.dz - exact) <= 1e-3

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        qp = random_qp(rng)
        a = noisy_step(qp, 1e-2, np.random.default_rng(42))
        b = noisy_step(qp, 1e-2, np.random.default_rng(42))
        np.testing.assert_array_equal(a.dz, b.dz)

    def test_solver_interface_law(self):
        rng = np.random.default_rng(7)
        qp = random_qp(rng)
        exact = exact_step(qp).dz
        solver = NoisySchurSolver(eps=5e-4, seed=1)
        for _ in range(5):
            sol = solver.step(qp)
            assert np.linalg.norm(sol.dz - exact) <= solver.eps_dz


def test_exact_solver_declares_infinite_accuracy():
    solver = ExactSchurSolver()
    assert solver.eps_dz == float("inf")
    assert solver.name == "exact"
