import numpy as np
import pytest
from scipy.linalg import expm

from qbsqp.models import (
    HivParameters,
    box1d_barrier_path,
    box1d_barrier_path_root,
    hiv_initial_guess,
    hiv_ocp,
    hiv_vector_field,
    riccati_lqr,
    rk4_discretize,
    toy_problems,
)
from qbsqp.nlp import (
    BarrierConfig,
    build_qp,
    fd_jacobian,
    rollout,
    transcribe,
    validate_derivatives,
)
from qbsqp.schur import ExactSchurSolver
from qbsqp.sqp import SqpConfig, solve


class TestRk4Discretize:
    def test_linear_system_matches_matrix_exponential(self):
        a = np.array([[0.0, 1.0], [-2.0, -0.3]])
        b = np.array([[0.0], [1.0]])
        disc = rk4_discretize(
            lambda x, u: a @ x + b @ u,
            lambda x, u: a,
            lambda x, u: b,
            dt=0.5, substeps=8,
        )
        x0 = np.array([1.0, -0.5])
        x1 = disc.f(x0, np.zeros(1))
        # fourth-order accuracy: global error ~ (dt/substeps)^4
        np.testing.assert_allclose(x1, expm(0.5 * a) @ x0, atol=1e-6)
        np.testing.assert_allclose(disc.jac_x(x0, np.zeros(1)), expm(0.5 * a),
                                   atol=1e-6)

    def test_jacobians_match_finite_differences_nonlinear(self):
        f = lambda x, u: np.array([x[1], -np.sin(x[0]) + u[0] * x[1]])
        fx = lambda x, u: np.array([[0.0, 1.0], [-np.cos(x[0]), u[0]]])
        fu = lambda x, u: np.array([[0.0], [x[1]]])
        disc = rk4_discretize(f, fx, fu, dt=0.3, substeps=4)
        x = np.array([0.4, -0.2])
        u = np.array([0.1])
        np.testing.assert_allclose(
            disc.jac_x(x, u), fd_jacobian(lambda v: disc.f(v, u), x), atol=1e-7)
        np.testing.assert_allclose(
            disc.jac_u(x, u), fd_jacobian(lambda v: disc.f(x, v), u), atol=1e-7)


class TestHivModel:
    def test_dimensions_match_horizon_formula(self):
        nlp = transcribe(hiv_ocp())
        assert nlp.n_z == 303

    def test_analytic_derivatives_validated(self):
        worst = validate_derivatives(hiv_ocp(), n_points=3)
        assert max(worst.values()) < 1e-5

    def test_perfect_drugs_decay_monotonically(self):
        # u1 = u2 = 1 removes infection and virion production; I and V decay.
        p = HivParameters()
        nlp = transcribe(hiv_ocp(p))
        z = rollout(nlp, np.full((p.N, 2), 1.0 - 1e-12))
        xs, _ = nlp.split(z)
        assert np.all(np.diff(xs[:, 1]) < 0.0)
        assert np.all(np.diff(xs[:, 2]) < 0.0)

    def test_zero_weights_zero_objective(self):
        p = HivParameters(q_V=0, q_I=0, q_T=0, r_1=0, r_2=0,
                          q_V_f=0, q_I_f=0, q_T_f=0)
        nlp = transcribe(hiv_ocp(p))
        rng = np.random.default_rng(0)
        for _ in range(3):
            z = rollout(nlp, rng.uniform(0.1, 0.9, size=(p.N, 2)))
            assert nlp.objective(z) == 0.0

    def test_initial_guess_strictly_feasible(self):
        nlp = transcribe(hiv_ocp())
        z0 = hiv_initial_guess(nlp)
        assert nlp.inequalities(z0).max() < 0.0
        assert np.linalg.norm(nlp.equalities(z0)) == 0.0

    def test_initial_conditioning_tractable(self):
        nlp = transcribe(hiv_ocp())
        z0 = hiv_initial_guess(nlp, 0.05)
        qp = build_qp(nlp, z0, BarrierConfig(mu=1e-2))
        assert np.linalg.cond(qp.Q) < 1e6

    def test_vector_field_positivity_structure(self):
        p = HivParameters()
        f, _, _ = hiv_vector_field(p)
        # at the I = 0 face with V, T > 0 the I-derivative is nonnegative
        rate = f(np.array([0.5, 0.0, 0.1]), np.array([0.3, 0.3]))
        assert rate[1] >= 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HivParameters(c=-1.0)
        with pytest.raises(ValueError):
            HivParameters(q_V=-0.1)


class TestToyProblems:
    def test_catalog_contents(self):
        toys = toy_problems()
        assert set(toys) == {"double_integrator", "eqqp", "box1d"}

    def test_eqqp_hand_kkt(self):
        t = toy_problems()["eqqp"]
        np.testing.assert_array_equal(t.z_star, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(t.lam_star, [-1.0, 0.0])
        # cross-check by dense KKT solve on the transcribed QP
        nlp = transcribe(t.ocp)
        from qbsqp.nlp import build_qp as bq
        from qbsqp.schur import dense_kkt_solve
        qp = bq(nlp, t.z0, BarrierConfig(mu=1.0))
        dz, lam = dense_kkt_solve(qp)
        np.testing.assert_allclose(t.z0 + dz, t.z_star, atol=1e-12)
        np.testing.assert_allclose(lam, t.lam_star, atol=1e-12)

    def test_double_integrator_riccati_oracle(self):
        t = toy_problems()["double_integrator"]
        nlp = transcribe(t.ocp)
        cfg = SqpConfig(convergence_check="kkt", mu0=1e-2, **{})
        rep = solve(nlp, t.z0, cfg, ExactSchurSolver())
        assert rep.converged
        assert np.linalg.norm(rep.z_star - t.z_star) < 1e-8

    def test_horizon_one_single_riccati_step(self):
        from qbsqp.models import double_integrator_ocp
        ocp, (a, b, q, r, qf, x0) = double_integrator_ocp(horizon=1)
        nlp = transcribe(ocp)
        xs, us = riccati_lqr(a, b, q, r, qf, 1, x0)
        z_ref = nlp.join(xs, us)
        rep = solve(nlp, rollout(nlp, np.zeros((1, 1))),
                    SqpConfig(convergence_check="kkt"), ExactSchurSolver())
        assert rep.converged
        assert np.linalg.norm(rep.z_star - z_ref) < 1e-8

    def test_box1d_barrier_path_closed_form_vs_root(self):
        for mu in (1e-1, 1e-3, 1e-6):
            closed = box1d_barrier_path(mu)
            root = box1d_barrier_path_root(mu)
            assert closed == pytest.approx(root, abs=1e-12)
            assert closed < 1.0

    def test_box1d_active_limit(self):
        # |u(mu) - 1| ~ mu/2 as mu -> 0
        ratios = [abs(box1d_barrier_path(mu) - 1.0) / mu for mu in (1e-4, 1e-6)]
        assert ratios[0] == pytest.approx(0.5, rel=1e-3)
        assert ratios[1] == pytest.approx(0.5, rel=1e-5)

    def test_box1d_solver_tracks_barrier_path(self):
        t = toy_problems()["box1d"]
        nlp = transcribe(t.ocp)
        mu = 1e-3
        cfg = SqpConfig(mu0=mu, barrier_update="constant", max_outer_iters=60,
                        convergence_check="kkt", eps_opt=1e-10, eps_feas=1e-12)
        rep = solve(nlp, t.z0, cfg, ExactSchurSolver())
        assert rep.converged
        assert rep.z_star[1] == pytest.approx(box1d_barrier_path(mu), abs=1e-8)
