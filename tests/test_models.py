import hashlib
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

import qbsqp.models
from qbsqp.models import (
    HivParameters,
    hiv_initial_guess,
    hiv_ocp,
    hiv_vector_field,
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
from oracles import EQQP_LAM_STAR, box1d_barrier_path, riccati_lqr, toy_optimum
from test_schur import dense_kkt_solve


def box1d_barrier_path_root(mu):
    """Root-finding oracle for box1d_barrier_path: 2(u - 2) + mu/(1 - u) = 0."""
    fun = lambda u: 2.0 * (u - 2.0) + mu / (1.0 - u)
    return float(brentq(fun, -10.0, 1.0 - 1e-14, xtol=1e-15))


def pendulum_field():
    """Pendulum with control-scaled damping: the rates component-wise, the
    Jacobians stage-stacked."""
    def f(x, u):
        return x[1], -np.sin(x[0]) + u[0] * x[1]

    def fx(xs, us):
        jac = np.zeros((len(xs), 2, 2))
        jac[:, 0, 1] = 1.0
        jac[:, 1, 0] = -np.cos(xs[:, 0])
        jac[:, 1, 1] = us[:, 0]
        return jac

    def fu(xs, us):
        jac = np.zeros((len(xs), 2, 1))
        jac[:, 1, 0] = xs[:, 1]
        return jac

    return f, fx, fu


def reference_rk4_point(field, x, u, dt, substeps):
    """RK4 with Jacobian propagation for one point, with 2-D matrix products.

    The rates are taken on 1-element arrays.  The stacked pass must
    reproduce this loop bit for bit in every row, and so must the map's
    one-point path, which runs on Python floats.
    """
    def f(x, u):
        return np.concatenate(field[0](x[:, None], u[:, None]))

    fx, fu = (lambda x, u, g=g: g(x[None], u[None])[0] for g in field[1:])
    h = dt / substeps
    eye = np.eye(x.size)
    jx_acc, ju_acc = eye, np.zeros((x.size, u.size))
    for _ in range(substeps):
        k1, a1, b1 = f(x, u), fx(x, u), fu(x, u)
        x2 = x + 0.5 * h * k1
        k2, fx2, fu2 = f(x2, u), fx(x2, u), fu(x2, u)
        a2 = fx2 @ (eye + 0.5 * h * a1)
        b2 = fu2 + fx2 @ (0.5 * h * b1)
        x3 = x + 0.5 * h * k2
        k3, fx3, fu3 = f(x3, u), fx(x3, u), fu(x3, u)
        a3 = fx3 @ (eye + 0.5 * h * a2)
        b3 = fu3 + fx3 @ (0.5 * h * b2)
        x4 = x + h * k3
        k4, fx4, fu4 = f(x4, u), fx(x4, u), fu(x4, u)
        a4 = fx4 @ (eye + h * a3)
        b4 = fu4 + fx4 @ (h * b3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        jx = eye + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
        ju = (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
        jx_acc = jx @ jx_acc
        ju_acc = jx @ ju_acc + ju
    return x, jx_acc, ju_acc


class TestRk4Discretize:
    def test_linear_system_matches_matrix_exponential(self):
        a = np.array([[0.0, 1.0], [-2.0, -0.3]])
        b = np.array([[0.0], [1.0]])
        rows = np.hstack([a, b]).tolist()
        disc = rk4_discretize(
            lambda x, u: [r[0] * x[0] + r[1] * x[1] + r[2] * u[0] for r in rows],
            lambda xs, us: np.broadcast_to(a, (len(xs), 2, 2)),
            lambda xs, us: np.broadcast_to(b, (len(xs), 2, 1)),
            dt=0.5, substeps=8,
        )
        x0 = np.array([[1.0, -0.5]])
        x1 = disc.f(x0, np.zeros((1, 1)))
        # fourth-order accuracy: global error ~ (dt/substeps)^4
        np.testing.assert_allclose(x1[0], expm(0.5 * a) @ x0[0], atol=1e-6)
        np.testing.assert_allclose(disc.jac_x(x0, np.zeros((1, 1)))[0],
                                   expm(0.5 * a), atol=1e-6)

    def test_jacobians_match_finite_differences_nonlinear(self):
        disc = rk4_discretize(*pendulum_field(), dt=0.3, substeps=4)
        x = np.array([[0.4, -0.2]])
        u = np.array([[0.1]])
        np.testing.assert_allclose(
            disc.jac_x(x, u)[0], fd_jacobian(lambda v: disc.f(v[None], u)[0], x[0]),
            atol=1e-7)
        np.testing.assert_allclose(
            disc.jac_u(x, u)[0], fd_jacobian(lambda v: disc.f(x, v[None])[0], u[0]),
            atol=1e-7)


    def test_stacked_hiv_stages_equal_single_stage_calls_bitwise(self):
        p = HivParameters()
        field = hiv_vector_field(p)
        disc = rk4_discretize(*field, p.dt, p.substeps)
        rng = np.random.default_rng(3)
        xs = (np.asarray(p.x0) / np.asarray(p.scales)) * rng.uniform(0.5, 1.5, (16, 3))
        us = rng.uniform(0.0, 1.0, (16, 2))
        us[:3] = [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]  # the bounds exactly
        xs[3] = np.nan
        stacked = (disc.f(xs, us), disc.jac_x(xs, us), disc.jac_u(xs, us))
        for k in range(16):
            x, u = xs[k:k + 1], us[k:k + 1]
            # the map value first: the one-point path on floats
            single = (disc.f(x, u)[0], disc.jac_x(x, u)[0], disc.jac_u(x, u)[0])
            reference = reference_rk4_point(field, xs[k], us[k], p.dt, p.substeps)
            for got, one, ref in zip(stacked, single, reference):
                np.testing.assert_array_equal(got[k], one)
                np.testing.assert_array_equal(got[k], ref)
        assert np.isnan(stacked[0][3]).all()

    @pytest.mark.parametrize("substeps", [1, 3])
    @pytest.mark.parametrize("k", [1, 7])
    def test_stacked_pendulum_pass_equals_reference_bitwise(self, substeps, k):
        field = pendulum_field()
        disc = rk4_discretize(*field, dt=0.3, substeps=substeps)
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1.0, 1.0, (k, 2))
        us = rng.uniform(-0.5, 0.5, (k, 1))
        stacked = (disc.f(xs, us), disc.jac_x(xs, us), disc.jac_u(xs, us))
        for row in range(k):
            reference = reference_rk4_point(field, xs[row], us[row], 0.3, substeps)
            for got, ref in zip(stacked, reference):
                np.testing.assert_array_equal(got[row], ref)

    @pytest.mark.parametrize("substeps", [1, 10])
    @pytest.mark.parametrize("k", [1, 20])
    def test_jacobian_pass_calls_each_jacobian_once(self, substeps, k):
        calls = Counter()

        def counted(name, g):
            def call(xs, us):
                calls[name] += 1
                return g(xs, us)
            return call

        f, fx, fu = hiv_vector_field(HivParameters())
        disc = rk4_discretize(counted("f", f), counted("jac_x", fx),
                              counted("jac_u", fu), dt=1.0, substeps=substeps)
        xs = np.tile([1.0, 0.1, 1.0], (k, 1))
        us = np.full((k, 2), 0.5)
        disc.jac_x(xs, us)
        disc.jac_u(xs, us)
        disc.f(xs, us)
        assert calls == {"f": 4 * substeps, "jac_x": 1, "jac_u": 1}
        disc.f(xs + 0.5, us)  # a new point: RK4 alone, on floats at k = 1
        assert calls == {"f": 8 * substeps, "jac_x": 1, "jac_u": 1}

    def test_vector_field_calls_per_evaluation_independent_of_horizon(
            self, monkeypatch):
        calls = Counter()
        field = hiv_vector_field

        def counting_field(p):
            f, fx, fu = field(p)

            def counted(xs, us):
                calls["f"] += 1
                return f(xs, us)

            return counted, fx, fu

        monkeypatch.setattr(qbsqp.models, "hiv_vector_field", counting_field)
        per_evaluation = []
        for horizon in (8, 32):
            nlp = transcribe(hiv_ocp(HivParameters(N=horizon)))
            z = 1.001 * hiv_initial_guess(nlp)  # off every point seen so far
            calls.clear()
            nlp.evaluate(z)
            per_evaluation.append(calls["f"])
        # one Jacobian pass, 4 RK4 stages per substep; the residuals take
        # the next states it kept
        substeps = HivParameters().substeps
        assert per_evaluation == [4 * substeps] * 2

    def test_map_value_at_jacobian_point_equals_fresh_integration(self):
        p = HivParameters()
        field = hiv_vector_field(p)
        disc = rk4_discretize(*field, p.dt, p.substeps)
        fresh = rk4_discretize(*field, p.dt, p.substeps)
        rng = np.random.default_rng(4)
        xs = (np.asarray(p.x0) / np.asarray(p.scales)) * rng.uniform(0.5, 1.5, (12, 3))
        us = rng.uniform(0.0, 1.0, (12, 2))
        disc.jac_x(xs, us)
        np.testing.assert_array_equal(disc.f(xs, us), fresh.f(xs, us))
        # a copy of the point hits the same entry; another point integrates
        np.testing.assert_array_equal(disc.f(xs.copy(), us.copy()), fresh.f(xs, us))
        np.testing.assert_array_equal(disc.f(xs[:3], us[:3]), fresh.f(xs[:3], us[:3]))

    def test_kept_map_value_cannot_be_mutated_by_a_caller(self):
        disc = rk4_discretize(*pendulum_field(), dt=0.3, substeps=4)
        x, u = np.array([[0.4, -0.2], [0.1, 0.3]]), np.array([[0.1], [-0.2]])
        disc.jac_u(x, u)
        expected = disc.f(x, u).copy()
        for kept in (disc.f(x, u), disc.jac_x(x, u), disc.jac_u(x, u)):
            with pytest.raises(ValueError):  # read-only
                kept.flat[0] += 1.0
        np.testing.assert_array_equal(disc.f(x, u), expected)


# sha256 of hiv_initial_guess(nlp, u_const).tobytes() on HIV with horizon N,
# as computed by the stacked numpy map before its one-point path ran on
# Python floats.
INITIAL_GUESS_SHA256 = {
    (160, 0.05): "beb83af988b13871b8a83f29356b3b3654a9587af5015380a38bf51831c52423",
    (160, 0.0412): "51ec044c183375856676f4d87cebf982c88769946bb626f6b0434237b3bb3816",
    (20, 0.05): "592e623608477c5473a30990805ff697bcbdf38c79178fe6bb683a2db6858c87",
    (10, 0.0587): "d9b5f1e79bf4e699f244d264daaade9d7588102b68f78068a32d8f98bc2bd270",
    (7, 0.9): "94939ecbd03813b5525a6ea2c09a4aeefe1e57f03bee33cfe5ade359affdce60",
    (33, 0.0): "8ffa07062bc115f4f578b75688431a104fd99610e7660af27ae7371caccf1db4",
}


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

    @pytest.mark.parametrize(("horizon", "u_const"), list(INITIAL_GUESS_SHA256))
    def test_initial_guess_bytes_are_pinned(self, horizon, u_const):
        nlp = transcribe(hiv_ocp(HivParameters(N=horizon)))
        z0 = hiv_initial_guess(nlp, u_const)
        digest = hashlib.sha256(z0.tobytes()).hexdigest()
        assert digest == INITIAL_GUESS_SHA256[horizon, u_const]

    def test_rollout_gaps_are_exactly_zero_under_the_stacked_map(self):
        # The rollout steps the map one stage at a time (on floats) and
        # the residuals step all N stages in one stacked call.
        nlp = transcribe(hiv_ocp(HivParameters(N=160)))
        gaps = nlp.equalities(hiv_initial_guess(nlp, 0.05))
        assert np.all(gaps == 0.0)

    def test_initial_conditioning_tractable(self):
        nlp = transcribe(hiv_ocp())
        z0 = hiv_initial_guess(nlp, 0.05)
        qp = build_qp(nlp, z0, BarrierConfig(mu=1e-2))
        assert np.linalg.cond(qp.dense_Q()) < 1e6

    def test_vector_field_positivity_structure(self):
        p = HivParameters()
        f, _, _ = hiv_vector_field(p)
        # at the I = 0 face with V, T > 0 the I-derivative is nonnegative
        rate = f((0.5, 0.0, 0.1), (0.3, 0.3))
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
        z_star, lam_star = toy_optimum("eqqp"), EQQP_LAM_STAR
        np.testing.assert_array_equal(z_star, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(lam_star, [-1.0, 0.0])
        # cross-check by dense KKT solve on the transcribed QP
        nlp = transcribe(t.ocp)
        qp = build_qp(nlp, t.z0, BarrierConfig(mu=1.0))
        dz, lam = dense_kkt_solve(qp)
        np.testing.assert_allclose(t.z0 + dz, z_star, atol=1e-12)
        np.testing.assert_allclose(lam, lam_star, atol=1e-12)

    def test_double_integrator_riccati_oracle(self):
        t = toy_problems()["double_integrator"]
        nlp = transcribe(t.ocp)
        cfg = SqpConfig(mu0=1e-2)
        rep = solve(nlp, t.z0, cfg, ExactSchurSolver())
        assert rep.converged
        assert np.linalg.norm(rep.z_star - toy_optimum("double_integrator")) < 1e-8

    def test_horizon_one_single_riccati_step(self):
        from qbsqp.models import double_integrator_ocp
        ocp, (a, b, q, r, qf, x0) = double_integrator_ocp(horizon=1)
        nlp = transcribe(ocp)
        xs, us = riccati_lqr(a, b, q, r, qf, 1, x0)
        z_ref = nlp.join(xs, us)
        rep = solve(nlp, rollout(nlp, np.zeros((1, 1))),
                    SqpConfig(), ExactSchurSolver())
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
                        eps_opt=1e-10, eps_feas=1e-12)
        rep = solve(nlp, t.z0, cfg, ExactSchurSolver())
        assert rep.converged
        assert rep.z_star[1] == pytest.approx(box1d_barrier_path(mu), abs=1e-8)
