import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import qbsqp.nlp
from qbsqp.models import (
    HivParameters,
    box1d_ocp,
    double_integrator_ocp,
    eqqp_ocp,
    hiv_initial_guess,
    hiv_ocp,
)
from qbsqp.nlp import (
    MAX_DAMPINGS,
    BarrierConfig,
    ConfigurationError,
    InfeasiblePointError,
    OcpDefinition,
    build_qp,
    eval_barrier_objective,
    log_barrier,
    log_barrier_d2,
    rollout,
    transcribe,
)
from qbsqp.schur import SingularityError
from oracles import fd_gradient, fd_jacobian, validate_derivatives


def fd_hessian(fun, x):
    """Reference central-difference Hessian: the FD Jacobian of the FD
    gradient, symmetrised."""
    hess = fd_jacobian(lambda v: fd_gradient(fun, v), x)
    return 0.5 * (hess + hess.T)


def scalar_linear_ocp(horizon=2):
    """f(x, u) = x + u with quadratic cost; n = m = 1."""
    return OcpDefinition(
        n=1, m=1, horizon=horizon, x_init=np.array([1.0]),
        dynamics=lambda xs, us: xs + us,
        dynamics_jac_x=lambda xs, us: np.ones((len(xs), 1, 1)),
        dynamics_jac_u=lambda xs, us: np.ones((len(xs), 1, 1)),
        stage_cost=lambda xs, us: 0.5 * (xs[:, 0] ** 2 + us[:, 0] ** 2),
        stage_cost_grad=lambda xs, us: np.hstack([xs, us]),
        stage_cost_hess=lambda xs, us: np.broadcast_to(np.eye(2), (len(xs), 2, 2)),
        terminal_cost=lambda xs: 0.5 * xs[:, 0] ** 2,
        terminal_cost_grad=lambda xs: xs.copy(),
        terminal_cost_hess=lambda xs: np.ones((len(xs), 1, 1)),
        name="scalar_linear",
    )


def zero_derivatives(n, m):
    """Every required derivative of an OCP with n states and m controls,
    each returning zeros of its stacked shape."""
    return dict(
        dynamics_jac_x=lambda xs, us: np.zeros((len(xs), n, n)),
        dynamics_jac_u=lambda xs, us: np.zeros((len(xs), n, m)),
        stage_cost_grad=lambda xs, us: np.zeros((len(xs), n + m)),
        stage_cost_hess=lambda xs, us: np.zeros((len(xs), n + m, n + m)),
        terminal_cost_grad=lambda xs: np.zeros((len(xs), n)),
        terminal_cost_hess=lambda xs: np.zeros((len(xs), n, n)),
    )


class TestTranscribe:
    def test_dimension_formulas_scalar(self):
        nlp = transcribe(scalar_linear_ocp(horizon=2))
        assert nlp.n_z == 2 * 2 + 1 == 5
        assert nlp.m_eq == 3

    def test_dimension_formulas_hiv(self):
        nlp = transcribe(hiv_ocp())
        assert nlp.n_z == 60 * 5 + 3 == 303
        assert nlp.m_eq == 61 * 3
        assert nlp.n_ineq == 60 * 7 + 3

    def test_rollout_is_exactly_feasible(self):
        nlp = transcribe(scalar_linear_ocp(horizon=4))
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = rollout(nlp, rng.standard_normal((4, 1)))
            assert np.linalg.norm(nlp.equalities(z)) == 0.0

    def test_layout_is_stagewise_stacked(self):
        nlp = transcribe(scalar_linear_ocp(horizon=2))
        xs = np.array([[1.0], [2.0], [3.0]])
        us = np.array([[10.0], [20.0]])
        z = nlp.join(xs, us)
        np.testing.assert_array_equal(z, [1.0, 10.0, 2.0, 20.0, 3.0])
        xs2, us2 = nlp.split(z)
        np.testing.assert_array_equal(xs, xs2)
        np.testing.assert_array_equal(us, us2)

    def test_equality_ordering_pin_first(self):
        nlp = transcribe(scalar_linear_ocp(horizon=2))
        z = np.array([5.0, 0.0, 0.0, 0.0, 0.0])
        g = nlp.equalities(z)
        assert g[0] == 5.0 - 1.0  # x_0 - x_init
        assert g[1] == 0.0 - 5.0  # x_1 - (x_0 + u_0)

    def test_dimension_mismatch_names_offender(self):
        bad = OcpDefinition(
            n=2, m=1, horizon=2, x_init=np.zeros(2),
            dynamics=lambda xs, us: np.zeros((len(xs), 3)),  # wrong size
            stage_cost=lambda xs, us: np.zeros(len(xs)),
            terminal_cost=lambda xs: np.zeros(len(xs)),
            **zero_derivatives(2, 1),
        )
        with pytest.raises(ConfigurationError, match="dynamics"):
            transcribe(bad)

    @pytest.mark.parametrize("name", ["dynamics_jac_x", "dynamics_jac_u",
                                      "stage_cost_grad", "stage_cost_hess",
                                      "terminal_cost_grad", "terminal_cost_hess"])
    def test_missing_derivative_is_named(self, name):
        fields = dict(box1d_ocp().__dict__)
        del fields[name]
        with pytest.raises(TypeError, match=name):
            OcpDefinition(**fields)

    @pytest.mark.parametrize("constraints, jac", [
        (dict(path_constraints=lambda xs, us: us - 1.0, n_path=1), "path_jac"),
        (dict(terminal_constraints=lambda xs: xs - 1.0, n_terminal=1), "terminal_jac"),
    ])
    def test_constraints_without_jacobian_name_it(self, constraints, jac):
        with pytest.raises(ConfigurationError, match=f"^{jac} must be supplied"):
            OcpDefinition(**{**scalar_linear_ocp().__dict__, **constraints})

    @pytest.mark.parametrize("removed, con", [
        (dict(path_constraints=None, path_jac=None), "path_constraints"),
        (dict(n_terminal=1), "terminal_constraints"),
    ])
    def test_declared_constraints_without_callable_name_it(self, removed, con):
        # box1d declares n_path = 1; the first inequalities call would
        # otherwise fail on None
        with pytest.raises(ConfigurationError, match=f"^{con} must be supplied"):
            OcpDefinition(**{**box1d_ocp().__dict__, **removed})


def perturbed_hiv_point(nlp, seed):
    """Strictly feasible HIV iterate off the rollout: states and controls
    scaled by factors in [0.9, 1.1]."""
    z = hiv_initial_guess(nlp, 0.3)
    return z * np.random.default_rng(seed).uniform(0.9, 1.1, z.size)


def counting(fn, calls, name):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


class TestStackedStageContract:
    STAGE_CALLABLES = ("stage_cost", "stage_cost_grad", "stage_cost_hess",
                       "path_constraints", "path_jac")

    def test_hiv_stacked_rows_equal_single_stage_calls_bitwise(self):
        ocp = hiv_ocp(HivParameters(N=20))
        xs, us = transcribe(ocp).split(perturbed_hiv_point(transcribe(ocp), 5))
        xs = xs[:-1]
        for name in self.STAGE_CALLABLES:
            fun = getattr(ocp, name)
            stacked = np.asarray(fun(xs, us))
            assert stacked.shape[0] == len(xs), name
            for k in range(len(xs)):
                np.testing.assert_array_equal(
                    stacked[k], np.asarray(fun(xs[k:k + 1], us[k:k + 1]))[0],
                    err_msg=f"{name} row {k}")

    @pytest.mark.parametrize("horizon", [20, 160])
    def test_barrier_objective_equals_per_stage_sequential_reference(self, horizon):
        ocp = hiv_ocp(HivParameters(N=horizon))
        nlp = transcribe(ocp)
        cfg = BarrierConfig(mu=1e-3)
        for seed in range(3):
            z = perturbed_hiv_point(nlp, seed)
            xs, us = nlp.split(z)
            total = 0.0
            h = []
            for k in range(horizon):
                x, u = xs[k:k + 1], us[k:k + 1]
                total += float(ocp.stage_cost(x, u)[0])
                h.append(ocp.path_constraints(x, u)[0])
            h.append(ocp.terminal_constraints(xs[-1:])[0])
            h = np.concatenate(h)
            assert np.max(h) < 0.0
            expected = (total + float(ocp.terminal_cost(xs[-1:])[0])
                        + cfg.mu * float(np.sum(log_barrier(h))))
            assert eval_barrier_objective(nlp, z, cfg) == expected

    def test_stacked_barrier_objective_equals_single_point_calls_bitwise(self):
        # Feasible rows, rows across the boundary (+inf: a control above 1,
        # or a terminal state below the margin) and a NaN row, in one
        # stacked call; a RuntimeWarning fails the test.
        nlp = transcribe(hiv_ocp(HivParameters(N=20)))
        cfg = BarrierConfig(mu=3e-4)
        rows = [perturbed_hiv_point(nlp, seed) for seed in range(6)]
        rows[1][nlp.stage_offsets[4] + 3] = 1.5
        rows[3][-1] = -0.2
        rows[4][7] = np.nan
        zs = np.array(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f_bar, f, b = eval_barrier_objective(nlp, zs, cfg, terms=True)
            single = [eval_barrier_objective(nlp, z, cfg, terms=True) for z in rows]
        np.testing.assert_array_equal(np.array([f_bar, f, b]).T, single)
        assert np.isinf(f_bar[[1, 3]]).all() and np.isnan(f_bar[4])
        assert np.isfinite(f_bar[[0, 2, 5]]).all()
        np.testing.assert_array_equal(f_bar, f + cfg.mu * b)
        np.testing.assert_array_equal(nlp.objective(zs[[0, 2]]),
                                      [nlp.objective(rows[0]), nlp.objective(rows[2])])
        np.testing.assert_array_equal(nlp.inequalities(zs),
                                      [nlp.inequalities(z) for z in rows])

    def test_objective_adds_stage_costs_in_stage_order(self):
        # 1 + 2^-53 rounds back to 1, so only the sequential sum of
        # (1, 2^-53, ..., 2^-53) is exactly 1; pairwise sums exceed it.
        horizon = 64
        ocp = OcpDefinition(**{**scalar_linear_ocp(horizon).__dict__,
                               "stage_cost": lambda xs, us: np.where(
                                   xs[:, 0] == 1.0, 1.0, 2.0**-53),
                               "terminal_cost": lambda xs: np.zeros(len(xs))})
        nlp = transcribe(ocp)
        z = nlp.join(np.vstack([[1.0], np.zeros((horizon, 1))]),
                     np.zeros((horizon, 1)))
        assert nlp.objective(z) == 1.0

    @pytest.mark.parametrize("horizon", [8, 32])
    def test_one_stage_call_per_barrier_evaluation(self, horizon):
        calls = Counter()
        ocp = hiv_ocp(HivParameters(N=horizon))
        wrapped = {name: counting(getattr(ocp, name), calls, name)
                   for name in ("stage_cost", "path_constraints")}
        nlp = transcribe(OcpDefinition(**{**ocp.__dict__, **wrapped}))
        z = perturbed_hiv_point(nlp, 1)
        calls.clear()
        eval_barrier_objective(nlp, z, BarrierConfig(mu=1e-2))
        assert calls == {"stage_cost": 1, "path_constraints": 1}

    def test_one_call_of_each_callable_per_block_of_points(self):
        calls = Counter()
        ocp = hiv_ocp(HivParameters(N=8))
        names = ("stage_cost", "path_constraints", "terminal_cost",
                 "terminal_constraints")
        wrapped = {name: counting(getattr(ocp, name), calls, name) for name in names}
        nlp = transcribe(OcpDefinition(**{**ocp.__dict__, **wrapped}))
        zs = np.array([perturbed_hiv_point(nlp, seed) for seed in range(5)])
        calls.clear()
        assert eval_barrier_objective(nlp, zs, BarrierConfig(mu=1e-2)).shape == (5,)
        assert calls == dict.fromkeys(names, 1)

    @pytest.mark.parametrize("name, bad", [
        # per-stage returns, the contract before stacking
        ("stage_cost", lambda xs, us: 0.0),
        ("path_constraints", lambda xs, us: np.array([us[0, 0] - 1.0])),
        ("stage_cost_grad", lambda xs, us: np.zeros(2)),
        ("stage_cost_hess", lambda xs, us: np.zeros((2, 2))),
        ("path_jac", lambda xs, us: np.array([[0.0, 1.0]])),
        # single-state terminal returns, the contract before stacking
        ("terminal_cost", lambda x: 0.0),
        ("terminal_cost_grad", lambda x: np.zeros(1)),
        ("terminal_cost_hess", lambda x: np.zeros((1, 1))),
    ])
    def test_transcribe_names_callable_with_wrong_stacked_shape(self, name, bad):
        ocp = OcpDefinition(**{**box1d_ocp().__dict__, name: bad})
        with pytest.raises(ConfigurationError, match=f"^{name} returned shape"):
            transcribe(ocp)


class TestBarrierObjective:
    def test_zero_cost_single_constraint(self):
        # F = 0, H = -1, mu = 0.1, log barrier -> 0.1 * (-log 1) = 0
        ocp = box1d_ocp()
        nlp = transcribe(ocp)
        z = np.array([0.0, 0.0, 0.0])  # H = u - 1 = -1
        cfg = BarrierConfig(mu=0.1)
        f_z = nlp.objective(z)
        val = eval_barrier_objective(nlp, z, cfg)
        assert val == pytest.approx(f_z + 0.0, abs=1e-15)

    def test_boundary_gives_infinity(self):
        nlp = transcribe(box1d_ocp())
        z = np.array([0.0, 1.0, 1.0])  # H = 0
        assert eval_barrier_objective(nlp, z, BarrierConfig(mu=0.1)) == float("inf")

    def test_hand_example_two_constraints(self):
        # F = 2, H = (-0.5, -2), mu = 1 -> 2 - log 0.5 - log 2 = 2
        ocp = OcpDefinition(
            n=1, m=1, horizon=1, x_init=np.zeros(1),
            dynamics=lambda xs, us: us.copy(),
            stage_cost=lambda xs, us: np.full(len(xs), 2.0),
            terminal_cost=lambda xs: np.zeros(len(xs)),
            path_constraints=lambda xs, us: np.hstack([us - 0.5, us - 2.0]),
            n_path=2,
            path_jac=lambda xs, us: np.broadcast_to([[0.0, 1.0], [0.0, 1.0]],
                                                    (len(xs), 2, 2)),
            **{**zero_derivatives(1, 1),
               "dynamics_jac_u": lambda xs, us: np.ones((len(xs), 1, 1))},
        )
        nlp = transcribe(ocp)
        z = np.zeros(3)  # u = 0: H = (-0.5, -2)
        val = eval_barrier_objective(nlp, z, BarrierConfig(mu=1.0))
        assert val == pytest.approx(2.0, abs=1e-14)

    def test_barrier_monotone_and_affine_in_mu(self):
        nlp = transcribe(box1d_ocp())
        z = np.array([0.0, 0.5, 0.5])
        h = nlp.inequalities(z)
        slope = float(np.sum(-np.log(-h)))
        vals = [eval_barrier_objective(nlp, z, BarrierConfig(mu=m))
                for m in (0.5, 1.0, 2.0)]
        f0 = nlp.objective(z)
        for mu, v in zip((0.5, 1.0, 2.0), vals):
            assert v == pytest.approx(f0 + mu * slope, rel=1e-13)

    def test_log_barrier_derivative_signs(self):
        # phi(s) = -log(-s) increases toward the boundary and is convex:
        # phi'(s) = -1/s > 0 and phi''(s) = 1/s^2 > 0 on s < 0.
        from qbsqp.nlp import log_barrier, log_barrier_d1, log_barrier_d2
        s = -np.logspace(-6, 2, 50)
        assert np.all(log_barrier_d1(s) > 0.0)
        assert np.all(log_barrier_d2(s) > 0.0)
        assert log_barrier(np.array([-1e-12]))[0] > log_barrier(np.array([-1.0]))[0]


class TestBuildQp:
    def test_pure_quadratic_identity(self):
        # F = 0.5*||z||^2, no inequalities -> Q = I, g = z
        nlp = transcribe(eqqp_ocp())
        rng = np.random.default_rng(1)
        z = rng.standard_normal(3)
        qp = build_qp(nlp, z, BarrierConfig(mu=1.0))
        np.testing.assert_allclose(qp.Q.dense(), np.eye(3), atol=1e-14)
        np.testing.assert_allclose(qp.g, z, atol=1e-14)
        eigs = np.linalg.eigvalsh(qp.Q.dense())
        assert eigs.min() > 0.0

    def test_scalar_barrier_terms(self):
        # H(z) = u - 1 at u = 0, mu = 1: phi''(-1) = 1 adds to Q_uu,
        # phi'(-1)*grad H = +1 * e_u... with phi'(s) = -1/s -> phi'(-1) = 1.
        nlp = transcribe(box1d_ocp())
        z = np.zeros(3)
        qp = build_qp(nlp, z, BarrierConfig(mu=1.0))
        sigma = qp.diagnostics["sigma"]
        # stage cost hess on u is 2; barrier adds 1
        assert qp.Q.dense()[1, 1] == pytest.approx(3.0 + sigma, rel=1e-12)
        # g_u = 2*(u-2) + mu*phi'(-1)*1 = -4 + 1
        assert qp.g[1] == pytest.approx(-3.0, rel=1e-12)

    def test_stagewise_barrier_curvature_equals_dense_product_bitwise(
            self, monkeypatch):
        nlp = transcribe(hiv_ocp(HivParameters(N=20)))
        z = hiv_initial_guess(nlp, 0.05)
        cfg = BarrierConfig(mu=1e-2)
        h, jac_h = nlp.inequalities(z), nlp.inequalities_jacobian(z)
        hess = nlp.objective_hessian(z)
        dense = (block_diag(*hess.stages, hess.tail)
                 + (jac_h.T * (cfg.mu * log_barrier_d2(h))) @ jac_h)
        expected = 0.5 * (dense + dense.T)
        qp = build_qp(nlp, z, cfg)
        assert qp.diagnostics["sigma"] == 0.0
        assert qp.Q.dense().tobytes() == expected.tobytes()

        factor, failures = qbsqp.nlp.cho_factor, iter([True])

        def failing_once(a):
            if next(failures, False):
                raise np.linalg.LinAlgError("forced")
            return factor(a)

        monkeypatch.setattr(qbsqp.nlp, "cho_factor", failing_once)
        qp = build_qp(nlp, z, cfg)  # one damping attempt
        assert qp.diagnostics["sigma"] == 1e-8
        assert qp.Q.dense().tobytes() == (expected + 1e-8 * np.eye(nlp.n_z)).tobytes()

    def test_build_qp_allocates_no_dense_q(self):
        # n_z = 3003 at N = 600: a dense Q alone takes 72 MB.
        nlp = transcribe(hiv_ocp(HivParameters(N=600)))
        z = hiv_initial_guess(nlp, 0.05)
        point = nlp.evaluate(z)
        tracemalloc.start()
        try:
            qp = build_qp(nlp, z, BarrierConfig(mu=1e-2), point=point)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert qp.n_z == nlp.n_z
        assert peak <= nlp.n_z ** 2 * 8 / 16

    def test_evaluate_and_build_qp_allocate_no_dense_jacobian(self):
        # n_z = 3003, m_eq = 1803 and n_ineq = 4203 at N = 600: a dense
        # jac_c takes 43 MB and a dense jac_h 101 MB.  The dynamics and
        # their Jacobians are computed before tracing, so that the peak
        # counts the transcription's arrays and not the RK4 pass's.
        ocp = hiv_ocp(HivParameters(N=600))
        z = hiv_initial_guess(transcribe(ocp), 0.05)
        xs, us = transcribe(ocp).split(z)

        def fixed(name):
            value = getattr(ocp, name)(xs[:-1], us)
            return lambda stage_xs, stage_us: value[:len(stage_xs)]

        nlp = transcribe(OcpDefinition(**{**ocp.__dict__, **{
            name: fixed(name)
            for name in ("dynamics", "dynamics_jac_x", "dynamics_jac_u")}}))
        tracemalloc.start()
        try:
            point = nlp.evaluate(z)
            qp = build_qp(nlp, z, BarrierConfig(mu=1e-2), point=point)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert qp.m_eq == nlp.m_eq
        assert peak <= nlp.n_z * nlp.m_eq * 8 / 16

    def test_point_products_equal_the_dense_jacobians(self):
        nlp = transcribe(hiv_ocp(HivParameters(N=20)))
        z = hiv_initial_guess(nlp, 0.05)
        point = nlp.evaluate(z)
        jac_c, jac_h = nlp.equalities_jacobian(z), nlp.inequalities_jacobian(z)
        np.testing.assert_array_equal(point.jac_c.dense(), jac_c)
        rng = np.random.default_rng(0)
        for jac, product, vector in (
                (jac_c, point.jac_c.dot, rng.standard_normal(nlp.n_z)),
                (jac_c.T, point.jac_c.tdot, rng.standard_normal(nlp.m_eq)),
                (jac_h, point.jac_h.dot, rng.standard_normal(nlp.n_z)),
                (jac_h.T, point.jac_h.tdot, rng.standard_normal(nlp.n_ineq))):
            bound = 1e-15 * (np.abs(jac) @ np.abs(vector))
            assert np.all(np.abs(product(vector) - jac @ vector) <= bound)

    def test_infeasible_point_rejected(self):
        nlp = transcribe(box1d_ocp())
        with pytest.raises(InfeasiblePointError):
            build_qp(nlp, np.array([0.0, 2.0, 2.0]), BarrierConfig(mu=1.0))

    def test_jacobian_band_structure_double_integrator(self):
        ocp, _ = double_integrator_ocp(horizon=3)
        nlp = transcribe(ocp)
        z = rollout(nlp, np.array([[0.3], [-0.2], [0.1]]))
        a = nlp.equalities_jacobian(z)

        # row block k touches only z_k and z_{k+1}
        n, m = 2, 1
        for k in range(3):
            rows = slice((k + 1) * n, (k + 2) * n)
            cols_ok = np.zeros(nlp.n_z, dtype=bool)
            off = nlp.stage_offsets[k]
            cols_ok[off:off + n + m] = True
            nxt = nlp.stage_offsets[k + 1]
            cols_ok[nxt:nxt + n] = True
            assert np.all(a[rows][:, ~cols_ok] == 0.0)

        # nonzero count from the known stage matrices:
        # pin I2 (2) + per stage: fx has 3 nonzeros, fu has 2, identity 2
        assert np.count_nonzero(a) == 2 + 3 * (3 + 2 + 2)

        a_fd = fd_jacobian(nlp.equalities, z)
        np.testing.assert_allclose(a, a_fd, atol=1e-8)

    def test_gradient_matches_fd_at_random_feasible_points(self):
        nlp = transcribe(box1d_ocp())
        rng = np.random.default_rng(2)
        cfg = BarrierConfig(mu=0.3)
        for _ in range(20):
            z = rng.standard_normal(3)
            z[1] = rng.uniform(-2.0, 0.9)  # strictly feasible control
            qp = build_qp(nlp, z, cfg)
            fd = fd_jacobian(
                lambda v: np.array([eval_barrier_objective(nlp, v, cfg)]), z)[0]
            denom = max(1.0, np.max(np.abs(fd)))
            assert np.max(np.abs(qp.g - fd)) / denom < 1e-5

    def test_hessian_matches_fd_for_linear_constraint_rows(self):
        # Quadratic costs + linear H rows: the Gauss-Newton + barrier Q is
        # the exact Hessian of the barrier objective.
        p = hiv_ocp()
        small = transcribe(
            OcpDefinition(
                **{**p.__dict__, "horizon": 2},
            )
        )
        z = rollout(small, np.full((2, 2), 0.3))
        cfg = BarrierConfig(mu=1e-2)
        qp = build_qp(small, z, cfg)
        h_fd = fd_hessian(lambda v: eval_barrier_objective(small, v, cfg), z)
        scale = max(1.0, np.max(np.abs(h_fd)))
        q = qp.Q.dense() - qp.diagnostics["sigma"] * np.eye(small.n_z)
        assert np.max(np.abs(q - h_fd)) / scale < 2e-4

    def test_damping_recovers_rank_deficient_hessian(self):
        nlp = transcribe(box1d_ocp())  # x-rows of the cost Hessian are zero
        qp = build_qp(nlp, np.zeros(3), BarrierConfig(mu=1.0))
        assert qp.diagnostics["sigma"] >= 1e-8
        assert np.linalg.eigvalsh(qp.Q.dense()).min() > 0.0

    def test_exhausted_damping_raises_singularity_error(self):
        # sigma stops at 1e-8 * 2^39 ~ 5.5e3, short of a -1e6 I stage Hessian.
        concave = OcpDefinition(**{
            **scalar_linear_ocp().__dict__,
            "stage_cost_hess": lambda xs, us: np.broadcast_to(-1e6 * np.eye(2),
                                                              (len(xs), 2, 2))})
        nlp = transcribe(concave)
        with pytest.raises(SingularityError,
                           match=rf"after {MAX_DAMPINGS + 1} Cholesky attempts "
                                 r"\(last sigma = 5\.498e\+03\)"):
            build_qp(nlp, np.zeros(nlp.n_z), BarrierConfig(mu=1.0))


class TestValidateDerivatives:
    @pytest.mark.parametrize("ocp", [
        hiv_ocp(), eqqp_ocp(), double_integrator_ocp()[0], box1d_ocp()],
        ids=["hiv", "eqqp", "double_integrator", "box1d"])
    def test_passes_on_correct_model(self, ocp):
        worst = validate_derivatives(ocp, n_points=2)
        expected = {"dynamics_jac_x", "dynamics_jac_u", "stage_cost_grad",
                    "terminal_cost_grad"}
        expected |= {"path_jac"} if ocp.n_path else set()
        expected |= {"terminal_jac"} if ocp.n_terminal else set()
        assert set(worst) == expected
        assert max(worst.values()) < 1e-5

    def test_catches_wrong_jacobian(self):
        ocp = scalar_linear_ocp()
        bad = OcpDefinition(**{**ocp.__dict__,
                               "dynamics_jac_x": lambda xs, us: 2.0 * np.ones((len(xs), 1, 1))})
        with pytest.raises(ConfigurationError, match="dynamics_jac_x"):
            validate_derivatives(bad)


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-6, 10.0), st.floats(-5.0, 0.95))
def test_barrier_affine_slope_property(mu, u):
    nlp = transcribe(box1d_ocp())
    z = np.array([0.0, u, u])
    h = nlp.inequalities(z)
    expected = nlp.objective(z) + mu * float(np.sum(-np.log(-h)))
    got = eval_barrier_objective(nlp, z, BarrierConfig(mu=mu))
    assert got == pytest.approx(expected, rel=1e-12)
