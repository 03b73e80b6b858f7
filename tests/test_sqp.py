from collections import Counter

import numpy as np
import pytest

import qbsqp.nlp
import qbsqp.schur
import qbsqp.sqp
from qbsqp.experiments import HIV_SQP_DEFAULTS
from qbsqp.models import (
    HivParameters,
    box1d_ocp,
    double_integrator_ocp,
    eqqp_ocp,
    hiv_initial_guess,
    hiv_ocp,
    toy_problems,
)
from qbsqp.nlp import InfeasiblePointError, OcpDefinition, rollout, transcribe
from qbsqp.schur import ExactSchurSolver, NoisySchurSolver
from qbsqp.sqp import (
    NonDescentError,
    SqpConfig,
    backtrack,
    fraction_to_boundary,
    solve,
    update_barrier,
)


class TestFractionToBoundary:
    def test_no_rising_constraint_returns_one(self):
        a = fraction_to_boundary(np.zeros(2), np.zeros(2),
                                 np.array([-1.0, -3.0]), np.array([-1.0, 0.0]), 0.995)
        assert a == 1.0

    def test_formula_value(self):
        # H = -1, dH = 2, theta = 0.995 -> min(1, 0.995 * 1/2) = 0.4975
        a = fraction_to_boundary(np.zeros(1), np.zeros(1),
                                 np.array([-1.0]), np.array([2.0]), 0.995)
        assert a == pytest.approx(0.4975, abs=1e-15)

    def test_capped_at_one(self):
        # H = -10, dH = 1, theta = 0.9 -> min(1, 9) = 1
        a = fraction_to_boundary(np.zeros(1), np.zeros(1),
                                 np.array([-10.0]), np.array([1.0]), 0.9)
        assert a == 1.0


def pure_state_cost_ocp():
    """F(z) = x0^2; no constraints. Used for scalar backtracking checks."""
    return OcpDefinition(
        n=1, m=1, horizon=1, x_init=np.array([1.0]),
        dynamics=lambda x, u: np.zeros(1),
        dynamics_jac_x=lambda x, u: np.zeros((1, 1)),
        dynamics_jac_u=lambda x, u: np.zeros((1, 1)),
        stage_cost=lambda x, u: float(x[0] ** 2),
        stage_cost_grad=lambda x, u: np.array([2.0 * x[0], 0.0]),
        stage_cost_hess=lambda x, u: np.diag([2.0, 0.0]),
        terminal_cost=lambda x: 0.0,
    )


class TestBacktrack:
    def test_scalar_quadratic_accepts_full_step(self):
        # F(z) = z^2 at z = 1, dz = -1, g = 2, c = 0.1:
        # F(0) = 0 <= 1 + 0.1*1*(-2) = 0.8 -> alpha = 1
        nlp = transcribe(pure_state_cost_ocp())
        cfg = SqpConfig(armijo_c=0.1)
        z = np.array([1.0, 0.0, 0.0])
        dz = np.array([-1.0, 0.0, 0.0])
        g = np.array([2.0, 0.0, 0.0])
        alpha, f_new, k, _ = backtrack(nlp, z, dz, g, 1.0, 1.0, cfg)
        assert alpha == 1.0 and k == 0
        assert f_new == pytest.approx(0.0)

    def test_boundary_crossing_backtracks_to_feasible(self):
        # H(z) = u - 1 from u = 0 with dz_u = +2: alpha = 1 and 0.5 give
        # H >= 0; the first feasible candidate 0.25 is accepted.
        ocp = OcpDefinition(
            n=1, m=1, horizon=1, x_init=np.zeros(1),
            dynamics=lambda x, u: np.array([u[0]]),
            dynamics_jac_x=lambda x, u: np.zeros((1, 1)),
            dynamics_jac_u=lambda x, u: np.ones((1, 1)),
            stage_cost=lambda x, u: -float(u[0]),
            stage_cost_grad=lambda x, u: np.array([0.0, -1.0]),
            stage_cost_hess=lambda x, u: np.zeros((2, 2)),
            terminal_cost=lambda x: 0.0,
            path_constraints=lambda x, u: np.array([u[0] - 1.0]),
            n_path=1,
            path_jac=lambda x, u: np.array([[0.0, 1.0]]),
        )
        nlp = transcribe(ocp)
        cfg = SqpConfig(armijo_c=0.1, backtrack_tau=0.5)
        z = np.zeros(3)
        dz = np.array([0.0, 2.0, 0.0])
        mu = 0.1
        g = np.array([0.0, -1.0 + mu, 0.0])  # cost slope plus barrier slope
        alpha, _, k, _ = backtrack(nlp, z, dz, g, mu, 1.0, cfg)
        assert alpha == pytest.approx(0.25)
        assert k == 2

    def test_zero_step_accepted_immediately(self):
        nlp = transcribe(pure_state_cost_ocp())
        cfg = SqpConfig()
        alpha, _, k, _ = backtrack(nlp, np.ones(3), np.zeros(3),
                                   np.ones(3), 1.0, 0.7, cfg)
        assert alpha == 0.7 and k == 0

    def test_nondescent_raises_unless_allowed(self):
        nlp = transcribe(pure_state_cost_ocp())
        cfg = SqpConfig()
        z = np.array([1.0, 0.0, 0.0])
        dz = np.array([1.0, 0.0, 0.0])
        g = np.array([2.0, 0.0, 0.0])
        with pytest.raises(NonDescentError):
            backtrack(nlp, z, dz, g, 1.0, 1.0, cfg)
        # with the gate open, an ascent direction backs off to (at most)
        # a numerically null step rather than raising
        res = backtrack(nlp, z, dz, g, 1.0, 1.0, cfg, allow_nondescent=True)
        assert res is None or res[0] <= 1e-12

    def test_exhaustion_returns_none(self):
        nlp = transcribe(pure_state_cost_ocp())
        cfg = SqpConfig(max_backtracks=3, armijo_c=0.9)
        # Huge step overshoots so far that 3 halvings cannot satisfy Armijo
        # with a demanding c.
        z = np.array([1.0, 0.0, 0.0])
        dz = np.array([-400.0, 0.0, 0.0])
        g = np.array([2.0, 0.0, 0.0])
        assert backtrack(nlp, z, dz, g, 1.0, 1.0, cfg) is None


class TestUpdateBarrier:
    def test_geometric(self):
        cfg = SqpConfig(beta=0.5, barrier_update="geometric")
        assert update_barrier(0.1, cfg, {}) == pytest.approx(0.05)

    def test_constant(self):
        cfg = SqpConfig(barrier_update="constant")
        assert update_barrier(0.1, cfg, {}) == 0.1

    def test_adaptive_stalls_hold_mu(self):
        cfg = SqpConfig(beta=0.5, barrier_update="adaptive")
        stalled = {"eq_decreased": False, "stat_decreased": True}
        assert update_barrier(0.1, cfg, stalled) == 0.1
        improved = {"eq_decreased": True, "stat_decreased": True}
        assert update_barrier(0.1, cfg, improved) == pytest.approx(0.05)

    def test_clamp_floor(self):
        cfg = SqpConfig(beta=0.5, barrier_update="geometric", mu_clamp=0.08)
        assert update_barrier(0.1, cfg, {}) == 0.08


class TestSolve:
    def test_eqqp_one_exact_iteration(self):
        toys = toy_problems()
        t = toys["eqqp"]
        nlp = transcribe(t.ocp)
        rep = solve(nlp, t.z0, SqpConfig(convergence_check="kkt"), ExactSchurSolver())
        assert rep.converged
        assert rep.n_iters == 1
        assert rep.records[1].alpha == 1.0
        assert np.linalg.norm(rep.z_star - t.z_star) < 1e-10

    def test_already_optimal_short_circuits(self):
        ocp, _ = double_integrator_ocp(horizon=4)
        ocp = OcpDefinition(**{**ocp.__dict__, "x_init": np.zeros(2)})
        nlp = transcribe(ocp)
        z0 = rollout(nlp, np.zeros((4, 1)))  # the all-zero optimal trajectory
        rep = solve(nlp, z0, SqpConfig(), ExactSchurSolver())
        assert rep.converged
        assert rep.n_iters == 0
        np.testing.assert_array_equal(rep.z_star, z0)

    def test_infeasible_start_raises(self):
        nlp = transcribe(box1d_ocp())
        with pytest.raises(InfeasiblePointError):
            solve(nlp, np.array([0.0, 1.5, 1.5]), SqpConfig(), ExactSchurSolver())

    def test_strict_feasibility_and_armijo_ledger(self):
        toys = toy_problems()
        nlp = transcribe(toys["box1d"].ocp)
        cfg = SqpConfig(mu0=0.5, mu_min=1e-6, convergence_check="kkt")
        rep = solve(nlp, toys["box1d"].z0, cfg, NoisySchurSolver(1e-3, seed=0))
        assert len(rep.records) > 2
        for rec in rep.records:
            assert rec.h_max < 0.0
        for rec in rep.records[1:]:
            if not np.isnan(rec.armijo_rhs):
                assert rec.f_bar <= rec.armijo_rhs + 1e-12

    def test_geometric_mu_schedule_exact(self):
        toys = toy_problems()
        nlp = transcribe(toys["box1d"].ocp)
        cfg = SqpConfig(mu0=1.0, beta=0.5, mu_min=1e-4)
        rep = solve(nlp, toys["box1d"].z0, cfg, ExactSchurSolver())
        mus = [r.mu for r in rep.records[1:]]
        for a, b in zip(mus, mus[1:]):
            assert b == 0.5 * a

    def test_iter_cap_termination(self):
        toys = toy_problems()
        nlp = transcribe(toys["box1d"].ocp)
        cfg = SqpConfig(mu0=1.0, barrier_update="constant", max_outer_iters=3,
                        eps_opt=1e-14, eps_feas=1e-14)
        rep = solve(nlp, toys["box1d"].z0, cfg, ExactSchurSolver())
        assert rep.termination == "iter_cap"
        assert rep.n_iters == 3

    def test_exact_contraction_on_eqqp_family(self):
        # distance to the optimum contracts geometrically with exact steps
        ocp, _ = double_integrator_ocp(horizon=6)
        nlp = transcribe(ocp)
        t = toy_problems()["double_integrator"]
        nlp_t = transcribe(t.ocp)
        cfg = SqpConfig(mu0=1e-3, barrier_update="constant", max_outer_iters=6,
                        eps_opt=1e-13, eps_feas=1e-13)
        rep = solve(nlp_t, t.z0, cfg, ExactSchurSolver())
        dists = [np.linalg.norm(r.z - t.z_star) for r in rep.records]
        assert dists[1] < 1e-9 * max(1.0, dists[0])  # one Newton step suffices

    def test_noisy_interface_law_in_driver(self):
        toys = toy_problems()
        nlp = transcribe(toys["double_integrator"].ocp)
        solver = NoisySchurSolver(1e-4, seed=3)
        cfg = SqpConfig(mu0=1e-2, mu_min=1e-6, convergence_check="kkt",
                        eps_opt=1e-10, max_outer_iters=40)
        rep = solve(nlp, toys["double_integrator"].z0, cfg, solver)
        # tail hovers near the optimum at the noise scale
        tail = np.linalg.norm(rep.z_star - toys["double_integrator"].z_star)
        assert tail < 50 * solver.eps_dz

    def test_mu_clamp_keeps_floor(self):
        toys = toy_problems()
        nlp = transcribe(toys["box1d"].ocp)
        cfg = SqpConfig(mu0=1e-2, mu_min=1e-9, mu_clamp=1e-4,
                        barrier_update="geometric", max_outer_iters=20,
                        eps_opt=1e-14, eps_feas=1e-14)
        rep = solve(nlp, toys["box1d"].z0, cfg, ExactSchurSolver())
        assert rep.termination == "iter_cap"
        assert rep.records[-1].mu == pytest.approx(1e-4)

    def test_each_quantity_evaluated_once_per_iterate(self, monkeypatch):
        nlp = transcribe(hiv_ocp(HivParameters(N=8)))
        z0 = hiv_initial_guess(nlp, 0.05)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        evaluators = ("equalities", "equalities_jacobian",
                      "inequalities_jacobian", "objective_gradient")
        for name in evaluators:
            monkeypatch.setattr(nlp, name, counted(name, getattr(nlp, name)))
        for mod in (qbsqp.nlp, qbsqp.schur):
            monkeypatch.setattr(mod, "cho_factor",
                                counted("cho_factor", mod.cho_factor))
        monkeypatch.setattr(qbsqp.sqp, "eval_barrier_objective",
                            counted("barrier", qbsqp.sqp.eval_barrier_objective))

        rep = solve(nlp, z0, SqpConfig(**HIV_SQP_DEFAULTS), ExactSchurSolver())
        n = rep.n_iters
        assert rep.converged and n > 0
        for name in evaluators:
            assert calls[name] <= n + 1, (name, calls[name], n)
        # one factorization of Q (in build_qp) and one of S per iteration
        assert calls["cho_factor"] <= 2 * n
        # the start, one f0 per line search, and the line-search trials
        trials = sum(rec.backtracks + 1 for rec in rep.records[1:])
        assert calls["barrier"] <= trials + n + 1


def test_config_validation():
    with pytest.raises(ValueError):
        SqpConfig(armijo_c=0.0)
    with pytest.raises(ValueError):
        SqpConfig(backtrack_tau=1.0)
    with pytest.raises(ValueError):
        SqpConfig(mu0=-1.0)
    with pytest.raises(ValueError):
        SqpConfig(barrier_update="bogus")
