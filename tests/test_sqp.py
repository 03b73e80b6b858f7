import tracemalloc
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
from qbsqp.nlp import (
    BarrierConfig,
    InfeasiblePointError,
    OcpDefinition,
    eval_barrier_objective,
    rollout,
    transcribe,
)
from qbsqp.qschur import QuantumConfig, QuantumSchurSolver
from qbsqp.schur import ExactSchurSolver, NoisySchurSolver
from qbsqp.sqp import (
    TRIAL_BLOCK,
    NonDescentError,
    SqpConfig,
    backtrack,
    fraction_to_boundary,
    solve,
    update_barrier,
)
from oracles import toy_optimum


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
        dynamics=lambda xs, us: np.zeros((len(xs), 1)),
        dynamics_jac_x=lambda xs, us: np.zeros((len(xs), 1, 1)),
        dynamics_jac_u=lambda xs, us: np.zeros((len(xs), 1, 1)),
        stage_cost=lambda xs, us: xs[:, 0] ** 2,
        stage_cost_grad=lambda xs, us: np.hstack([2.0 * xs, np.zeros_like(us)]),
        stage_cost_hess=lambda xs, us: np.broadcast_to(np.diag([2.0, 0.0]),
                                                       (len(xs), 2, 2)),
        terminal_cost=lambda xs: np.zeros(len(xs)),
        terminal_cost_grad=lambda xs: np.zeros((len(xs), 1)),
        terminal_cost_hess=lambda xs: np.zeros((len(xs), 1, 1)),
    )


def terms_at(nlp, z):
    """(F, B) at z: the objective and barrier sum a line search starts from."""
    return tuple(eval_barrier_objective(nlp, z, BarrierConfig(mu=1.0), terms=True)[1:])


def scalar_backtrack(nlp, z, dz, g, mu, alpha_max, cfg):
    """Reference line search: F-bar at z evaluated afresh, then one
    evaluator call per trial.  Returns (alpha, F-bar, k, F-bar at z) or
    None."""
    slope = float(g @ dz)
    bcfg = BarrierConfig(mu=mu)
    f0 = eval_barrier_objective(nlp, z, bcfg)
    if np.linalg.norm(dz) == 0.0:
        return alpha_max, f0, 0, f0
    alpha = alpha_max
    for k in range(cfg.max_backtracks):
        f_trial = eval_barrier_objective(nlp, z + alpha * dz, bcfg)
        if f_trial <= f0 + cfg.armijo_c * alpha * slope:
            return alpha, f_trial, k, f0
        alpha *= cfg.backtrack_tau
    return None


def boundary_ocp():
    """H(z) = u - 1 and F = -u: from u = 0 along du = +2, alpha = 1 and 0.5
    cross the boundary and 0.25 is the first feasible trial."""
    return OcpDefinition(
        n=1, m=1, horizon=1, x_init=np.zeros(1),
        dynamics=lambda xs, us: us.copy(),
        dynamics_jac_x=lambda xs, us: np.zeros((len(xs), 1, 1)),
        dynamics_jac_u=lambda xs, us: np.ones((len(xs), 1, 1)),
        stage_cost=lambda xs, us: -us[:, 0],
        stage_cost_grad=lambda xs, us: np.hstack([np.zeros_like(xs), -np.ones_like(us)]),
        stage_cost_hess=lambda xs, us: np.zeros((len(xs), 2, 2)),
        terminal_cost=lambda xs: np.zeros(len(xs)),
        terminal_cost_grad=lambda xs: np.zeros((len(xs), 1)),
        terminal_cost_hess=lambda xs: np.zeros((len(xs), 1, 1)),
        path_constraints=lambda xs, us: us - 1.0,
        n_path=1,
        path_jac=lambda xs, us: np.broadcast_to([[[0.0, 1.0]]], (len(xs), 1, 2)),
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
        alpha, f_new, k, _, terms = backtrack(nlp, z, dz, g, 1.0, 1.0, cfg,
                                              terms_at(nlp, z))
        assert alpha == 1.0 and k == 0
        assert f_new == pytest.approx(0.0)
        assert terms == terms_at(nlp, z + dz)

    def test_boundary_crossing_backtracks_to_feasible(self):
        # alpha = 1 and 0.5 give H >= 0; the first feasible candidate 0.25
        # is accepted.
        nlp = transcribe(boundary_ocp())
        cfg = SqpConfig(armijo_c=0.1, backtrack_tau=0.5)
        z = np.zeros(3)
        dz = np.array([0.0, 2.0, 0.0])
        mu = 0.1
        g = np.array([0.0, -1.0 + mu, 0.0])  # cost slope plus barrier slope
        alpha, _, k, _, _ = backtrack(nlp, z, dz, g, mu, 1.0, cfg, terms_at(nlp, z))
        assert alpha == pytest.approx(0.25)
        assert k == 2

    def test_huge_backtrack_cap_allocates_one_block(self):
        # The trial ladder is built block by block, never max_backtracks
        # long: a search that stops at k = 2 under a cap of 1e7 allocates
        # about one block of trial points.
        nlp = transcribe(boundary_ocp())
        cfg = SqpConfig(armijo_c=0.1, backtrack_tau=0.5, max_backtracks=10**7)
        z = np.zeros(3)
        dz = np.array([0.0, 2.0, 0.0])
        g = np.array([0.0, -0.9, 0.0])
        terms = terms_at(nlp, z)
        tracemalloc.start()
        try:
            result = backtrack(nlp, z, dz, g, 0.1, 1.0, cfg, terms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result[2] == 2
        assert peak <= 8 * TRIAL_BLOCK * nlp.n_z + 64 * 1024

    def test_zero_step_accepted_immediately(self):
        nlp = transcribe(pure_state_cost_ocp())
        cfg = SqpConfig()
        terms = terms_at(nlp, np.ones(3))
        alpha, _, k, _, kept = backtrack(nlp, np.ones(3), np.zeros(3),
                                         np.ones(3), 1.0, 0.7, cfg, terms)
        assert alpha == 0.7 and k == 0 and kept == terms

    def test_nondescent_raises_unless_allowed(self):
        nlp = transcribe(pure_state_cost_ocp())
        cfg = SqpConfig()
        z = np.array([1.0, 0.0, 0.0])
        dz = np.array([1.0, 0.0, 0.0])
        g = np.array([2.0, 0.0, 0.0])
        terms = terms_at(nlp, z)
        with pytest.raises(NonDescentError):
            backtrack(nlp, z, dz, g, 1.0, 1.0, cfg, terms)
        # with the gate open, an ascent direction backs off to (at most)
        # a numerically null step rather than raising
        res = backtrack(nlp, z, dz, g, 1.0, 1.0, cfg, terms, allow_nondescent=True)
        assert res is None or res[0] <= 1e-12

    def test_exhaustion_returns_none(self):
        nlp = transcribe(pure_state_cost_ocp())
        cfg = SqpConfig(max_backtracks=3, armijo_c=0.9)
        # Huge step overshoots so far that 3 halvings cannot satisfy Armijo
        # with a demanding c.
        z = np.array([1.0, 0.0, 0.0])
        dz = np.array([-400.0, 0.0, 0.0])
        g = np.array([2.0, 0.0, 0.0])
        assert backtrack(nlp, z, dz, g, 1.0, 1.0, cfg, terms_at(nlp, z)) is None

    def test_every_search_of_a_null_step_solve_matches_scalar_loop(self, monkeypatch):
        # HIV N=8 at a clamped barrier floor: from i = 8 on, every step is a
        # null step after 27-42 backtracks, across block boundaries.  Each
        # search returns what the trial-by-trial loop returns, bitwise, and
        # hands on F and B of the accepted point.
        nlp = transcribe(hiv_ocp(HivParameters(N=8)))
        searches = []

        def checked(nlp, z, dz, g, mu, alpha_max, cfg, terms, **kwargs):
            result = backtrack(nlp, z, dz, g, mu, alpha_max, cfg, terms, **kwargs)
            assert result is not None
            assert result[:4] == scalar_backtrack(nlp, z, dz, g, mu, alpha_max, cfg)
            alpha, _, k, _, kept = result
            assert kept == terms_at(nlp, z + alpha * dz)
            searches.append(k)
            return result

        monkeypatch.setattr(qbsqp.sqp, "backtrack", checked)
        cfg = SqpConfig(**{**HIV_SQP_DEFAULTS, "mu_min": 5e-5, "mu_clamp": 1e-4,
                           "barrier_update": "geometric", "eps_opt": 1e-14,
                           "eps_feas": 1e-14, "max_outer_iters": 20})
        rep = solve(nlp, hiv_initial_guess(nlp, 0.05), cfg, NoisySchurSolver(0.0, seed=1))
        assert len(searches) == rep.n_iters == 20
        assert searches.count(0) >= 5 and min(k for k in searches if k) >= 20


class TestUpdateBarrier:
    def test_geometric(self):
        cfg = SqpConfig(beta=0.5, barrier_update="geometric")
        assert update_barrier(0.1, cfg, {}) == pytest.approx(0.05)

    def test_constant(self):
        cfg = SqpConfig(barrier_update="constant")
        assert update_barrier(0.1, cfg, {}) == 0.1

    def test_adaptive_stalls_hold_mu(self):
        cfg = SqpConfig(beta=0.5, barrier_update="adaptive")
        stalled = {"eq_norm": 2.0, "prev_eq_norm": 1.0,
                   "stat_norm": 0.5, "prev_stat_norm": 1.0}
        assert update_barrier(0.1, cfg, stalled) == 0.1
        improved = {"eq_norm": 0.5, "prev_eq_norm": 1.0,
                    "stat_norm": 0.5, "prev_stat_norm": 1.0}
        assert update_barrier(0.1, cfg, improved) == pytest.approx(0.05)

    def test_adaptive_shrinks_when_eq_norm_unchanged(self):
        # A rounding-level step can leave ||c|| bitwise equal; that is not
        # a stall.  Stationarity must still fall strictly.
        cfg = SqpConfig(beta=0.5, barrier_update="adaptive")
        level = {"eq_norm": 3.6e-6, "prev_eq_norm": 3.6e-6,
                 "stat_norm": 0.5, "prev_stat_norm": 1.0}
        assert update_barrier(0.1, cfg, level) == pytest.approx(0.05)
        level_stat = {**level, "stat_norm": 1.0}
        assert update_barrier(0.1, cfg, level_stat) == 0.1
        first = {**level, "prev_stat_norm": float("nan")}
        assert update_barrier(0.1, cfg, first) == 0.1

    def test_clamp_floor(self):
        cfg = SqpConfig(beta=0.5, barrier_update="geometric", mu_clamp=0.08)
        assert update_barrier(0.1, cfg, {}) == 0.08


class TestSolve:
    def test_eqqp_one_exact_iteration(self):
        toys = toy_problems()
        t = toys["eqqp"]
        nlp = transcribe(t.ocp)
        rep = solve(nlp, t.z0, SqpConfig(), ExactSchurSolver())
        assert rep.converged
        assert rep.n_iters == 1
        assert rep.records[1].alpha == 1.0
        assert np.linalg.norm(rep.z_star - toy_optimum("eqqp")) < 1e-10

    def test_convergence_is_judged_on_kkt_stationarity(self):
        # On the box1d barrier path the objective gradient stays near
        # |2(u - 2)| = 2; only the barrier-KKT residual vanishes.
        t = toy_problems()["box1d"]
        cfg = SqpConfig(mu0=1e-3, barrier_update="constant", eps_opt=1e-10)
        rep = solve(transcribe(t.ocp), t.z0, cfg, ExactSchurSolver())
        assert rep.converged
        assert rep.records[-1].kkt_stat_norm <= 1e-10
        assert rep.records[-1].grad_f_norm > 1.0

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
        cfg = SqpConfig(mu0=0.5, mu_min=1e-6)
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
        z_star = toy_optimum("double_integrator")
        dists = [np.linalg.norm(r.z - z_star) for r in rep.records]
        assert dists[1] < 1e-9 * max(1.0, dists[0])  # one Newton step suffices

    def test_noisy_interface_law_in_driver(self):
        toys = toy_problems()
        nlp = transcribe(toys["double_integrator"].ocp)
        solver = NoisySchurSolver(1e-4, seed=3)
        cfg = SqpConfig(mu0=1e-2, mu_min=1e-6, eps_opt=1e-10, max_outer_iters=40)
        rep = solve(nlp, toys["double_integrator"].z0, cfg, solver)
        # tail hovers near the optimum at the noise scale
        tail = np.linalg.norm(rep.z_star - toy_optimum("double_integrator"))
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

        evaluators = ("equalities", "equality_blocks",
                      "inequality_blocks", "objective_gradient")
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
        # the start, then per line search the first trial alone and, when
        # it fails, one block of the rest
        searches = sum(1 if rec.backtracks == 0 else 2 for rec in rep.records[1:])
        assert calls["barrier"] <= searches + 1


def test_hiv_quantum_solve_converges_like_exact():
    # HIV N=4 at eps' = 1e-10 from the start control of seed 1.
    nlp = transcribe(hiv_ocp(HivParameters(N=4)))
    z0 = hiv_initial_guess(nlp, 0.04 + 0.02 * np.random.default_rng(1).random())
    qcfg = QuantumConfig(eps_prime_Q=1e-10, eps_prime_S=1e-10, degree_cap=400001)
    rep = solve(nlp, z0, SqpConfig(**HIV_SQP_DEFAULTS), QuantumSchurSolver(qcfg))
    exact = solve(nlp, z0, SqpConfig(**HIV_SQP_DEFAULTS), ExactSchurSolver())
    assert rep.converged and rep.n_iters <= 12
    assert np.max(np.abs(rep.z_star - exact.z_star)) <= 1e-8


def test_config_validation():
    with pytest.raises(ValueError):
        SqpConfig(armijo_c=0.0)
    with pytest.raises(ValueError):
        SqpConfig(backtrack_tau=1.0)
    with pytest.raises(ValueError):
        SqpConfig(mu0=-1.0)
    with pytest.raises(ValueError):
        SqpConfig(barrier_update="bogus")
    for cap in (2.5, True, "60"):
        with pytest.raises(ValueError, match="max_backtracks must be an integer"):
            SqpConfig(max_backtracks=cap)
    with pytest.raises(ValueError, match="max_outer_iters = 0"):
        SqpConfig(max_outer_iters=0)
