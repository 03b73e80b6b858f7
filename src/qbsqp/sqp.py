"""Barrier SQP outer loop with a pluggable Schur-complement step solver.

Each outer iteration linearizes at the current iterate, builds the
barrier-augmented QP, delegates the KKT solve to the configured backend,
caps the step with the fraction-to-the-boundary rule, backtracks until
strict feasibility and the Armijo condition hold, and then updates the
barrier parameter.  The barrier's reduction factor BARRIER_BETA and the
line search's constants BOUNDARY_THETA, ARMIJO_C, BACKTRACK_TAU and
MAX_BACKTRACKS are fixed, not options.  No inner loop is run per barrier
value: one QP per outer iteration.  ``solve`` decides whether a step is
searched at all (its descent gate and one retry); ``backtrack`` searches
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .nlp import BarrierConfig, InfeasiblePointError, PointEval, TrajectoryNlp, \
    build_qp, eval_barrier_objective
from .schur import SchurStepSolver


# The factor by which a geometric or adaptive barrier update shrinks mu.
BARRIER_BETA = 0.5


@dataclass
class SqpConfig:
    """Outer-loop parameters; defaults are standard interior-point choices."""

    mu0: float = 1.0
    mu_min: float = 1e-8
    barrier_update: str = "geometric"  # geometric | constant | adaptive
    mu_clamp: float | None = None  # floor applied inside the update rule
    eps_opt: float = 1e-6
    eps_feas: float = 1e-8
    max_outer_iters: int = 200

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        for label in ("mu0", "mu_min", "eps_opt", "eps_feas"):
            if not 0.0 < getattr(self, label) < np.inf:
                raise ValueError(f"{label} must be positive and finite")
        if self.mu_clamp is not None and not np.isfinite(self.mu_clamp):
            raise ValueError("mu_clamp must be finite")
        cap = self.max_outer_iters
        if isinstance(cap, bool) or not isinstance(cap, int):
            raise ValueError(f"iteration cap max_outer_iters must be an integer, "
                             f"got {cap!r}")
        if cap <= 0:
            raise ValueError(f"iteration cap must be positive: max_outer_iters = {cap}")
        if self.barrier_update not in ("geometric", "constant", "adaptive"):
            raise ValueError(f"unknown barrier update {self.barrier_update!r}")


@dataclass
class IterateRecord:
    """One row of the solve trace (iterate 0 is the initial point)."""

    i: int
    z: np.ndarray
    mu: float
    alpha: float
    dz_norm: float
    eq_norm: float
    grad_f_norm: float
    f_bar: float
    h_max: float
    slope: float = float("nan")        # g^T dz of the step into this iterate
    kkt_stat_norm: float = float("nan")
    backtracks: int = 0
    infeas_ratio: float = float("nan")
    solver_diag: dict[str, Any] = field(default_factory=dict)


@dataclass
class SolveReport:
    records: list[IterateRecord]
    termination: str  # converged | mu_floor | iter_cap | line_search_failure
    z_star: np.ndarray
    mu_final: float
    message: str = ""

    @property
    def n_iters(self) -> int:
        return len(self.records) - 1


def fraction_to_boundary(h_vals: np.ndarray, h_dirderivs: np.ndarray,
                         theta: float) -> float:
    """Step cap keeping H strictly negative, scaled by theta.

    Returns min(1, theta * min over {j : dH_j > 0} of (-H_j)/dH_j); with no
    increasing constraint (or no constraint at all) the cap is 1.
    """
    rising = h_dirderivs > 0.0
    if not np.any(rising):
        return 1.0
    ratios = -h_vals[rising] / h_dirderivs[rising]
    return float(min(1.0, theta * np.min(ratios)))


# The line search's constants: the fraction-to-the-boundary scale, the
# Armijo constant, the step reduction per trial and the number of trials.
BOUNDARY_THETA = 0.995
ARMIJO_C = 1e-4
BACKTRACK_TAU = 0.5
MAX_BACKTRACKS = 60
# The largest number of trials per evaluator call.  At least MAX_BACKTRACKS,
# so that a search along a nondescent step makes at most two calls.
TRIAL_BLOCK = 64


def backtrack(
    nlp: TrajectoryNlp,
    z: np.ndarray,
    dz: np.ndarray,
    slope: float,
    mu: float,
    alpha_max: float,
    terms: tuple[float, float],
) -> tuple[float, float, int, tuple[float, float]] | None:
    """Largest alpha = alpha_max * BACKTRACK_TAU^k, k < MAX_BACKTRACKS,
    passing feasibility and the Armijo test with constant ARMIJO_C.

    ``slope`` is g^T dz, the barrier objective's directional derivative
    along dz.  ``terms`` holds the objective F and the barrier sum B at z,
    which do not depend on mu (see ``eval_barrier_objective``); the barrier
    objective at z is F + mu * B.  Returns (alpha, barrier objective at the
    accepted point, k, (F, B) at the accepted point) or None when
    MAX_BACKTRACKS trials are exhausted.  A zero step is
    accepted immediately (both conditions hold with equality).  Whether a
    step is worth searching is the caller's decision (see ``solve``): any
    step is searched as given.

    The first trial, alpha_max, is evaluated alone, so a search that
    accepts it builds no other.  The later trials are evaluated in blocks,
    each in one stacked call, and the first that passes is accepted: the
    result is that of trying them one by one.  Along a descent step the
    blocks grow 4, 16, then TRIAL_BLOCK, as such a search mostly stops
    within a few trials.  Along a nondescent step Armijo holds only through
    rounding, at a tiny alpha, so the second block is TRIAL_BLOCK.
    """
    f_z, b_z = terms
    f0 = f_z + mu * b_z
    if np.linalg.norm(dz) == 0.0:
        return alpha_max, f0, 0, terms

    bcfg = BarrierConfig(mu=mu)
    alpha = alpha_max
    k, block = 0, 1
    while k < MAX_BACKTRACKS:
        alphas = np.empty(min(block, MAX_BACKTRACKS - k))
        for j in range(len(alphas)):
            alphas[j] = alpha
            alpha *= BACKTRACK_TAU
        f_trial, f, b = eval_barrier_objective(  # +inf where H >= 0
            nlp, z + alphas[:, None] * dz, bcfg, terms=True)
        passed = np.flatnonzero(f_trial <= f0 + ARMIJO_C * alphas * slope)
        if passed.size:
            j = passed[0]
            return (float(alphas[j]), float(f_trial[j]), k + int(j),
                    (float(f[j]), float(b[j])))
        k += len(alphas)
        block = min(4 * block, TRIAL_BLOCK) if slope < 0.0 else TRIAL_BLOCK
    return None


def update_barrier(mu: float, cfg: SqpConfig, progress: dict[str, float]) -> float:
    """Barrier update rule: geometric, constant, or progress-adaptive.

    The adaptive rule reads this and the previous iterate's residual norms
    from `progress` (keys eq_norm, prev_eq_norm, stat_norm, prev_stat_norm).
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if cfg.barrier_update == "constant":
        new = mu
    elif cfg.barrier_update == "geometric":
        new = BARRIER_BETA * mu
    else:
        # Shrink when ||c|| did not rise and stationarity fell.  ||c|| need
        # not fall strictly: a rounding-level step can leave it bitwise
        # equal, and a strict test would then hold mu for good.
        improved = (progress["eq_norm"] <= progress["prev_eq_norm"]
                    and progress["stat_norm"] < progress["prev_stat_norm"])
        new = BARRIER_BETA * mu if improved else mu
    if cfg.mu_clamp is not None:
        new = max(new, cfg.mu_clamp)
    return new


def _stationarity_norm(point: PointEval, mu: float, lam: np.ndarray) -> float:
    """||grad F + mu * jac_h^T phi'(h) + jac_c^T lam|| from cached evaluations."""
    g = point.grad_f
    if point.h.size:
        d1 = BarrierConfig(mu=mu).funcs[1]
        g = g + point.jac_h.tdot(mu * d1(point.h))
    if lam.size:
        g = g + point.jac_c.tdot(lam)
    return float(np.linalg.norm(g))


def solve(
    nlp: TrajectoryNlp,
    z0: np.ndarray,
    cfg: SqpConfig,
    solver: SchurStepSolver,
) -> SolveReport:
    """Run the barrier loop from a strictly feasible start.

    The trace records every iterate; termination is one of converged,
    mu_floor, iter_cap, or line_search_failure.  The driver decides whether
    a step is searched.  At an equality-infeasible iterate every step is,
    since it also restores feasibility and g^T dz may legitimately be
    nonnegative.  At a feasible iterate a nonzero step with g^T dz >= 0
    signals a solver-quality failure: the backend is asked once more, at
    the same mu, and a second such step ends the solve.  Only the noisy
    backend draws fresh randomness for the retry; the exact and quantum
    backends return the same step again.  A step that is searched goes to
    ``backtrack``, which only backtracks.  Hard backend failures
    (singular systems, exhausted error budgets) propagate as exceptions.
    Constraint values, Jacobians and the objective gradient are evaluated
    once per accepted iterate (see ``TrajectoryNlp.evaluate``); the
    objective and barrier sum come from the line search's accepted trial.
    """
    z = np.asarray(z0, dtype=float).copy()
    point = nlp.evaluate(z)
    if not np.all(point.h < 0.0):  # a NaN start fails too
        raise InfeasiblePointError(
            f"initial point violates strict feasibility: max H = {np.max(point.h):.3e}")

    mu = cfg.mu0
    prev_eq = float(np.linalg.norm(point.c))
    f_bar, f_z, b_z = eval_barrier_objective(nlp, z, BarrierConfig(mu=mu), terms=True)
    terms = (f_z, b_z)  # F and B at z; each line search hands on the next
    records = [_record(0, z, mu, point, eq_norm=prev_eq, alpha=0.0, dz_norm=0.0,
                       f_bar=f_bar)]

    # Short-circuit when the start already meets the convergence criteria.
    if _converged(records[0], _stationarity_norm(point, mu, np.zeros(0)), cfg):
        return SolveReport(records=records, termination="converged",
                           z_star=z, mu_final=mu, message="initial point optimal")

    termination = None
    message = ""
    i = 0
    prev_stat = float("nan")

    while mu > cfg.mu_min:
        if i >= cfg.max_outer_iters:
            termination = "iter_cap"
            break

        qp = build_qp(nlp, z, BarrierConfig(mu=mu), point=point)

        restoring = prev_eq > cfg.eps_feas  # prev_eq is ||c(z)|| at this z
        for _ in range(2):
            sol = solver.step(qp)
            slope = float(qp.g @ sol.dz)
            if restoring or not slope >= 0.0 or np.linalg.norm(sol.dz) == 0.0:
                break  # searched; a NaN slope too, which then exhausts
        else:
            if _converged(records[-1], _stationarity_norm(point, mu, sol.lam), cfg):
                termination = "converged"
                message = "stationary at non-descent abort"
            else:
                termination = "line_search_failure"
                message = f"non-descent direction twice: g^T dz = {slope:.3e} >= 0"
            break

        alpha_max = fraction_to_boundary(point.h, point.jac_h.dot(sol.dz),
                                         BOUNDARY_THETA)
        accepted = backtrack(nlp, z, sol.dz, slope, mu, alpha_max, terms)
        if accepted is None:
            termination = "line_search_failure"
            message = f"backtracking exhausted {MAX_BACKTRACKS} trials"
            break

        alpha, f_new, n_bt, terms = accepted
        del qp  # frees Q and its factor before the next evaluation and assembly
        z = z + alpha * sol.dz
        point = nlp.evaluate(z)

        eq_norm = float(np.linalg.norm(point.c))
        stat_norm = _stationarity_norm(point, mu, sol.lam)
        infeas_ratio = eq_norm / prev_eq if prev_eq > 0.0 else float("nan")
        records.append(_record(
            i + 1, z, mu, point,
            eq_norm=eq_norm,
            alpha=alpha,
            dz_norm=float(np.linalg.norm(sol.dz)),
            f_bar=f_new,
            slope=slope,
            kkt_stat_norm=stat_norm,
            backtracks=n_bt,
            infeas_ratio=infeas_ratio,
            solver_diag=dict(sol.diagnostics),
        ))

        if _converged(records[-1], stat_norm, cfg):
            termination = "converged"
            break

        progress = {"eq_norm": eq_norm, "prev_eq_norm": prev_eq,
                    "stat_norm": stat_norm, "prev_stat_norm": prev_stat}
        mu = update_barrier(mu, cfg, progress)
        prev_eq, prev_stat = eq_norm, stat_norm
        i += 1

    if termination is None:
        termination = "mu_floor"
    return SolveReport(records=records, termination=termination,
                       z_star=z, mu_final=mu, message=message)


def _record(i, z, mu, point, **fields):
    """Trace row for iterate i; grad_f_norm and h_max come from `point`."""
    return IterateRecord(
        i=i,
        z=z.copy(),
        mu=mu,
        grad_f_norm=float(np.linalg.norm(point.grad_f)),
        h_max=float(np.max(point.h)) if point.h.size else float("-inf"),
        **fields,
    )


def _converged(rec: IterateRecord, stat_norm: float, cfg: SqpConfig) -> bool:
    """KKT test: ||c|| of the iterate `rec` records and the barrier-KKT
    stationarity ``stat_norm`` there within eps_feas and eps_opt."""
    return rec.eq_norm <= cfg.eps_feas and stat_norm <= cfg.eps_opt
