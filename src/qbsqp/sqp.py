"""Barrier SQP outer loop with a pluggable Schur-complement step solver.

Each outer iteration linearizes at the current iterate, builds the
barrier-augmented QP, delegates the KKT solve to the configured backend,
caps the step with the fraction-to-the-boundary rule, backtracks until
strict feasibility and the Armijo condition hold, and then updates the
barrier parameter.  No inner loop is run per barrier value: one QP per
outer iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .nlp import BarrierConfig, InfeasiblePointError, PointEval, TrajectoryNlp, \
    build_qp, eval_barrier_objective
from .schur import SchurSolution, SchurStepSolver


class NonDescentError(RuntimeError):
    """The supplied step is not a descent direction for the barrier objective."""


@dataclass
class SqpConfig:
    """Outer-loop parameters; defaults are standard interior-point choices."""

    mu0: float = 1.0
    mu_min: float = 1e-8
    barrier_update: str = "geometric"  # geometric | constant | adaptive
    beta: float = 0.5
    mu_clamp: float | None = None  # floor applied inside the update rule
    armijo_c: float = 1e-4
    backtrack_tau: float = 0.5
    boundary_theta: float = 0.995
    eps_opt: float = 1e-6
    eps_feas: float = 1e-8
    max_outer_iters: int = 200
    max_backtracks: int = 60

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not (0.0 < self.mu0 < np.inf and 0.0 < self.mu_min < np.inf):
            raise ValueError("mu0 and mu_min must be positive and finite")
        if self.mu_clamp is not None and not np.isfinite(self.mu_clamp):
            raise ValueError("mu_clamp must be finite")
        for label, val in (("armijo_c", self.armijo_c),
                           ("backtrack_tau", self.backtrack_tau),
                           ("boundary_theta", self.boundary_theta),
                           ("beta", self.beta)):
            if not 0.0 < val < 1.0:
                raise ValueError(f"{label} must lie strictly inside (0, 1)")
        if not (0.0 < self.eps_opt < np.inf and 0.0 < self.eps_feas < np.inf):
            raise ValueError("tolerances must be positive and finite")
        for label in ("max_outer_iters", "max_backtracks"):
            cap = getattr(self, label)
            if isinstance(cap, bool) or not isinstance(cap, int):
                raise ValueError(f"iteration cap {label} must be an integer, "
                                 f"got {cap!r}")
            if cap <= 0:
                raise ValueError(f"iteration caps must be positive: {label} = {cap}")
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
    armijo_rhs: float = float("nan")   # F_bar_prev + c*alpha*slope
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

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


def fraction_to_boundary(
    z: np.ndarray,
    dz: np.ndarray,
    h_vals: np.ndarray,
    h_dirderivs: np.ndarray,
    theta: float,
) -> float:
    """Step cap keeping H strictly negative, scaled by theta.

    Returns min(1, theta * min over {j : dH_j > 0} of (-H_j)/dH_j); with no
    increasing constraint the cap is 1.
    """
    rising = h_dirderivs > 0.0
    if not np.any(rising):
        return 1.0
    ratios = -h_vals[rising] / h_dirderivs[rising]
    return float(min(1.0, theta * np.min(ratios)))


# Trials per evaluator call after the first.  At least the default
# max_backtracks, so that a default search makes at most two calls.
TRIAL_BLOCK = 64


def backtrack(
    nlp: TrajectoryNlp,
    z: np.ndarray,
    dz: np.ndarray,
    g: np.ndarray,
    mu: float,
    alpha_max: float,
    cfg: SqpConfig,
    terms: tuple[float, float],
    *,
    allow_nondescent: bool = False,
) -> tuple[float, float, int, float, tuple[float, float]] | None:
    """Largest alpha in {alpha_max * tau^k} passing feasibility and Armijo.

    ``terms`` holds the objective F and the barrier sum B at z, which do not
    depend on mu (see ``eval_barrier_objective``); the barrier objective at
    z is F + mu * B.  Returns (alpha, barrier objective at the accepted
    point, k, barrier objective at z, (F, B) at the accepted point) or None
    when max_backtracks trials are exhausted.  A zero step is accepted
    immediately (both conditions hold with equality).  Raises
    NonDescentError for a nonzero step with g^T dz >= 0: that signals
    solver-quality failure upstream.  ``allow_nondescent`` skips that
    gate and runs the acceptance loop as printed; the driver enables it
    while the iterate is equality-infeasible, where the step trades
    barrier descent against feasibility restoration.

    The first trial, alpha_max, is evaluated alone, so a search that
    accepts it builds no other.  The later trials are evaluated TRIAL_BLOCK
    at a time in one stacked call, and the first that passes is accepted:
    the result is that of trying them one by one.
    """
    slope = float(g @ dz)
    f_z, b_z = terms
    f0 = f_z + mu * b_z
    if np.linalg.norm(dz) == 0.0:
        return alpha_max, f0, 0, f0, terms
    if slope >= 0.0 and not allow_nondescent:
        raise NonDescentError(f"g^T dz = {slope:.3e} >= 0")

    bcfg = BarrierConfig(mu=mu)
    alpha = alpha_max
    k = 0
    while k < cfg.max_backtracks:
        alphas = np.empty(min(TRIAL_BLOCK if k else 1, cfg.max_backtracks - k))
        for j in range(len(alphas)):
            alphas[j] = alpha
            alpha *= cfg.backtrack_tau
        f_trial, f, b = eval_barrier_objective(  # +inf where H >= 0
            nlp, z + alphas[:, None] * dz, bcfg, terms=True)
        passed = np.flatnonzero(f_trial <= f0 + cfg.armijo_c * alphas * slope)
        if passed.size:
            j = passed[0]
            return (float(alphas[j]), float(f_trial[j]), k + int(j), f0,
                    (float(f[j]), float(b[j])))
        k += len(alphas)
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
        new = cfg.beta * mu
    else:
        # Shrink when ||c|| did not rise and stationarity fell.  ||c|| need
        # not fall strictly: a rounding-level step can leave it bitwise
        # equal, and a strict test would then hold mu for good.
        improved = (progress["eq_norm"] <= progress["prev_eq_norm"]
                    and progress["stat_norm"] < progress["prev_stat_norm"])
        new = cfg.beta * mu if improved else mu
    if cfg.mu_clamp is not None:
        new = max(new, cfg.mu_clamp)
    return new


def _stationarity_norm(point: PointEval, mu: float, lam: np.ndarray) -> float:
    """||grad F + mu * jac_h^T phi'(h) + jac_c^T lam|| from cached evaluations."""
    g = point.grad_f
    if point.h.size:
        d1 = BarrierConfig(mu=mu).funcs[1]
        g = g + point.jac_h_tdot(mu * d1(point.h))
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
    mu_floor, iter_cap, or line_search_failure.  Hard backend failures
    (singular systems, exhausted error budgets) propagate as exceptions.
    Constraint values, Jacobians and the objective gradient are evaluated
    once per accepted iterate (see ``TrajectoryNlp.evaluate``); the
    objective and barrier sum come from the line search's accepted trial.
    """
    z = np.asarray(z0, dtype=float).copy()
    point = nlp.evaluate(z)
    if point.h.size and np.max(point.h) >= 0.0:
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

        sol = solver.step(qp)
        retried = False
        accepted = None
        # While the iterate is equality-infeasible the step also restores
        # feasibility and g^T dz may legitimately be nonnegative; run the
        # acceptance loop as printed.  At feasible iterates a non-descent
        # direction signals solver-quality failure instead.
        restoring = prev_eq > cfg.eps_feas  # prev_eq is ||c(z)|| at this z
        while True:
            try:
                if point.h.size:
                    alpha_max = fraction_to_boundary(
                        z, sol.dz, point.h, point.jac_h_dot(sol.dz), cfg.boundary_theta)
                else:
                    alpha_max = 1.0
                accepted = backtrack(nlp, z, sol.dz, qp.g, mu, alpha_max, cfg,
                                     terms, allow_nondescent=restoring)
                break
            except NonDescentError as exc:
                # Recoverable once for probabilistic backends: re-invoke with
                # fresh randomness, mu untouched.  A second failure aborts.
                if retried:
                    stat_here = _stationarity_norm(point, mu, sol.lam)
                    if _converged(records[-1], stat_here, cfg):
                        termination = "converged"
                        message = "stationary at non-descent abort"
                    else:
                        termination = "line_search_failure"
                        message = f"non-descent direction twice: {exc}"
                    break
                retried = True
                sol = solver.step(qp)

        if termination is not None:
            break
        if accepted is None:
            termination = "line_search_failure"
            message = f"backtracking exhausted {cfg.max_backtracks} trials"
            break

        alpha, f_new, n_bt, f_old, terms = accepted
        slope = float(qp.g @ sol.dz)
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
            armijo_rhs=f_old + cfg.armijo_c * alpha * slope,
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
