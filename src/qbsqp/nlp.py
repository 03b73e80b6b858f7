"""Multiple-shooting transcription and barrier-augmented QP assembly.

A finite-horizon optimal control problem is transcribed into a dense NLP
over the stacked decision vector

    z = [x_0, u_0, x_1, u_1, ..., x_{N-1}, u_{N-1}, x_N],

with equality constraints stacking the initial-state pin first and then
the shooting gaps x_{k+1} - f(x_k, u_k), and inequality constraints
stacking the stage rows c(x_k, u_k) followed by the terminal rows
c_N(x_N).  The barrier-augmented objective, its gradient, and the
Gauss-Newton Hessian feed the quadratic subproblem of each SQP iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, LinAlgError

from .schur import QpData


class ConfigurationError(ValueError):
    """A model callable returned data inconsistent with the declared sizes."""


class InfeasiblePointError(ValueError):
    """Operation requires H(z) < 0 componentwise."""


# ---------------------------------------------------------------------------
# finite differences (fallback for models that omit analytic derivatives)

FD_STEP = 1e-6


def _fd_steps(x: np.ndarray) -> np.ndarray:
    return FD_STEP * (1.0 + np.abs(x))


def fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian with per-component steps 1e-6*(1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(fun(x), dtype=float))
    jac = np.zeros((f0.size, x.size))
    h = _fd_steps(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        jac[:, i] = (np.atleast_1d(fun(xp)) - np.atleast_1d(fun(xm))) / (2.0 * h[i])
    return jac


def fd_gradient(fun: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    return fd_jacobian(lambda v: np.array([fun(v)]), x)[0]


def fd_hessian(fun: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    grad = lambda v: fd_gradient(fun, v)
    hess = fd_jacobian(grad, x)
    return 0.5 * (hess + hess.T)


# ---------------------------------------------------------------------------
# barrier functions

def log_barrier(s: np.ndarray) -> np.ndarray:
    return -np.log(-s)


def log_barrier_d1(s: np.ndarray) -> np.ndarray:
    return -1.0 / s


def log_barrier_d2(s: np.ndarray) -> np.ndarray:
    return 1.0 / s**2


_LOG_BARRIER = (log_barrier, log_barrier_d1, log_barrier_d2)


@dataclass(frozen=True)
class BarrierConfig:
    """Weight mu of the log barrier mu * sum phi(H_j), phi(s) = -log(-s)."""

    mu: float

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError("barrier parameter mu must be positive")

    @property
    def funcs(self):
        """phi and its first two derivatives."""
        return _LOG_BARRIER


# ---------------------------------------------------------------------------
# problem definition

@dataclass(frozen=True)
class OcpDefinition:
    """Discrete-time optimal control problem over a fixed horizon.

    Dynamics, costs and constraints are plain callables on (x, u) for stage
    quantities and on (x,) for terminal quantities.  Analytic derivatives
    are optional; transcription falls back to central finite differences
    for any that are omitted.
    """

    n: int
    m: int
    horizon: int
    x_init: np.ndarray
    dynamics: Callable
    stage_cost: Callable
    terminal_cost: Callable
    dynamics_jac_x: Callable | None = None
    dynamics_jac_u: Callable | None = None
    stage_cost_grad: Callable | None = None   # -> (n + m,)
    stage_cost_hess: Callable | None = None   # -> (n + m, n + m); GN form for LS costs
    terminal_cost_grad: Callable | None = None
    terminal_cost_hess: Callable | None = None
    path_constraints: Callable | None = None  # c(x, u) -> (n_path,)
    n_path: int = 0
    path_jac: Callable | None = None          # -> (n_path, n + m)
    terminal_constraints: Callable | None = None
    n_terminal: int = 0
    terminal_jac: Callable | None = None      # -> (n_terminal, n)
    name: str = "ocp"

    def __post_init__(self):
        for label, value in (("n", self.n), ("m", self.m), ("horizon", self.horizon)):
            if value <= 0:
                raise ConfigurationError(f"{label} must be a positive integer")
        if np.asarray(self.x_init).shape != (self.n,):
            raise ConfigurationError("x_init must have length n")
        if self.path_constraints is not None and self.n_path <= 0:
            raise ConfigurationError("n_path must be declared with path_constraints")
        if self.terminal_constraints is not None and self.n_terminal <= 0:
            raise ConfigurationError("n_terminal must be declared with terminal_constraints")


def _check_shape(value, shape, who):
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ConfigurationError(f"{who} returned shape {arr.shape}, expected {shape}")
    return arr


@dataclass(frozen=True)
class PointEval:
    """Constraint values, Jacobians and objective gradient at one iterate.

    The SQP driver evaluates these once per accepted iterate and shares
    them between the QP assembly, the step rules, the trace and the
    convergence test.
    """

    c: np.ndarray       # equality residuals, (m_eq,)
    jac_c: np.ndarray   # (m_eq, n_z)
    h: np.ndarray       # inequality values, (n_ineq,)
    jac_h: np.ndarray   # (n_ineq, n_z)
    grad_f: np.ndarray  # objective gradient, (n_z,)


@dataclass
class TrajectoryNlp:
    """Transcribed NLP: dense evaluators over the stacked decision vector."""

    ocp: OcpDefinition
    n_z: int
    m_eq: int
    n_ineq: int
    stage_offsets: tuple[int, ...]  # offsets of z_0 .. z_{N-1} and z_N

    # -- layout ------------------------------------------------------------
    def split(self, z: np.ndarray):
        """Return (states (N+1, n), controls (N, m))."""
        n, m, N = self.ocp.n, self.ocp.m, self.ocp.horizon
        xs = np.empty((N + 1, n))
        us = np.empty((N, m))
        for k in range(N):
            off = self.stage_offsets[k]
            xs[k] = z[off:off + n]
            us[k] = z[off + n:off + n + m]
        xs[N] = z[self.stage_offsets[N]:self.stage_offsets[N] + n]
        return xs, us

    def join(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        n, m, N = self.ocp.n, self.ocp.m, self.ocp.horizon
        z = np.empty(self.n_z)
        for k in range(N):
            off = self.stage_offsets[k]
            z[off:off + n] = xs[k]
            z[off + n:off + n + m] = us[k]
        z[self.stage_offsets[N]:] = xs[N]
        return z

    # -- objective ---------------------------------------------------------
    def objective(self, z: np.ndarray) -> float:
        xs, us = self.split(z)
        total = sum(float(self.ocp.stage_cost(xs[k], us[k]))
                    for k in range(self.ocp.horizon))
        return total + float(self.ocp.terminal_cost(xs[-1]))

    def objective_gradient(self, z: np.ndarray) -> np.ndarray:
        ocp = self.ocp
        xs, us = self.split(z)
        grad = np.zeros(self.n_z)
        nm = ocp.n + ocp.m
        for k in range(ocp.horizon):
            off = self.stage_offsets[k]
            grad[off:off + nm] = _stage_grad(ocp, xs[k], us[k])
        grad[self.stage_offsets[-1]:] = _terminal_grad(ocp, xs[-1])
        return grad

    def objective_hessian(self, z: np.ndarray) -> np.ndarray:
        """Block-diagonal stage Hessian (Gauss-Newton form when supplied)."""
        ocp = self.ocp
        xs, us = self.split(z)
        hess = np.zeros((self.n_z, self.n_z))
        nm = ocp.n + ocp.m
        for k in range(ocp.horizon):
            off = self.stage_offsets[k]
            hess[off:off + nm, off:off + nm] = _stage_hess(ocp, xs[k], us[k])
        off = self.stage_offsets[-1]
        hess[off:, off:] = _terminal_hess(ocp, xs[-1])
        return hess

    # -- equality constraints ----------------------------------------------
    def equalities(self, z: np.ndarray) -> np.ndarray:
        ocp = self.ocp
        xs, us = self.split(z)
        out = np.empty(self.m_eq)
        n = ocp.n
        out[:n] = xs[0] - ocp.x_init
        for k in range(ocp.horizon):
            fx = _check_shape(ocp.dynamics(xs[k], us[k]), (n,), "dynamics")
            out[(k + 1) * n:(k + 2) * n] = xs[k + 1] - fx
        return out

    def equalities_jacobian(self, z: np.ndarray) -> np.ndarray:
        ocp = self.ocp
        xs, us = self.split(z)
        n, m, N = ocp.n, ocp.m, ocp.horizon
        jac = np.zeros((self.m_eq, self.n_z))
        jac[:n, :n] = np.eye(n)
        for k in range(N):
            off = self.stage_offsets[k]
            jx, ju = _dynamics_jacobians(ocp, xs[k], us[k])
            rows = slice((k + 1) * n, (k + 2) * n)
            jac[rows, off:off + n] = -jx
            jac[rows, off + n:off + n + m] = -ju
            nxt = self.stage_offsets[k + 1]
            jac[rows, nxt:nxt + n] = np.eye(n)
        return jac

    # -- inequality constraints ---------------------------------------------
    def inequalities(self, z: np.ndarray) -> np.ndarray:
        ocp = self.ocp
        if self.n_ineq == 0:
            return np.zeros(0)
        xs, us = self.split(z)
        out = np.empty(self.n_ineq)
        p = ocp.n_path
        for k in range(ocp.horizon):
            if p:
                out[k * p:(k + 1) * p] = _check_shape(
                    ocp.path_constraints(xs[k], us[k]), (p,), "path_constraints")
        if ocp.n_terminal:
            out[ocp.horizon * p:] = _check_shape(
                ocp.terminal_constraints(xs[-1]), (ocp.n_terminal,),
                "terminal_constraints")
        return out

    def inequalities_jacobian(self, z: np.ndarray) -> np.ndarray:
        ocp = self.ocp
        jac = np.zeros((self.n_ineq, self.n_z))
        if self.n_ineq == 0:
            return jac
        xs, us = self.split(z)
        n, m, p = ocp.n, ocp.m, ocp.n_path
        for k in range(ocp.horizon):
            if p:
                off = self.stage_offsets[k]
                rows = slice(k * p, (k + 1) * p)
                jac[rows, off:off + n + m] = _path_jac(ocp, xs[k], us[k])
        if ocp.n_terminal:
            off = self.stage_offsets[-1]
            jac[ocp.horizon * p:, off:off + n] = _terminal_con_jac(ocp, xs[-1])
        return jac

    def evaluate(self, z: np.ndarray) -> PointEval:
        """Every first-order quantity the SQP iteration needs at z."""
        return PointEval(
            c=self.equalities(z), jac_c=self.equalities_jacobian(z),
            h=self.inequalities(z), jac_h=self.inequalities_jacobian(z),
            grad_f=self.objective_gradient(z),
        )


# -- per-stage derivative dispatch (analytic with FD fallback) ---------------

def _stage_grad(ocp, x, u):
    if ocp.stage_cost_grad is not None:
        return _check_shape(ocp.stage_cost_grad(x, u), (ocp.n + ocp.m,),
                            "stage_cost_grad")
    xu = np.concatenate([x, u])
    return fd_gradient(lambda v: ocp.stage_cost(v[:ocp.n], v[ocp.n:]), xu)


def _stage_hess(ocp, x, u):
    if ocp.stage_cost_hess is not None:
        return _check_shape(ocp.stage_cost_hess(x, u),
                            (ocp.n + ocp.m, ocp.n + ocp.m), "stage_cost_hess")
    xu = np.concatenate([x, u])
    return fd_hessian(lambda v: ocp.stage_cost(v[:ocp.n], v[ocp.n:]), xu)


def _terminal_grad(ocp, x):
    if ocp.terminal_cost_grad is not None:
        return _check_shape(ocp.terminal_cost_grad(x), (ocp.n,), "terminal_cost_grad")
    return fd_gradient(ocp.terminal_cost, x)


def _terminal_hess(ocp, x):
    if ocp.terminal_cost_hess is not None:
        return _check_shape(ocp.terminal_cost_hess(x), (ocp.n, ocp.n),
                            "terminal_cost_hess")
    return fd_hessian(ocp.terminal_cost, x)


def _dynamics_jacobians(ocp, x, u):
    if ocp.dynamics_jac_x is not None and ocp.dynamics_jac_u is not None:
        jx = _check_shape(ocp.dynamics_jac_x(x, u), (ocp.n, ocp.n), "dynamics_jac_x")
        ju = _check_shape(ocp.dynamics_jac_u(x, u), (ocp.n, ocp.m), "dynamics_jac_u")
        return jx, ju
    jx = fd_jacobian(lambda v: ocp.dynamics(v, u), x)
    ju = fd_jacobian(lambda v: ocp.dynamics(x, v), u)
    return jx, ju


def _path_jac(ocp, x, u):
    if ocp.path_jac is not None:
        return _check_shape(ocp.path_jac(x, u), (ocp.n_path, ocp.n + ocp.m), "path_jac")
    xu = np.concatenate([x, u])
    return fd_jacobian(lambda v: ocp.path_constraints(v[:ocp.n], v[ocp.n:]), xu)


def _terminal_con_jac(ocp, x):
    if ocp.terminal_jac is not None:
        return _check_shape(ocp.terminal_jac(x), (ocp.n_terminal, ocp.n), "terminal_jac")
    return fd_jacobian(ocp.terminal_constraints, x)


# ---------------------------------------------------------------------------
# operations

def transcribe(ocp: OcpDefinition) -> TrajectoryNlp:
    """Transcribe via multiple shooting; validates all declared dimensions.

    The probe evaluation at (x_init, 0) raises ConfigurationError naming the
    offending callable if any output shape disagrees with the declaration.
    """
    n, m, N = ocp.n, ocp.m, ocp.horizon
    n_z = N * (n + m) + n
    m_eq = (N + 1) * n
    n_ineq = N * ocp.n_path + ocp.n_terminal
    offsets = tuple([k * (n + m) for k in range(N)] + [N * (n + m)])

    x0 = np.asarray(ocp.x_init, dtype=float)
    u0 = np.zeros(m)
    _check_shape(ocp.dynamics(x0, u0), (n,), "dynamics")
    float(ocp.stage_cost(x0, u0))
    float(ocp.terminal_cost(x0))
    if ocp.path_constraints is not None:
        _check_shape(ocp.path_constraints(x0, u0), (ocp.n_path,), "path_constraints")
    if ocp.terminal_constraints is not None:
        _check_shape(ocp.terminal_constraints(x0), (ocp.n_terminal,),
                     "terminal_constraints")
    if ocp.dynamics_jac_x is not None:
        _check_shape(ocp.dynamics_jac_x(x0, u0), (n, n), "dynamics_jac_x")
    if ocp.dynamics_jac_u is not None:
        _check_shape(ocp.dynamics_jac_u(x0, u0), (n, m), "dynamics_jac_u")

    return TrajectoryNlp(ocp=ocp, n_z=n_z, m_eq=m_eq, n_ineq=n_ineq,
                         stage_offsets=offsets)


def rollout(nlp: TrajectoryNlp, u_seq: np.ndarray) -> np.ndarray:
    """Simulate the dynamics from x_init under a control sequence.

    The result satisfies the shooting constraints exactly by construction.
    """
    ocp = nlp.ocp
    u_seq = np.asarray(u_seq, dtype=float).reshape(ocp.horizon, ocp.m)
    xs = np.empty((ocp.horizon + 1, ocp.n))
    xs[0] = ocp.x_init
    for k in range(ocp.horizon):
        xs[k + 1] = ocp.dynamics(xs[k], u_seq[k])
    return nlp.join(xs, u_seq)


def eval_barrier_objective(nlp: TrajectoryNlp, z: np.ndarray,
                           cfg: BarrierConfig) -> float:
    """F(z) + mu * sum phi(H_j(z)); +inf when any H_j(z) >= 0.

    The infinity sentinel lets the line search reject boundary-crossing
    trial points without special-casing.
    """
    h = nlp.inequalities(z)
    if h.size and np.max(h) >= 0.0:
        return float("inf")
    phi = cfg.funcs[0]
    barrier = float(np.sum(phi(h))) if h.size else 0.0
    return nlp.objective(z) + cfg.mu * barrier


def build_qp(
    nlp: TrajectoryNlp,
    z: np.ndarray,
    cfg: BarrierConfig,
    *,
    max_dampings: int = 40,
    point: PointEval | None = None,
) -> QpData:
    """Assemble one iteration's quadratic subproblem.

    Q is the stage-cost Hessian (Gauss-Newton when declared) plus barrier
    curvature plus sigma*I, with sigma = 0 at first; positive definiteness is
    asserted by a Cholesky attempt, doubling sigma (from a 1e-8 floor) on
    failure.  The accepted factor is handed on as ``QpData.chol_Q``.
    ``point`` holds the first-order quantities at z; they are evaluated here
    when omitted.
    """
    if point is None:
        point = nlp.evaluate(z)
    h = point.h
    if h.size and np.max(h) >= 0.0:
        raise InfeasiblePointError(
            f"strictly infeasible point: max H = {np.max(h):.3e} >= 0")

    _, d1, d2 = cfg.funcs
    grad_f = point.grad_f
    q_mat = nlp.objective_hessian(z)
    g = grad_f.copy()
    if h.size:
        jac_h = point.jac_h
        weights = cfg.mu * d2(h)
        q_mat = q_mat + (jac_h.T * weights) @ jac_h
        g = g + jac_h.T @ (cfg.mu * d1(h))
    q_mat = 0.5 * (q_mat + q_mat.T)

    sigma = 0.0
    attempts = 0
    while True:
        q_try = q_mat + sigma * np.eye(nlp.n_z) if sigma else q_mat
        try:
            chol_q = cho_factor(q_try, lower=True)
            break
        except (LinAlgError, np.linalg.LinAlgError):
            attempts += 1
            if attempts > max_dampings:
                raise ValueError(
                    f"Q not positive definite after {max_dampings} damping doublings")
            sigma = max(1e-8, 2.0 * sigma)

    return QpData(
        Q=q_try, A=point.jac_c, g=g, r=-point.c, chol_Q=chol_q,
        diagnostics={"sigma": sigma, "damping_attempts": attempts,
                     "grad_f_norm": float(np.linalg.norm(grad_f))},
    )


def validate_derivatives(
    ocp: OcpDefinition,
    *,
    seed: int = 0,
    n_points: int = 5,
    tol: float = 1e-5,
) -> dict[str, float]:
    """Opt-in check of supplied analytic derivatives against central FD.

    Returns the worst relative error per callable and raises
    ConfigurationError when any exceeds tol.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 + np.abs(np.asarray(ocp.x_init, dtype=float))
    worst: dict[str, float] = {}

    def record(name, analytic, numeric):
        denom = max(1.0, float(np.max(np.abs(numeric))))
        err = float(np.max(np.abs(analytic - numeric))) / denom
        worst[name] = max(worst.get(name, 0.0), err)

    for _ in range(n_points):
        x = np.asarray(ocp.x_init, dtype=float) + 0.1 * scale * rng.standard_normal(ocp.n)
        u = 0.1 * rng.standard_normal(ocp.m)
        if ocp.dynamics_jac_x is not None:
            record("dynamics_jac_x", ocp.dynamics_jac_x(x, u),
                   fd_jacobian(lambda v: ocp.dynamics(v, u), x))
        if ocp.dynamics_jac_u is not None:
            record("dynamics_jac_u", ocp.dynamics_jac_u(x, u),
                   fd_jacobian(lambda v: ocp.dynamics(x, v), u))
        if ocp.stage_cost_grad is not None:
            xu = np.concatenate([x, u])
            record("stage_cost_grad", ocp.stage_cost_grad(x, u),
                   fd_gradient(lambda v: ocp.stage_cost(v[:ocp.n], v[ocp.n:]), xu))
        if ocp.terminal_cost_grad is not None:
            record("terminal_cost_grad", ocp.terminal_cost_grad(x),
                   fd_gradient(ocp.terminal_cost, x))
        if ocp.path_jac is not None:
            xu = np.concatenate([x, u])
            record("path_jac", ocp.path_jac(x, u),
                   fd_jacobian(lambda v: ocp.path_constraints(v[:ocp.n], v[ocp.n:]), xu))
        if ocp.terminal_jac is not None:
            record("terminal_jac", ocp.terminal_jac(x),
                   fd_jacobian(ocp.terminal_constraints, x))

    bad = {k: v for k, v in worst.items() if v > tol}
    if bad:
        raise ConfigurationError(f"derivative checks failed: {bad}")
    return worst
