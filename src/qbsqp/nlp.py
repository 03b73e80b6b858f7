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

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import cholesky as cho_factor  # perfbench traces this name

from .schur import QpData, SingularityError, stacked_blocks


class ConfigurationError(ValueError):
    """A model callable returned data inconsistent with the declared sizes."""


class InfeasiblePointError(ValueError):
    """Operation requires H(z) < 0 componentwise."""


# ---------------------------------------------------------------------------
# finite differences (the reference of validate_derivatives)

FD_STEP = 1e-6


def fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian with per-component steps 1e-6*(1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(fun(x), dtype=float))
    jac = np.zeros((f0.size, x.size))
    h = FD_STEP * (1.0 + np.abs(x))
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        jac[:, i] = (np.atleast_1d(fun(xp)) - np.atleast_1d(fun(xm))) / (2.0 * h[i])
    return jac


def fd_gradient(fun: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    return fd_jacobian(lambda v: np.array([fun(v)]), x)[0]


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

    Every per-stage callable is stage-stacked: it takes states ``xs`` of
    shape (K, n) and controls ``us`` of shape (K, m), and row k of its
    output depends on row k of the inputs alone.  ``dynamics``,
    ``dynamics_jac_x`` and ``dynamics_jac_u`` return the K next states
    (K, n) and the Jacobians (K, n, n) and (K, n, m); ``stage_cost``,
    ``stage_cost_grad`` and ``stage_cost_hess`` return (K,), (K, n + m) and
    (K, n + m, n + m), derivatives taken with respect to (x, u);
    ``path_constraints`` and ``path_jac`` return (K, n_path) and
    (K, n_path, n + m).  The transcription evaluates all N stages in one
    call of each.  The terminal callables are stacked the same way over
    terminal states ``xs`` of shape (K, n): ``terminal_cost``,
    ``terminal_cost_grad`` and ``terminal_cost_hess`` return (K,), (K, n)
    and (K, n, n); ``terminal_constraints`` and ``terminal_jac`` return
    (K, n_terminal) and (K, n_terminal, n).  The single-point evaluators
    call them at K = 1; the barrier objective of the line search calls them
    once for a block of K trial points.

    Every derivative is required and analytic: the truncation error of
    finite differences would enter the step with no bound to account for it.
    ``stage_cost_hess`` may be a Gauss-Newton form, as for least-squares
    costs.  ``path_jac`` and ``terminal_jac`` are required together with
    their constraints.  ``validate_derivatives`` checks the first
    derivatives against central differences.
    """

    n: int
    m: int
    horizon: int
    x_init: np.ndarray
    dynamics: Callable
    dynamics_jac_x: Callable      # -> (K, n, n)
    dynamics_jac_u: Callable      # -> (K, n, m)
    stage_cost: Callable
    stage_cost_grad: Callable     # -> (K, n + m)
    stage_cost_hess: Callable     # -> (K, n + m, n + m); GN form for LS costs
    terminal_cost: Callable
    terminal_cost_grad: Callable  # -> (K, n)
    terminal_cost_hess: Callable  # -> (K, n, n)
    path_constraints: Callable | None = None  # c(xs, us) -> (K, n_path)
    n_path: int = 0
    path_jac: Callable | None = None          # -> (K, n_path, n + m)
    terminal_constraints: Callable | None = None  # c_N(xs) -> (K, n_terminal)
    n_terminal: int = 0
    terminal_jac: Callable | None = None      # -> (K, n_terminal, n)
    name: str = "ocp"

    def __post_init__(self):
        for label, value in (("n", self.n), ("m", self.m), ("horizon", self.horizon)):
            if value <= 0:
                raise ConfigurationError(f"{label} must be a positive integer")
        if np.asarray(self.x_init).shape != (self.n,):
            raise ConfigurationError("x_init must have length n")
        for con, count, jac in (("path_constraints", "n_path", "path_jac"),
                                ("terminal_constraints", "n_terminal", "terminal_jac")):
            declared = getattr(self, count) > 0
            if getattr(self, con) is None:
                if declared:
                    raise ConfigurationError(f"{con} must be supplied with {count} > 0")
            elif not declared:
                raise ConfigurationError(f"{count} must be declared with {con}")
            elif getattr(self, jac) is None:
                raise ConfigurationError(f"{jac} must be supplied with {con}")


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
        """Return (states (N+1, n), controls (N, m)) as new arrays."""
        n, end = self.ocp.n, self.stage_offsets[-1]
        stages = z[:end].reshape(self.ocp.horizon, -1)
        return np.vstack([stages[:, :n], z[end:]]), stages[:, n:].copy()

    def join(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        return np.concatenate([np.hstack([xs[:-1], us]).ravel(), xs[-1]])

    def _stages(self, z: np.ndarray):
        """The stage blocks z_k = (x_k, u_k) as rows, and x_N.

        For one point z (n_z,) these are views (N, n + m) and (n,), so no
        stage data is copied.  For K points (K, n_z) they are the K·N blocks
        (K·N, n + m), point by point in stage order, and x_N of each point
        (K, n).  The evaluators hand the callables column slices of the
        blocks.
        """
        end = self.stage_offsets[-1]
        return z[..., :end].reshape(-1, self.ocp.n + self.ocp.m), z[..., end:]

    def _stage_columns(self) -> np.ndarray:
        """(N, n + m) column indices of z_k in z, row k for stage k."""
        return (np.reshape(self.stage_offsets[:-1], (self.ocp.horizon, 1))
                + np.arange(self.ocp.n + self.ocp.m))

    # -- objective ---------------------------------------------------------
    def objective(self, z: np.ndarray) -> float | np.ndarray:
        """F(z): a float for one point (n_z,), (K,) for K points (K, n_z)."""
        ocp = self.ocp
        zs = np.atleast_2d(z)
        k = len(zs)
        stages, x_end = self._stages(zs)
        costs = _stage_call(ocp, "stage_cost", stages, (k * ocp.horizon,))
        # Added one at a time in stage order; np.sum would add pairwise, and
        # the line search compares values at rounding level.
        total = np.cumsum(costs.reshape(k, -1), axis=1)[:, -1]
        total = total + _terminal_call(ocp, "terminal_cost", x_end, (k,))
        return total if z.ndim > 1 else float(total[0])

    def objective_gradient(self, z: np.ndarray) -> np.ndarray:
        ocp = self.ocp
        stages, x_end = self._stages(z)
        end = self.stage_offsets[-1]
        grad = np.empty(self.n_z)
        grad[:end] = _stage_call(ocp, "stage_cost_grad", stages, stages.shape).ravel()
        grad[end:] = _terminal_call(ocp, "terminal_cost_grad", x_end[None],
                                    (1, ocp.n))[0]
        return grad

    def objective_hessian(self, z: np.ndarray) -> np.ndarray:
        """Block-diagonal stage Hessian (Gauss-Newton form when supplied)."""
        ocp = self.ocp
        stages, x_end = self._stages(z)
        N, nm = stages.shape
        end = self.stage_offsets[-1]
        hess = np.zeros((self.n_z, self.n_z))
        cols = self._stage_columns()
        hess[cols[:, :, None], cols[:, None, :]] = _stage_call(
            ocp, "stage_cost_hess", stages, (N, nm, nm))
        hess[end:, end:] = _terminal_call(ocp, "terminal_cost_hess", x_end[None],
                                          (1, ocp.n, ocp.n))[0]
        return hess

    # -- equality constraints ----------------------------------------------
    def equalities(self, z: np.ndarray) -> np.ndarray:
        ocp = self.ocp
        n, N = ocp.n, ocp.horizon
        stages, x_end = self._stages(z)
        fx = _stage_call(ocp, "dynamics", stages, (N, n))
        out = np.empty(self.m_eq)
        out[:n] = stages[0, :n] - ocp.x_init
        gaps = out[n:].reshape(N, n)  # x_{k+1} - f(x_k, u_k), row k
        np.subtract(stages[1:, :n], fx[:-1], out=gaps[:-1])
        np.subtract(x_end, fx[-1], out=gaps[-1])
        return out

    def equalities_jacobian(self, z: np.ndarray) -> np.ndarray:
        ocp = self.ocp
        n, m, N = ocp.n, ocp.m, ocp.horizon
        stages, _ = self._stages(z)
        jac = np.zeros((self.m_eq, self.n_z))
        jac[:n, :n] = np.eye(n)
        jx = _stage_call(ocp, "dynamics_jac_x", stages, (N, n, n))
        ju = _stage_call(ocp, "dynamics_jac_u", stages, (N, n, m))
        # Gap row i of stage k is n + k n + i; it reads z_k and x_{k+1},
        # whose columns are those of z_k shifted by one stage.
        rows = n + np.arange(N * n).reshape(N, n)
        cols = self._stage_columns()
        jac[rows[:, :, None], cols[:, None, :n]] = -jx
        jac[rows[:, :, None], cols[:, None, n:]] = -ju
        jac[rows, cols[:, :n] + (n + m)] = 1.0
        return jac

    # -- inequality constraints ---------------------------------------------
    def inequalities(self, z: np.ndarray) -> np.ndarray:
        """H(z): (n_ineq,) for one point (n_z,), (K, n_ineq) for K points."""
        ocp = self.ocp
        zs = np.atleast_2d(z)
        k = len(zs)
        stages, x_end = self._stages(zs)
        out = np.empty((k, self.n_ineq))
        N, p = ocp.horizon, ocp.n_path
        if p:
            out[:, :N * p] = _stage_call(
                ocp, "path_constraints", stages, (k * N, p)).reshape(k, N * p)
        if ocp.n_terminal:
            out[:, N * p:] = _terminal_call(ocp, "terminal_constraints", x_end,
                                            (k, ocp.n_terminal))
        return out.reshape(z.shape[:-1] + (self.n_ineq,))

    def inequalities_jacobian(self, z: np.ndarray) -> np.ndarray:
        ocp = self.ocp
        jac = np.zeros((self.n_ineq, self.n_z))
        if self.n_ineq == 0:
            return jac
        stages, x_end = self._stages(z)
        n, N, p, t = ocp.n, ocp.horizon, ocp.n_path, ocp.n_terminal
        end = self.stage_offsets[-1]
        if p:
            rows = np.arange(N * p).reshape(N, p)
            cols = self._stage_columns()
            jac[rows[:, :, None], cols[:, None, :]] = _stage_call(
                ocp, "path_jac", stages, (N, p, n + ocp.m))
        if t:
            jac[N * p:, end:] = _terminal_call(ocp, "terminal_jac", x_end[None],
                                               (1, t, n))[0]
        return jac

    def evaluate(self, z: np.ndarray) -> PointEval:
        """Every first-order quantity the SQP iteration needs at z.

        The dynamics Jacobians are asked for before the residuals: the RK4
        map of ``models.rk4_discretize`` keeps the next states of its
        Jacobian pass, so ``equalities`` then integrates nothing.
        """
        jac_c = self.equalities_jacobian(z)
        return PointEval(
            c=self.equalities(z), jac_c=jac_c,
            h=self.inequalities(z), jac_h=self.inequalities_jacobian(z),
            grad_f=self.objective_gradient(z),
        )


# -- calls of the stage-stacked model callables -----------------------------
# ``stages`` holds one stage block (x_k, u_k) per row, (K, n + m).

def _on_stages(fun, n):
    """``fun(xs, us)`` as a function of the stage blocks (K, n + m)."""
    return lambda v: fun(v[:, :n], v[:, n:])


def _stage_call(ocp, name, stages, shape):
    """``ocp.<name>`` at the stage blocks, its output shape checked."""
    return _check_shape(_on_stages(getattr(ocp, name), ocp.n)(stages), shape, name)


def _terminal_call(ocp, name, xs, shape):
    """``ocp.<name>`` at the terminal states xs (K, n), its output shape checked."""
    return _check_shape(getattr(ocp, name)(xs), shape, name)


# ---------------------------------------------------------------------------
# operations

def transcribe(ocp: OcpDefinition) -> TrajectoryNlp:
    """Transcribe via multiple shooting; validates all declared dimensions.

    The probe evaluation at (x_init, 0), one stacked stage (K = 1) for each
    stage callable and one terminal state x_init (K = 1) for each terminal
    callable, raises ConfigurationError naming the offending callable if any
    output shape disagrees with the declaration.
    """
    n, m, N = ocp.n, ocp.m, ocp.horizon
    n_z = N * (n + m) + n
    m_eq = (N + 1) * n
    n_ineq = N * ocp.n_path + ocp.n_terminal
    offsets = tuple([k * (n + m) for k in range(N)] + [N * (n + m)])

    x0 = np.asarray(ocp.x_init, dtype=float)
    stage = np.concatenate([x0, np.zeros(m)])[None]
    nm, p = n + m, ocp.n_path
    stage_shapes = (
        ("dynamics", (1, n)), ("dynamics_jac_x", (1, n, n)),
        ("dynamics_jac_u", (1, n, m)), ("stage_cost", (1,)),
        ("stage_cost_grad", (1, nm)), ("stage_cost_hess", (1, nm, nm)),
        ("path_constraints", (1, p)), ("path_jac", (1, p, nm)),
    )
    for name, shape in stage_shapes:
        if getattr(ocp, name) is not None:
            _stage_call(ocp, name, stage, shape)
    t = ocp.n_terminal
    terminal_shapes = (
        ("terminal_cost", (1,)), ("terminal_cost_grad", (1, n)),
        ("terminal_cost_hess", (1, n, n)), ("terminal_constraints", (1, t)),
        ("terminal_jac", (1, t, n)),
    )
    for name, shape in terminal_shapes:
        if getattr(ocp, name) is not None:
            _terminal_call(ocp, name, x0[None], shape)

    return TrajectoryNlp(ocp=ocp, n_z=n_z, m_eq=m_eq, n_ineq=n_ineq,
                         stage_offsets=offsets)


def rollout(nlp: TrajectoryNlp, u_seq: np.ndarray) -> np.ndarray:
    """Simulate the dynamics from x_init under a control sequence.

    The result satisfies the shooting constraints exactly by construction.
    Stage k + 1 needs stage k, so the dynamics are called once per stage
    (K = 1).
    """
    ocp = nlp.ocp
    u_seq = np.asarray(u_seq, dtype=float).reshape(ocp.horizon, ocp.m)
    xs = np.empty((ocp.horizon + 1, ocp.n))
    xs[0] = ocp.x_init
    for k in range(ocp.horizon):
        xs[k + 1] = ocp.dynamics(xs[k:k + 1], u_seq[k:k + 1])[0]
    return nlp.join(xs, u_seq)


def eval_barrier_objective(nlp: TrajectoryNlp, z: np.ndarray,
                           cfg: BarrierConfig, *, terms: bool = False,
                           ) -> float | np.ndarray | tuple:
    """F(z) + mu * B(z) with B(z) = sum_j phi(H_j(z)); +inf when any H_j(z) >= 0.

    z is one point (n_z,), for which the result is a float, or K points
    (K, n_z), for which it is (K,) and row k equals the call at z[k].  The
    infinity sentinel lets the line search reject boundary-crossing trial
    points without special-casing; at such points F and B are not
    evaluated and read +inf.  With ``terms`` the result is (F̄, F, B): F
    and B do not depend on mu, so the line search forms F̄ at the next mu
    from them, as F + mu * B, without evaluating again.
    """
    zs = np.atleast_2d(z)
    h = nlp.inequalities(zs)
    inside = ~np.any(h >= 0.0, axis=1)  # a NaN row stays and reads NaN
    f = np.full(len(zs), np.inf)
    barrier = np.full(len(zs), np.inf)
    if inside.any():
        f[inside] = nlp.objective(zs[inside])
        barrier[inside] = np.sum(cfg.funcs[0](h[inside]), axis=1)
    f_bar = f + cfg.mu * barrier
    if z.ndim == 1:
        f_bar, f, barrier = float(f_bar[0]), float(f[0]), float(barrier[0])
    return (f_bar, f, barrier) if terms else f_bar


# Doublings of the damping sigma before build_qp gives up on Q.
MAX_DAMPINGS = 40


def build_qp(
    nlp: TrajectoryNlp,
    z: np.ndarray,
    cfg: BarrierConfig,
    *,
    point: PointEval | None = None,
) -> QpData:
    """Assemble one iteration's quadratic subproblem.

    Q is the stage-cost Hessian (Gauss-Newton when declared) plus barrier
    curvature plus sigma*I, with sigma = 0 at first.  The inequality rows of
    stage k touch only z_k, so the barrier curvature J_k^T diag(w_k) J_k is
    added to stage k's diagonal block (the terminal rows to z_N's) and Q
    keeps the block-diagonal structure of the cost Hessian, which
    ``QpData.layout`` records.  Positive definiteness is asserted by one
    stacked Cholesky attempt over Q's diagonal blocks, doubling sigma (from
    a 1e-8 floor) on failure; SingularityError is raised once MAX_DAMPINGS
    doublings have failed too.  The accepted factors are handed on as
    ``QpData.chol_Q``.
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
        _add_barrier_curvature(nlp, q_mat, point.jac_h, cfg.mu * d2(h))
        g = g + point.jac_h.T @ (cfg.mu * d1(h))
    q_mat = 0.5 * (q_mat + q_mat.T)

    layout = (nlp.ocp.horizon, nlp.ocp.n + nlp.ocp.m)
    sigma = 0.0
    attempts = 0
    while True:
        q_try = q_mat + sigma * np.eye(nlp.n_z) if sigma else q_mat
        try:
            chol_q = cho_factor(stacked_blocks(q_try, layout))
            break
        except np.linalg.LinAlgError:
            attempts += 1
            if attempts > MAX_DAMPINGS:
                raise SingularityError(
                    f"Q not positive definite after {attempts} Cholesky attempts "
                    f"(last sigma = {sigma:.3e})")
            sigma = max(1e-8, 2.0 * sigma)

    return QpData(
        Q=q_try, A=point.jac_c, g=g, r=-point.c, layout=layout, chol_Q=chol_q,
        diagnostics={"sigma": sigma, "damping_attempts": attempts,
                     "grad_f_norm": float(np.linalg.norm(grad_f))},
    )


def _add_barrier_curvature(nlp: TrajectoryNlp, q_mat: np.ndarray,
                           jac_h: np.ndarray, weights: np.ndarray) -> None:
    """Add jac_h^T diag(weights) jac_h to q_mat in place, block by block."""
    ocp = nlp.ocp
    N, p, end = ocp.horizon, ocp.n_path, nlp.stage_offsets[-1]
    if p:
        # Row r of stage k, column j of z_k: (N, p) row and (N, n + m)
        # column indices, broadcast to the stage blocks (N, p, n + m).
        rows = np.arange(N * p).reshape(N, p)
        cols = nlp._stage_columns()
        jac = jac_h[rows[:, :, None], cols[:, None, :]]
        curv = np.swapaxes(jac * weights[rows][:, :, None], 1, 2) @ jac
        q_mat[cols[:, :, None], cols[:, None, :]] += curv
    if ocp.n_terminal:
        jac = jac_h[N * p:, end:]
        q_mat[end:, end:] += (jac.T * weights[N * p:]) @ jac


def validate_derivatives(
    ocp: OcpDefinition,
    *,
    seed: int = 0,
    n_points: int = 5,
    tol: float = 1e-5,
) -> dict[str, float]:
    """Opt-in check of the analytic first derivatives against central FD.

    Checks the dynamics Jacobians, the cost gradients and the Jacobians of
    the declared constraints; the Hessians are not checked, since a
    Gauss-Newton form is allowed.  Returns the worst relative error per
    callable and raises ConfigurationError when any exceeds tol.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 + np.abs(np.asarray(ocp.x_init, dtype=float))
    worst: dict[str, float] = {}

    def record(name, analytic, numeric):
        denom = max(1.0, float(np.max(np.abs(numeric))))
        err = float(np.max(np.abs(analytic - numeric))) / denom
        worst[name] = max(worst.get(name, 0.0), err)

    def one_row(stacked):
        """A stacked callable of rows (K, d) as a map of one row (d,)."""
        return lambda v: stacked(v[None])[0]

    def at_point(fun):
        """A stacked stage callable as a map of one stage block (n + m,)."""
        return one_row(_on_stages(fun, ocp.n))

    for _ in range(n_points):
        x = np.asarray(ocp.x_init, dtype=float) + 0.1 * scale * rng.standard_normal(ocp.n)
        u = 0.1 * rng.standard_normal(ocp.m)
        xu, one = np.concatenate([x, u]), (x[None], u[None])
        dyn_fd = fd_jacobian(at_point(ocp.dynamics), xu)
        record("dynamics_jac_x", ocp.dynamics_jac_x(*one)[0], dyn_fd[:, :ocp.n])
        record("dynamics_jac_u", ocp.dynamics_jac_u(*one)[0], dyn_fd[:, ocp.n:])
        record("stage_cost_grad", ocp.stage_cost_grad(*one)[0],
               fd_gradient(at_point(ocp.stage_cost), xu))
        record("terminal_cost_grad", ocp.terminal_cost_grad(x[None])[0],
               fd_gradient(one_row(ocp.terminal_cost), x))
        if ocp.path_constraints is not None:
            record("path_jac", ocp.path_jac(*one)[0],
                   fd_jacobian(at_point(ocp.path_constraints), xu))
        if ocp.terminal_constraints is not None:
            record("terminal_jac", ocp.terminal_jac(x[None])[0],
                   fd_jacobian(one_row(ocp.terminal_constraints), x))

    bad = {k: v for k, v in worst.items() if v > tol}
    if bad:
        raise ConfigurationError(f"derivative checks failed: {bad}")
    return worst
