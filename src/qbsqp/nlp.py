"""Multiple-shooting transcription and barrier-augmented QP assembly.

A finite-horizon optimal control problem is transcribed into an NLP over
the stacked decision vector

    z = [x_0, u_0, x_1, u_1, ..., x_{N-1}, u_{N-1}, x_N],

with equality constraints stacking the initial-state pin first and then
the shooting gaps x_{k+1} - f(x_k, u_k), and inequality constraints
stacking the stage rows c(x_k, u_k) followed by the terminal rows
c_N(x_N).  The barrier-augmented objective, its gradient, and the
Gauss-Newton Hessian feed the quadratic subproblem of each SQP iteration.
The iteration holds every matrix as its stage blocks: the cost Hessian
and the inequality Jacobian as a ``BlockDiagonal``, the equality Jacobian
as a ``RowBlocks`` (see schur).  The dense Jacobians are assembled from
the same blocks only for callers that ask for them whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import cholesky as cho_factor  # perfbench traces this name

from .schur import BlockDiagonal, QpData, RowBlocks, SingularityError


class ConfigurationError(ValueError):
    """A model callable returned data inconsistent with the declared sizes."""


class InfeasiblePointError(ValueError):
    """Operation requires H(z) < 0 componentwise."""


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
    their constraints.
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
    """Constraint values, Jacobian blocks and objective gradient at one iterate.

    The SQP driver evaluates these once per accepted iterate and shares
    them between the QP assembly, the step rules, the trace and the
    convergence test.  No dense Jacobian is held.  ``jac_c`` is the
    equality Jacobian as its row blocks: the identities of the pin and the
    gaps and the dynamics blocks -[F_k G_k] (see ``RowBlocks``).  ``jac_h``
    is the block-diagonal inequality Jacobian: stage k's path rows on z_k,
    then the terminal rows on x_N.
    """

    c: np.ndarray         # equality residuals, (m_eq,)
    jac_c: RowBlocks      # (m_eq, n_z) as N + 1 row blocks
    h: np.ndarray         # inequality values, (n_ineq,)
    jac_h: BlockDiagonal  # (n_ineq, n_z): (N, n_path, n + m) and (n_terminal, n)
    grad_f: np.ndarray    # objective gradient, (n_z,)


@dataclass
class TrajectoryNlp:
    """Transcribed NLP: evaluators over the stacked decision vector."""

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

    def objective_hessian(self, z: np.ndarray) -> BlockDiagonal:
        """The block-diagonal stage Hessian (Gauss-Newton form when supplied):
        stage blocks (N, n + m, n + m) and terminal block (n, n), copied: a
        model may return a read-only view, such as a broadcast."""
        ocp = self.ocp
        stages, x_end = self._stages(z)
        N, nm = stages.shape
        return BlockDiagonal(
            _stage_call(ocp, "stage_cost_hess", stages, (N, nm, nm)).copy(),
            _terminal_call(ocp, "terminal_cost_hess", x_end[None],
                           (1, ocp.n, ocp.n))[0].copy())

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

    def equality_blocks(self, z: np.ndarray) -> RowBlocks:
        """The equality Jacobian as its N + 1 row blocks of n rows.

        Row block k holds the pin (k = 0) or the gap x_k - f(x_{k-1},
        u_{k-1}).  Its block on z_k is [I 0], on x_N the identity, and on
        z_{k-1} the dynamics block -[F_{k-1} G_{k-1}].
        """
        ocp = self.ocp
        n, m, N = ocp.n, ocp.m, ocp.horizon
        stages, _ = self._stages(z)
        sub = np.empty((N, n, n + m))
        np.negative(_stage_call(ocp, "dynamics_jac_x", stages, (N, n, n)),
                    out=sub[:, :, :n])
        np.negative(_stage_call(ocp, "dynamics_jac_u", stages, (N, n, m)),
                    out=sub[:, :, n:])
        return RowBlocks(BlockDiagonal(np.broadcast_to(np.eye(n, n + m), sub.shape),
                                       np.eye(n)), sub)

    def equalities_jacobian(self, z: np.ndarray) -> np.ndarray:
        """The dense equality Jacobian (m_eq, n_z), from ``equality_blocks``."""
        return self.equality_blocks(z).dense()

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

    def inequality_blocks(self, z: np.ndarray) -> BlockDiagonal:
        """The block-diagonal inequality Jacobian: the path rows of stage k
        on z_k (N, n_path, n + m), then the terminal rows on x_N
        (n_terminal, n)."""
        ocp = self.ocp
        n, nm, N, p, t = ocp.n, ocp.n + ocp.m, ocp.horizon, ocp.n_path, ocp.n_terminal
        stages, x_end = self._stages(z)
        path = (_stage_call(ocp, "path_jac", stages, (N, p, nm)) if p
                else np.zeros((N, 0, nm)))
        terminal = (_terminal_call(ocp, "terminal_jac", x_end[None], (1, t, n))[0]
                    if t else np.zeros((0, n)))
        return BlockDiagonal(path, terminal)

    def inequalities_jacobian(self, z: np.ndarray) -> np.ndarray:
        """The dense inequality Jacobian (n_ineq, n_z), from ``inequality_blocks``."""
        return self.inequality_blocks(z).dense()

    def evaluate(self, z: np.ndarray) -> PointEval:
        """Every first-order quantity the SQP iteration needs at z.

        The dynamics Jacobians are asked for before the residuals: the RK4
        map of ``models.rk4_discretize`` keeps the next states of its
        Jacobian pass, so ``equalities`` then integrates nothing.
        """
        jac_c = self.equality_blocks(z)
        return PointEval(
            c=self.equalities(z), jac_c=jac_c, h=self.inequalities(z),
            jac_h=self.inequality_blocks(z), grad_f=self.objective_gradient(z),
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
    (K = 1).  The RK4 map of ``models.rk4_discretize`` runs such calls on
    Python floats, bitwise equal to its stacked rows.
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
    added to stage k's diagonal block (the terminal rows to z_N's), and Q
    keeps the block-diagonal structure of the cost Hessian: it is built and
    handed on as a ``BlockDiagonal``, and symmetrized once as its
    identity-bordered stack, whose border entries stay 0 and 1.  The barrier
    gradient jac_h^T (mu phi'(h)) is formed from the same Jacobian blocks,
    and A is the equality Jacobian's row blocks as evaluated: no n_z x n_z,
    m_eq x n_z or n_ineq x n_z array is formed.  Positive definiteness is
    asserted by one stacked Cholesky attempt over that stack, doubling sigma
    (from a 1e-8 floor) on failure; each attempt adds sigma to the diagonal
    of a copy of the stack.  SingularityError is raised once MAX_DAMPINGS
    doublings have failed too.  The accepted factors are handed on as
    ``QpData.chol_Q``.  ``point`` holds the first-order quantities at z;
    they are evaluated here when omitted.  A point with an H_j(z) that is
    not below 0, or NaN, raises InfeasiblePointError.
    """
    if point is None:
        point = nlp.evaluate(z)
    h = point.h
    if not np.all(h < 0.0):
        raise InfeasiblePointError(
            f"strictly infeasible point: max H = {np.max(h):.3e}, not < 0")

    _, d1, d2 = cfg.funcs
    hess = nlp.objective_hessian(z)
    g = point.grad_f.copy()
    if h.size:
        _add_barrier_curvature(hess, point.jac_h, cfg.mu * d2(h))
        g = g + point.jac_h.tdot(cfg.mu * d1(h))
    stack = hess.stacked()
    stack = 0.5 * (stack + stack.mT)
    diag = np.arange(stack.shape[-1])
    sigma = 0.0
    attempts = 0
    while True:
        q_try = stack
        if sigma:
            q_try = stack.copy()
            q_try[:, diag, diag] += sigma
        try:
            chol_q = cho_factor(q_try)
            break
        except np.linalg.LinAlgError:
            attempts += 1
            if attempts > MAX_DAMPINGS:
                raise SingularityError(
                    f"Q not positive definite after {attempts} Cholesky attempts "
                    f"(last sigma = {sigma:.3e})")
            sigma = max(1e-8, 2.0 * sigma)

    size, rest = hess.stages.shape[1], len(hess.tail)
    return QpData(
        Q=BlockDiagonal(q_try[:-1, :size, :size], q_try[-1, :rest, :rest]),
        A=point.jac_c, g=g, r=-point.c, chol_Q=chol_q,
        diagnostics={"sigma": sigma, "damping_attempts": attempts},
    )


def _add_barrier_curvature(q: BlockDiagonal, jac: BlockDiagonal,
                           weights: np.ndarray) -> None:
    """Add jac^T diag(weights) jac to Q's stage and terminal blocks in place."""
    stages, tail = q.stages, q.tail  # q is frozen: add through local names
    N, p = jac.stages.shape[:2]
    if p:
        weighted = jac.stages * weights[:N * p].reshape(N, p, 1)
        stages += np.swapaxes(weighted, 1, 2) @ jac.stages
    if len(jac.tail):
        tail += (jac.tail.T * weights[N * p:]) @ jac.tail
