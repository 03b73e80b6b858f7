"""Analytic and definition-level oracles that only the tests read."""

import numpy as np

from qbsqp.blockenc import BlockEncoding, operator_norm
from qbsqp.models import double_integrator_ocp
from qbsqp.nlp import ConfigurationError, OcpDefinition, transcribe
from qbsqp.schur import BlockDiagonal

FD_STEP = 1e-6


def fd_jacobian(fun, x: np.ndarray) -> np.ndarray:
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


def fd_gradient(fun, x: np.ndarray) -> np.ndarray:
    return fd_jacobian(lambda v: np.array([fun(v)]), x)[0]


def validate_derivatives(
    ocp: OcpDefinition,
    *,
    seed: int = 0,
    n_points: int = 5,
    tol: float = 1e-5,
) -> dict[str, float]:
    """Check the analytic first derivatives against central FD.

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
        return one_row(lambda v: fun(v[:, :ocp.n], v[:, ocp.n:]))

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


def riccati_lqr(a, b, q, r, qf, horizon, x0):
    """Finite-horizon discrete LQR oracle: optimal states and inputs."""
    n, m = b.shape
    p = qf.copy()
    gains = []
    for _ in range(horizon):
        btp = b.T @ p
        k = np.linalg.solve(r + btp @ b, btp @ a)
        p = q + k.T @ r @ k + (a - b @ k).T @ p @ (a - b @ k)
        gains.append(k)
    gains = gains[::-1]
    xs = np.empty((horizon + 1, n))
    us = np.empty((horizon, m))
    xs[0] = x0
    for k_idx in range(horizon):
        us[k_idx] = -gains[k_idx] @ xs[k_idx]
        xs[k_idx + 1] = a @ xs[k_idx] + b @ us[k_idx]
    return xs, us


def box1d_barrier_path(mu: float) -> float:
    """Closed-form stationary control of the box1d barrier subproblem.

    Solves 2(u - 2) + mu/(1 - u) = 0 for u < 1.
    """
    return (3.0 - np.sqrt(1.0 + 2.0 * mu)) / 2.0


def toy_optimum(name: str) -> np.ndarray:
    """The optimal z of the ``toy_problems`` entry ``name``."""
    if name == "double_integrator":
        ocp, (a, b, q, r, qf, x0) = double_integrator_ocp()
        return transcribe(ocp).join(*riccati_lqr(a, b, q, r, qf, ocp.horizon, x0))
    return {"eqqp": np.array([1.0, 0.0, 0.0]),
            "box1d": np.array([0.0, 1.0, 1.0])}[name]


# The eqqp optimum's multipliers: the pin's, then the terminal gap's.
EQQP_LAM_STAR = np.array([-1.0, 0.0])


def encoding_error(u: BlockEncoding, operand: np.ndarray) -> float:
    """Definition-level error || operand - alpha * block || of an encoding,
    with a ``BlockDiagonal`` block assembled densely."""
    op = np.asarray(operand, dtype=float)
    op = op.reshape(len(op), -1)
    assert op.shape == u.block.shape, op.shape
    represented = u.represented()
    if isinstance(represented, BlockDiagonal):
        represented = represented.dense()
    return operator_norm(op - represented)


def perturbed_encoding(operand: np.ndarray, eps: float,
                       rng: np.random.Generator) -> BlockEncoding:
    """An encoding of a matrix or vector (as one column) that declares the
    error bound eps and whose block is off by a random perturbation of
    norm between eps/2 and eps.  alpha = ||operand|| + eps keeps the block's
    norm at most 1, as a block of a unitary must be."""
    op = np.asarray(operand, dtype=float)
    op = op.reshape(len(op), -1)
    noise = rng.standard_normal(op.shape)
    noise *= rng.uniform(0.5, 1.0) * eps / operator_norm(noise)
    alpha = operator_norm(op) + eps
    return BlockEncoding(block=(op + noise) / alpha, alpha=alpha, eps=eps)
