"""Analytic and definition-level oracles that only the tests read."""

import numpy as np

from qbsqp.blockenc import BlockEncoding, operator_norm
from qbsqp.models import double_integrator_ocp
from qbsqp.nlp import transcribe


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
    """Definition-level error || operand - alpha * block || of an encoding."""
    op = np.asarray(operand, dtype=float)
    op = op.reshape(len(op), -1)
    assert op.shape == (u.logical_rows, u.logical_cols), op.shape
    return operator_norm(op - u.represented())
