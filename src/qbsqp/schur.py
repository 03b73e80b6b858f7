"""Schur-complement solvers for the equality-constrained QP step.

Each iteration of the barrier SQP produces the KKT system

    [Q  A^T] [dz]   [-g]
    [A   0 ] [lam] = [ r]

which is solved by block elimination: S = A Q^{-1} A^T, b = -r - A Q^{-1} g,
S lam = b, Q dz = -(g + A^T lam).  The solver interface is shared by the
exact backend, the bounded-error-injection backend, and the simulated
quantum backend (see qschur).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigvalsh


class SingularityError(RuntimeError):
    """Cholesky factorization failed; carries condition diagnostics."""


@dataclass
class QpData:
    """One iteration's quadratic subproblem data.

    ``chol_Q`` is the lower Cholesky factor of Q as returned by
    ``cho_factor(Q, lower=True)``.  ``build_qp`` fills it from its damping
    loop so that ``exact_step`` does not factor Q a second time; when it is
    None, ``exact_step`` factors Q itself.
    """

    Q: np.ndarray
    A: np.ndarray
    g: np.ndarray
    r: np.ndarray
    chol_Q: tuple[np.ndarray, bool] | None = None
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        n = self.Q.shape[0]
        if self.Q.shape != (n, n):
            raise ValueError("Q must be square")
        if self.A.ndim != 2 or self.A.shape[1] != n:
            raise ValueError("A must have n_z columns")
        if self.g.shape != (n,):
            raise ValueError("g must have length n_z")
        if self.r.shape != (self.A.shape[0],):
            raise ValueError("r must have length m_eq")

    @property
    def n_z(self) -> int:
        return self.Q.shape[0]

    @property
    def m_eq(self) -> int:
        return self.A.shape[0]


@dataclass
class SchurSolution:
    dz: np.ndarray
    lam: np.ndarray
    kkt_residual: float
    diagnostics: dict[str, Any] = field(default_factory=dict)


@runtime_checkable
class SchurStepSolver(Protocol):
    """Contract used by the SQP driver (Step 2 of the outer loop)."""

    name: str
    eps_dz: float  # declared accuracy; inf means exact

    def step(self, qp: QpData) -> SchurSolution: ...


def kkt_residual_norm(qp: QpData, dz: np.ndarray, lam: np.ndarray) -> float:
    """||Q dz + A^T lam + g|| + ||A dz - r||."""
    stat = np.linalg.norm(qp.Q @ dz + qp.A.T @ lam + qp.g)
    feas = np.linalg.norm(qp.A @ dz - qp.r) if qp.m_eq else 0.0
    return float(stat + feas)


def dense_kkt_solve(qp: QpData) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: factorize the full KKT matrix directly (no Schur elimination)."""
    n, m = qp.n_z, qp.m_eq
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = qp.Q
    kkt[:n, n:] = qp.A.T
    kkt[n:, :n] = qp.A
    rhs = np.concatenate([-qp.g, qp.r])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n], sol[n:]


def _chol(mat: np.ndarray, label: str):
    try:
        return cho_factor(mat, lower=True)
    except np.linalg.LinAlgError as exc:
        eigs = eigvalsh(mat)
        raise SingularityError(
            f"{label} is not positive definite "
            f"(eig range [{eigs[0]:.3e}, {eigs[-1]:.3e}])"
        ) from exc


def exact_step(qp: QpData) -> SchurSolution:
    """Block elimination with one Cholesky factorization each of Q and S.

    The factor of Q (``qp.chol_Q`` when present) is reused for the Schur
    assembly, the right-hand side, and the primal recovery.  A Q or S that
    is not positive definite raises SingularityError.
    """
    cq = qp.chol_Q if qp.chol_Q is not None else _chol(qp.Q, "Q")
    diag: dict[str, Any] = {"solver": "exact"}

    if qp.m_eq == 0:
        dz = cho_solve(cq, -qp.g)
        lam = np.zeros(0)
    else:
        qinv_at = cho_solve(cq, qp.A.T)
        s_mat = qp.A @ qinv_at
        s_mat = 0.5 * (s_mat + s_mat.T)
        b = -qp.r - qp.A @ cho_solve(cq, qp.g)
        lam = cho_solve(_chol(s_mat, "Schur complement S"), b)
        dz = -cho_solve(cq, qp.g + qp.A.T @ lam)

    res = kkt_residual_norm(qp, dz, lam)
    return SchurSolution(dz=dz, lam=lam, kkt_residual=res, diagnostics=diag)


class ExactSchurSolver:
    name = "exact"
    eps_dz = float("inf")

    def step(self, qp: QpData) -> SchurSolution:
        return exact_step(qp)


def noisy_step(qp: QpData, eps: float, rng: np.random.Generator) -> SchurSolution:
    """Exact step plus a hard-norm-bounded spherical perturbation.

    The perturbation has norm u*eps with u ~ Uniform(0, 1], drawn uniformly
    in direction, so ||dz - dz_exact|| <= eps always holds (Gaussian noise
    would violate the hard bound).  The multipliers stay exact.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    sol = exact_step(qp)
    if eps == 0.0:
        sol.diagnostics.update(solver="noisy", eps_dz=0.0, noise_norm=0.0)
        return sol

    direction = rng.standard_normal(qp.n_z)
    nrm = np.linalg.norm(direction)
    while nrm == 0.0:  # pragma: no cover - probability zero
        direction = rng.standard_normal(qp.n_z)
        nrm = np.linalg.norm(direction)
    radius = rng.uniform(0.0, 1.0)
    radius = eps * (1.0 - radius)  # in (0, eps]
    dz = sol.dz + (radius / nrm) * direction

    res = kkt_residual_norm(qp, dz, sol.lam)
    return SchurSolution(
        dz=dz,
        lam=sol.lam,
        kkt_residual=res,
        diagnostics={"solver": "noisy", "eps_dz": eps, "noise_norm": radius},
    )


class NoisySchurSolver:
    """Bounded-error backend used for the perturbation sweeps."""

    def __init__(self, eps: float, seed: int = 0):
        self.eps_dz = float(eps)
        self.name = f"noisy:{eps:g}"
        self._rng = np.random.default_rng(seed)

    def step(self, qp: QpData) -> SchurSolution:
        return noisy_step(qp, self.eps_dz, self._rng)


def validate_qp(qp: QpData, *, tol: float = 1e-8) -> None:
    """Debug-mode checks: Q symmetric positive definite, A full row rank."""
    sym_err = np.linalg.norm(qp.Q - qp.Q.T) / max(1.0, np.linalg.norm(qp.Q))
    if sym_err > 1e-12:
        raise ValueError(f"Q asymmetric (relative error {sym_err:.3e})")
    _chol(qp.Q, "Q")
    if qp.m_eq:
        rank = np.linalg.matrix_rank(qp.A, tol=tol)
        if rank < qp.m_eq:
            raise ValueError(f"A row rank {rank} < m_eq={qp.m_eq} (LICQ surrogate fails)")
