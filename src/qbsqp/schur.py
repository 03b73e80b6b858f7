"""Schur-complement solvers for the equality-constrained QP step.

Each iteration of the barrier SQP produces the KKT system

    [Q  A^T] [dz]   [-g]
    [A   0 ] [lam] = [ r]

which is solved by block elimination: S = A Q^{-1} A^T, b = -r - A Q^{-1} g,
S lam = b, Q dz = -(g + A^T lam).  The solver interface is shared by the
exact backend, the bounded-error-injection backend, and the simulated
quantum backend (see qschur).

Q is block diagonal with the layout ``QpData.layout`` records: a run of
equal stage blocks, then one trailing block.  The exact step inverts Q
by one stacked ``np.linalg.inv`` over the stage blocks and one over the
trailing block; S stays the dense product A (Q^{-1} A^T).
Positive definiteness of Q and of S is tested by one stacked Cholesky
factorization each.  The routines come from numpy alone: ``cho_factor``
and ``eigvalsh`` are module attributes so that perfbench's tracer can
wrap them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np
import numpy.random  # noqa: F401 -- numpy loads it lazily; load it before any solve
from numpy.linalg import cholesky as cho_factor, eigvalsh


class SingularityError(RuntimeError):
    """Cholesky factorization failed; carries condition diagnostics."""


@dataclass
class QpData:
    """One iteration's quadratic subproblem data.

    ``layout = (count, size)`` declares Q block diagonal: ``count`` stage
    blocks of ``size`` rows each, then one trailing block of the remaining
    rows.  A transcribed OCP has N stage blocks of size n + m and a terminal
    block of size n.  The default (0, 0) makes all of Q one dense block.

    ``chol_Q`` holds the lower Cholesky factors of ``stacked_blocks(Q,
    layout)``.  ``build_qp`` fills it from its damping loop, and it
    certifies Q positive definite so that ``exact_step`` does not factor Q
    a second time; when it is None, ``exact_step`` factors Q itself.
    """

    Q: np.ndarray
    A: np.ndarray
    g: np.ndarray
    r: np.ndarray
    layout: tuple[int, int] = (0, 0)
    chol_Q: np.ndarray | None = None
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
        count, size = self.layout
        if count < 0 or size < 0 or count * size > n:
            raise ValueError("layout must fit count stage blocks of size rows in Q")

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
    diagnostics: dict[str, Any] = field(default_factory=dict)


@runtime_checkable
class SchurStepSolver(Protocol):
    """Contract used by the SQP driver (Step 2 of the outer loop)."""

    name: str
    eps_dz: float  # declared accuracy; inf means exact

    def step(self, qp: QpData) -> SchurSolution: ...


def _split(mat: np.ndarray, layout: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The stage blocks (count, size, size) and the trailing block of ``mat``."""
    count, size = layout
    idx = np.arange(count * size).reshape(count, size)
    return mat[idx[:, :, None], idx[:, None, :]], mat[count * size:, count * size:]


def stacked_blocks(mat: np.ndarray, layout: tuple[int, int]) -> np.ndarray:
    """The diagonal blocks of ``mat`` as one (count + 1)-stack.

    The stage blocks come first and the trailing block last.  A block
    smaller than the largest is bordered by an identity, so that one
    stacked call factors them all and a border adds only eigenvalues 1.
    """
    stages, tail = _split(mat, layout)
    size, rest = stages.shape[1], len(tail)
    stack = np.tile(np.eye(max(size, rest)), (len(stages) + 1, 1, 1))
    stack[:-1, :size, :size] = stages
    stack[-1, :rest, :rest] = tail
    return stack


def _chol(mat: np.ndarray, layout: tuple[int, int], label: str) -> np.ndarray:
    """Stacked lower Cholesky factors of ``stacked_blocks(mat, layout)``.

    A block that is not positive definite raises SingularityError naming
    the block with the lowest eigenvalue (the trailing block is stage
    ``count``) and that block's eigenvalue range.
    """
    try:
        return cho_factor(stacked_blocks(mat, layout))
    except np.linalg.LinAlgError as exc:
        stages, tail = _split(mat, layout)
        eigs = [*eigvalsh(stages), eigvalsh(tail)]
        k = int(np.argmin([e[0] if e.size else np.inf for e in eigs]))
        where = f"{label} stage block {k}" if len(stages) else label
        raise SingularityError(
            f"{where} is not positive definite "
            f"(eig range [{eigs[k][0]:.3e}, {eigs[k][-1]:.3e}])"
        ) from exc


def _apply_blocks(inverses: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Q^{-1} rhs from the inverses of Q's ``_split`` blocks.

    The inverses are applied by matmul: ``np.linalg.solve`` copies its
    right-hand side one column at a time, so on the m_eq columns of A^T it
    took 9x as long as the inversions and the matmul together (HIV N = 160,
    5 x 5 blocks, one BLAS thread on x86-64).
    """
    stages, tail = inverses
    count, size = stages.shape[:2]
    end = count * size
    cols = rhs.reshape(len(rhs), -1)
    k = cols.shape[1]
    out = np.empty(cols.shape)
    out[:end] = (stages @ cols[:end].reshape(count, size, k)).reshape(end, k)
    out[end:] = tail @ cols[end:]
    return out.reshape(rhs.shape)


def exact_step(qp: QpData) -> SchurSolution:
    """Block elimination with Q inverted block by block and S solved densely.

    Q's positive definiteness is certified by ``qp.chol_Q`` when present and
    tested here otherwise; S's is tested by one Cholesky factorization.  A
    Q block or an S that is not positive definite raises SingularityError.
    """
    if qp.chol_Q is None:
        _chol(qp.Q, qp.layout, "Q")
    stages, tail = _split(qp.Q, qp.layout)
    inverses = np.linalg.inv(stages), np.linalg.inv(tail)
    diag: dict[str, Any] = {"solver": "exact"}

    if qp.m_eq == 0:
        dz = _apply_blocks(inverses, -qp.g)
        lam = np.zeros(0)
    else:
        qinv_at = _apply_blocks(inverses, qp.A.T)
        s_mat = qp.A @ qinv_at
        s_mat = 0.5 * (s_mat + s_mat.T)
        b = -qp.r - qp.A @ _apply_blocks(inverses, qp.g)
        _chol(s_mat, (0, 0), "Schur complement S")
        lam = np.linalg.solve(s_mat, b)
        dz = -_apply_blocks(inverses, qp.g + qp.A.T @ lam)

    return SchurSolution(dz=dz, lam=lam, diagnostics=diag)


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

    return SchurSolution(
        dz=dz,
        lam=sol.lam,
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

