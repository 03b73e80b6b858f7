"""Schur-complement solvers for the equality-constrained QP step.

Each iteration of the barrier SQP produces the KKT system

    [Q  A^T] [dz]   [-g]
    [A   0 ] [lam] = [ r]

which is solved by block elimination: S = A Q^{-1} A^T, b = -r - A Q^{-1} g,
S lam = b, Q dz = -(g + A^T lam).  The solver interface is shared by the
exact backend, the bounded-error-injection backend, and the simulated
quantum backend (see qschur).

``QpData`` holds Q and A as their blocks.  Q is block diagonal: a stack of
equal stage blocks and one trailing block, the tail, which counts as the
last stage.  A is block bidiagonal and held as its row blocks
(``RowBlocks``): row block k touches stage k - 1 and stage k.  S is then
block tridiagonal.  The exact step inverts Q's blocks by stacked
``np.linalg.inv`` and forms S's diagonal and off-diagonal blocks from
Q^{-1}'s and A's blocks.  It certifies S positive definite by an odd-even
block reduction whose pivots are tested by one stacked Cholesky
factorization; no factored block is larger than a row block.  S is then
scattered into one dense array and solved by ``np.linalg.solve``: that
LU solve is the one O(m_eq^3) piece left.

The routines come from numpy alone: ``cho_factor`` and ``eigvalsh`` are
module attributes so that perfbench's tracer can wrap them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np
import numpy.random  # noqa: F401 -- numpy loads it lazily; load it before any solve
from numpy.linalg import cholesky as cho_factor, eigvalsh


class SingularityError(RuntimeError):
    """Cholesky factorization failed; carries condition diagnostics."""


@dataclass(frozen=True)
class RowBlocks:
    """A block-bidiagonal matrix held as its row blocks.

    The columns fall into ``count`` stages of ``size`` columns and a tail of
    ``rest`` columns, the tail counting as stage ``count``; the rows fall
    into ``count + 1`` row blocks of ``rows`` rows.  Row block k touches
    stage k - 1 and stage k:

        stages (count, rows, size)  row block k on stage k, k < count
        sub    (count, rows, size)  row block k + 1 on stage k
        tail   (rows, rest)         row block count on the tail

    A transcribed OCP's equality Jacobian has the pin and gap rows of
    stage k on z_k as ``stages[k]``, [I 0], the dynamics blocks
    -[F_k G_k] as ``sub[k]`` and the last gap's identity on x_N as
    ``tail``.  A matrix without stages is one row block on the tail, with
    ``stages`` and ``sub`` of shape (0, rows, 0).
    """

    stages: np.ndarray
    sub: np.ndarray
    tail: np.ndarray

    def __post_init__(self):
        if self.stages.ndim != 3:
            raise ValueError("stages must be a stack of blocks (count, rows, size)")
        if self.sub.shape != self.stages.shape:
            raise ValueError("sub must have the shape of stages")
        if self.tail.ndim != 2 or len(self.tail) != self.stages.shape[1]:
            raise ValueError("tail must have the rows of each row block")

    @property
    def shape(self) -> tuple[int, int]:
        count, rows, size = self.stages.shape
        return (count + 1) * rows, count * size + self.tail.shape[1]

    def dot(self, y: np.ndarray) -> np.ndarray:
        """The product with a vector y of the column count."""
        count, rows, size = self.stages.shape
        ys = y[:count * size].reshape(count, size, 1)
        out = np.empty((count + 1, rows))
        out[:-1] = (self.stages @ ys)[..., 0]
        out[-1] = self.tail @ y[count * size:]
        out[1:] = (self.sub @ ys)[..., 0] + out[1:]  # stage k - 1 first
        return out.ravel()

    def tdot(self, lam: np.ndarray) -> np.ndarray:
        """The transpose's product with a vector lam of the row count."""
        count, rows, size = self.stages.shape
        lams = lam.reshape(count + 1, rows, 1)
        out = np.empty(self.shape[1])
        out[:count * size] = (self.stages.mT @ lams[:-1]
                              + self.sub.mT @ lams[1:]).ravel()
        out[count * size:] = self.tail.T @ lams[-1, :, 0]
        return out

    def dense(self) -> np.ndarray:
        """The matrix as one array, zero outside its blocks."""
        count, rows, size = self.stages.shape
        out = np.zeros(self.shape)
        stacked = out[:, :count * size].reshape(count + 1, rows, count, size)
        at = np.arange(count)
        stacked[at, :, at, :] = self.stages
        stacked[at + 1, :, at, :] = self.sub
        out[count * rows:, count * size:] = self.tail
        return out


@dataclass
class QpData:
    """One iteration's quadratic subproblem data.

    Q is block diagonal and held as its blocks: the stage blocks
    ``Q_stages`` (count, size, size), then the trailing block ``Q_tail``.
    A is held as its row blocks on the same stages (``RowBlocks``), so S
    is block tridiagonal.  A transcribed OCP has N stage blocks of size
    n + m, a terminal block of size n and N + 1 row blocks of n rows; a QP
    without stage structure has all of Q in ``Q_tail`` and all of A in
    ``A.tail``.  ``dense_Q`` and ``dense_A`` assemble Q and A for the
    consumers that need them whole: the quantum pipeline's encodings and
    the test oracles.

    ``chol_Q`` holds lower Cholesky factors of Q's blocks, stacked as by
    ``stacked_blocks``.  ``build_qp`` fills it from its damping loop, and it
    certifies Q positive definite so that ``exact_step`` does not factor Q
    a second time; when it is None, ``exact_step`` factors Q itself.
    """

    Q_stages: np.ndarray
    Q_tail: np.ndarray
    A: RowBlocks
    g: np.ndarray
    r: np.ndarray
    chol_Q: np.ndarray | None = None
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        stages, tail = self.Q_stages, self.Q_tail
        if stages.ndim != 3 or stages.shape[1] != stages.shape[2]:
            raise ValueError("Q_stages must be a stack of square blocks")
        if tail.ndim != 2 or tail.shape[0] != tail.shape[1]:
            raise ValueError("Q_tail must be square")
        if self.A.shape[1] != self.n_z:
            raise ValueError("A must have n_z columns")
        count, _, size = self.A.stages.shape
        if (count, size) != stages.shape[:2]:
            raise ValueError("A.stages must have the count and size of Q_stages")
        if self.g.shape != (self.n_z,):
            raise ValueError("g must have length n_z")
        if self.r.shape != (self.m_eq,):
            raise ValueError("r must have length m_eq")

    @property
    def n_z(self) -> int:
        count, size = self.Q_stages.shape[:2]
        return count * size + len(self.Q_tail)

    @property
    def m_eq(self) -> int:
        return self.A.shape[0]

    def dense_Q(self) -> np.ndarray:
        """Q as one n_z x n_z array, zero outside its blocks."""
        count, size = self.Q_stages.shape[:2]
        idx = np.arange(count * size).reshape(count, size)
        q = np.zeros((self.n_z, self.n_z))
        q[idx[:, :, None], idx[:, None, :]] = self.Q_stages
        q[count * size:, count * size:] = self.Q_tail
        return q

    def dense_A(self) -> np.ndarray:
        """A as one m_eq x n_z array, zero outside its blocks."""
        return self.A.dense()


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


def stacked_blocks(stages: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """The stage blocks (count, size, size) and the trailing block as one
    (count + 1)-stack, the trailing block last.

    A block smaller than the largest is bordered by an identity, so that one
    stacked call factors them all and a border adds only eigenvalues 1.
    """
    size, rest = stages.shape[1], len(tail)
    stack = np.tile(np.eye(max(size, rest)), (len(stages) + 1, 1, 1))
    stack[:-1, :size, :size] = stages
    stack[-1, :rest, :rest] = tail
    return stack


def _chol(stages: np.ndarray, tail: np.ndarray, label: str) -> np.ndarray:
    """Stacked lower Cholesky factors of ``stacked_blocks(stages, tail)``.

    A block that is not positive definite raises SingularityError naming
    the block with the lowest eigenvalue (the trailing block is stage
    ``count``) and that block's eigenvalue range.
    """
    try:
        return cho_factor(stacked_blocks(stages, tail))
    except np.linalg.LinAlgError as exc:
        eigs = [*eigvalsh(stages), eigvalsh(tail)]
        k = _lowest(eigs)
        where = f"{label} stage block {k}" if len(stages) else label
        raise SingularityError(
            f"{where} is not positive definite "
            f"(eig range [{eigs[k][0]:.3e}, {eigs[k][-1]:.3e}])"
        ) from exc


def _lowest(eigs) -> int:
    """Index of the ascending eigenvalue array with the lowest first entry."""
    return int(np.argmin([e[0] if e.size else np.inf for e in eigs]))


def certify_block_tridiagonal(diag: np.ndarray, off: np.ndarray) -> None:
    """Raise SingularityError unless the symmetric block-tridiagonal S is
    positive definite.

    ``diag`` (M, r, r) holds S's diagonal blocks, block k at stage k, and
    ``off`` (M - 1, r, r) the blocks S_{k,k+1} above them.  An odd-even
    block reduction runs in levels: each level takes its even-numbered
    diagonal blocks as pivots and leaves the Schur complement on the
    odd-numbered ones, again block tridiagonal with half the blocks; the
    last level's one block is a pivot too.  S is congruent to the block
    diagonal of its M pivots, so it is positive definite if and only if
    every pivot is (Sylvester's law of inertia).  The pivots are tested by
    one stacked Cholesky factorization.  A singular or indefinite pivot
    raises SingularityError naming the stage of the pivot with the lowest
    eigenvalue and that pivot's eigenvalue range.
    """
    stage = np.arange(len(diag))
    pivots, stages = [], []
    try:
        while True:
            pivots.append(diag[0::2])
            stages.append(stage[0::2])
            if len(diag) == 1:
                break
            inv = np.linalg.inv(diag[0::2])
            odd = len(diag) // 2
            left, right = off[0::2], off[1::2]  # S_{j-1,j} and S_{j,j+1}, j odd
            from_left = left.mT @ inv[:odd]
            from_right = right @ inv[1:len(right) + 1]
            diag = diag[1::2] - from_left @ left
            diag[:len(right)] -= from_right @ right.mT
            off = -(from_right[:odd - 1] @ off[2::2])
            stage = stage[1::2]
        cho_factor(np.concatenate(pivots))
    except np.linalg.LinAlgError as exc:
        eigs = eigvalsh(np.concatenate(pivots))
        k = _lowest(eigs)
        raise SingularityError(
            f"Schur complement S is not positive definite: its pivot at stage "
            f"{np.concatenate(stages)[k]} has eig range "
            f"[{eigs[k][0]:.3e}, {eigs[k][-1]:.3e}]"
        ) from exc


def _apply_blocks(inverses: tuple[np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
    """Q^{-1} v from the inverses of Q's stage blocks and trailing block."""
    stages, tail = inverses
    count, size = stages.shape[:2]
    out = np.empty(len(v))
    out[:count * size] = (stages @ v[:count * size].reshape(count, size, 1)).ravel()
    out[count * size:] = tail @ v[count * size:]
    return out


def schur_blocks(qp: QpData, inverses: tuple[np.ndarray, np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """S = A Q^{-1} A^T as its diagonal blocks (count + 1, rows, rows) and
    the blocks S_{k,k+1} above them (count, rows, rows).

    X = Q^{-1} A^T is formed block by block.  Each diagonal block is summed
    in stage order, the stage k - 1 term first, as the dense product A X
    sums its columns.  Both off-diagonal triangles are formed and averaged,
    as S is symmetrized.
    """
    (inv_stages, inv_tail), a = inverses, qp.A
    count, rows = a.stages.shape[:2]
    x_own = inv_stages @ a.stages.mT    # Q_k^{-1} (row block k on stage k)^T
    x_next = inv_stages @ a.sub.mT      # Q_k^{-1} (row block k + 1 on stage k)^T
    diag = np.empty((count + 1, rows, rows))
    diag[:-1] = a.stages @ x_own
    diag[-1] = a.tail @ (inv_tail @ a.tail.T)
    diag[1:] = a.sub @ x_next + diag[1:]
    off = 0.5 * (a.stages @ x_next + (a.sub @ x_own).mT)
    return 0.5 * (diag + diag.mT), off


def exact_step(qp: QpData) -> SchurSolution:
    """Block elimination with Q inverted and S assembled block by block.

    Q's positive definiteness is certified by ``qp.chol_Q`` when present and
    tested here otherwise; S's is certified by the odd-even reduction of
    ``certify_block_tridiagonal``.  A Q block or an S that is not positive
    definite raises SingularityError.  S is then solved densely by LU.
    """
    if qp.chol_Q is None:
        _chol(qp.Q_stages, qp.Q_tail, "Q")
    inverses = np.linalg.inv(qp.Q_stages), np.linalg.inv(qp.Q_tail)
    diag: dict[str, Any] = {"solver": "exact"}

    if qp.m_eq == 0:
        dz = _apply_blocks(inverses, -qp.g)
        lam = np.zeros(0)
    else:
        s_diag, s_off = schur_blocks(qp, inverses)
        certify_block_tridiagonal(s_diag, s_off)
        count, rows = s_diag.shape[:2]
        s_mat = np.zeros((qp.m_eq, qp.m_eq))
        stacked, at = s_mat.reshape(count, rows, count, rows), np.arange(count)
        stacked[at, :, at, :] = s_diag
        stacked[at[:-1], :, at[1:], :] = s_off
        stacked[at[1:], :, at[:-1], :] = s_off.mT
        b = -qp.r - qp.A.dot(_apply_blocks(inverses, qp.g))
        lam = np.linalg.solve(s_mat, b)
        dz = -_apply_blocks(inverses, qp.g + qp.A.tdot(lam))

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

