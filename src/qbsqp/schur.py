"""Schur-complement solvers for the equality-constrained QP step.

Each iteration of the barrier SQP produces the KKT system

    [Q  A^T] [dz]   [-g]
    [A   0 ] [lam] = [ r]

which is solved by block elimination: S = A Q^{-1} A^T, b = -r - A Q^{-1} g,
S lam = b, Q dz = -(g + A^T lam).  The solver interface is shared by the
exact backend, the bounded-error-injection backend, and the simulated
quantum backend (see qschur).

Q is a ``BlockDiagonal``: equal stage blocks and a trailing block, the
tail, which counts as the last stage.  A is a ``RowBlocks``: row block k
touches stage k - 1 and stage k, so S is a ``BlockTridiagonal``.  The exact
step inverts Q by its blocks and forms S's diagonal and off-diagonal blocks
from Q^{-1}'s and A's.  S is factored by odd-even block cyclic reduction,
whose pivots are certified positive definite by one stacked Cholesky
factorization; no factored block is larger than a row block, and the
factorization and its solve cost O(N) block operations.  An S of at most
``DENSE_SOLVE_BLOCKS`` blocks is solved by one dense LU instead (see
``TridiagonalFactor.solve``).

The routines come from numpy alone: ``cho_factor`` and ``eigvalsh`` are
module attributes so that perfbench's tracer can wrap them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np
from numpy.linalg import cholesky as cho_factor, eigvalsh


class SingularityError(RuntimeError):
    """Cholesky factorization failed; carries condition diagnostics."""


@dataclass(frozen=True)
class BlockDiagonal:
    """A block-diagonal matrix held as its blocks: ``stages`` (count, rows,
    size), then one trailing block ``tail``, which counts as stage
    ``count``.  Blocks may be rectangular or have no rows; a matrix without
    stages has ``stages`` of shape (0, 0, 0).  A transcribed OCP's Q and
    cost Hessian have N stage blocks on the z_k and one on x_N, and so has
    its inequality Jacobian: the path rows, then the terminal rows.
    """

    stages: np.ndarray
    tail: np.ndarray

    # numpy scalars defer to the operators below instead of treating the
    # matrix as an object array.
    __array_ufunc__ = None

    def __post_init__(self):
        if self.stages.ndim != 3:
            raise ValueError("stages must be a stack of blocks (count, rows, size)")
        if self.tail.ndim != 2:
            raise ValueError("tail must have the rows and columns of one block")

    def __mul__(self, c: float) -> BlockDiagonal:
        return BlockDiagonal(c * self.stages, c * self.tail)

    __rmul__ = __mul__

    def __truediv__(self, c: float) -> BlockDiagonal:
        return BlockDiagonal(self.stages / c, self.tail / c)

    @property
    def shape(self) -> tuple[int, int]:
        count, rows, size = self.stages.shape
        return count * rows + len(self.tail), count * size + self.tail.shape[1]

    @property
    def T(self) -> BlockDiagonal:
        return BlockDiagonal(self.stages.mT, self.tail.T)

    def dot(self, y: np.ndarray) -> np.ndarray:
        """The product with a vector y of the column count."""
        count, rows, size = self.stages.shape
        ys = y[:count * size].reshape(count, size, 1)
        out = np.empty(self.shape[0])
        out[:count * rows] = (self.stages @ ys).ravel()
        out[count * rows:] = self.tail @ y[count * size:]
        return out

    def tdot(self, w: np.ndarray) -> np.ndarray:
        """The transpose's product with a vector w of the row count."""
        return self.T.dot(w)

    def dense(self) -> np.ndarray:
        """The matrix as one array, zero outside its blocks."""
        count, rows, size = self.stages.shape
        out = np.zeros(self.shape)
        blocks = out[:count * rows, :count * size].reshape(count, rows, count, size)
        blocks[np.arange(count), :, np.arange(count), :] = self.stages
        out[count * rows:, count * size:] = self.tail
        return out

    def inv(self) -> BlockDiagonal:
        """The inverse, block by block; the blocks must be square."""
        return BlockDiagonal(np.linalg.inv(self.stages), np.linalg.inv(self.tail))

    def stacked(self) -> np.ndarray:
        """The square blocks as one (count + 1)-stack, the tail last.

        A block smaller than the largest is bordered by an identity, so that
        one stacked call factors them all and a border adds only
        eigenvalues 1.
        """
        size, rest = self.stages.shape[1], len(self.tail)
        stack = np.tile(np.eye(max(size, rest)), (len(self.stages) + 1, 1, 1))
        stack[:-1, :size, :size] = self.stages
        stack[-1, :rest, :rest] = self.tail
        return stack


@dataclass(frozen=True)
class RowBlocks:
    """A block-bidiagonal matrix held as its row blocks.

    The columns fall into the stages of ``diag``, the tail counting as
    stage ``count``, and the rows into ``count + 1`` row blocks of ``rows``
    rows.  Row block k touches stage k - 1 and stage k: ``diag`` holds its
    block on stage k, and ``sub`` (count, rows, size) row block k + 1's on
    stage k.  A transcribed OCP's equality Jacobian has [I 0] on each z_k,
    the dynamics blocks -[F_k G_k] below them and the last gap's identity
    on x_N as the tail.  A matrix without stages is one row block on the
    tail, with ``diag.stages`` and ``sub`` of shape (0, rows, 0).
    """

    diag: BlockDiagonal
    sub: np.ndarray

    def __post_init__(self):
        stages, tail = self.diag.stages, self.diag.tail
        if self.sub.shape != stages.shape:
            raise ValueError("sub must have the shape of stages")
        if len(tail) != stages.shape[1]:
            raise ValueError("tail must have the rows of each row block")

    @property
    def shape(self) -> tuple[int, int]:
        return self.diag.shape

    def dot(self, y: np.ndarray) -> np.ndarray:
        """The product with a vector y of the column count."""
        count, rows, size = self.sub.shape
        out = self.diag.dot(y)
        out[rows:] += (self.sub @ y[:count * size].reshape(count, size, 1)).ravel()
        return out

    def tdot(self, lam: np.ndarray) -> np.ndarray:
        """The transpose's product with a vector lam of the row count."""
        count, rows, size = self.sub.shape
        out = self.diag.tdot(lam)
        out[:count * size] += (self.sub.mT @ lam[rows:].reshape(count, rows, 1)).ravel()
        return out

    def dense(self) -> np.ndarray:
        """The matrix as one array, zero outside its blocks."""
        count, rows, size = self.sub.shape
        out = self.diag.dense()
        blocks = out[rows:, :count * size].reshape(count, rows, count, size)
        blocks[np.arange(count), :, np.arange(count), :] = self.sub
        return out


@dataclass
class QpData:
    """One iteration's quadratic subproblem data.

    Q is a ``BlockDiagonal`` of square blocks and A a ``RowBlocks`` on the
    same stages.  A QP without stage structure has all of Q and A in their
    tails.  ``Q.dense()`` and ``A.dense()`` assemble them for the quantum
    pipeline's encodings and the test oracles.

    ``chol_Q`` holds lower Cholesky factors of ``Q.stacked()``.  ``build_qp``
    fills it from its damping loop, and it certifies Q positive definite so
    that ``exact_step`` does not factor Q a second time; when it is None,
    ``exact_step`` factors Q itself.
    """

    Q: BlockDiagonal
    A: RowBlocks
    g: np.ndarray
    r: np.ndarray
    chol_Q: np.ndarray | None = None
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        stages, tail = self.Q.stages, self.Q.tail
        if stages.shape[1] != stages.shape[2] or tail.shape[0] != tail.shape[1]:
            raise ValueError("Q must have square blocks")
        if self.A.shape[1] != self.n_z:
            raise ValueError("A must have n_z columns")
        count, _, size = self.A.sub.shape
        if (count, size) != stages.shape[:2]:
            raise ValueError("A must have the stage count and size of Q")
        if self.g.shape != (self.n_z,):
            raise ValueError("g must have length n_z")
        if self.r.shape != (self.m_eq,):
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
    diagnostics: dict[str, Any] = field(default_factory=dict)


@runtime_checkable
class SchurStepSolver(Protocol):
    """Contract used by the SQP driver (Step 2 of the outer loop)."""

    name: str  # the label a run's manifest records

    def step(self, qp: QpData) -> SchurSolution: ...


def _chol(q: BlockDiagonal, label: str) -> np.ndarray:
    """Stacked lower Cholesky factors of ``q.stacked()``.

    A block that is not positive definite raises SingularityError naming
    the block with the lowest eigenvalue (the trailing block is stage
    ``count``) and that block's eigenvalue range.
    """
    try:
        return cho_factor(q.stacked())
    except np.linalg.LinAlgError as exc:
        eigs = [*eigvalsh(q.stages), eigvalsh(q.tail)]
        k = _lowest(eigs)
        where = f"{label} stage block {k}" if len(q.stages) else label
        raise SingularityError(
            f"{where} is not positive definite "
            f"(eig range [{eigs[k][0]:.3e}, {eigs[k][-1]:.3e}])"
        ) from exc


def _lowest(eigs) -> int:
    """Index of the ascending eigenvalue array with the lowest first entry."""
    return int(np.argmin([e[0] if e.size else np.inf for e in eigs]))


# Block count up to which ``TridiagonalFactor.solve`` solves S by one dense
# LU instead of the reduction's substitutions, for two reasons.  Speed: the
# LU of the assembled S is faster below a crossover measured between 21
# and 29 blocks of 3 x 3 (BENCH_block_tridiagonal.json), where the
# substitutions' per-level numpy calls dominate.  Unchanged outputs: the
# sweep's reference solve stops where a non-descent test fires, so its
# point follows the step's last digits (ROADMAP item 1); with the
# substitutions at every size, the hiv_sweep noise-free tails move by 2e-4
# relative.  Remove the threshold once that reference solve converges.
DENSE_SOLVE_BLOCKS = 32


@dataclass(frozen=True)
class BlockTridiagonal:
    """A symmetric block-tridiagonal matrix held as its diagonal blocks
    ``diag`` (M, r, r), block k at stage k, and the blocks S_{k,k+1} above
    them, ``off`` (M - 1, r, r).  M is at least 1, and the blocks may have
    no rows.
    """

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        if self.diag.ndim != 3 or self.diag.shape[1] != self.diag.shape[2] \
                or not len(self.diag):
            raise ValueError("diag must be a stack of square blocks (count, rows, rows)")
        count, rows = self.diag.shape[:2]
        if self.off.shape != (count - 1, rows, rows):
            raise ValueError("off must hold count - 1 blocks of the size of diag's")

    @property
    def shape(self) -> tuple[int, int]:
        count, rows = self.diag.shape[:2]
        return count * rows, count * rows

    def dense(self) -> np.ndarray:
        """The matrix as one array, zero outside its blocks."""
        count, rows = self.diag.shape[:2]
        out = np.zeros(self.shape)
        blocks, at = out.reshape(count, rows, count, rows), np.arange(count)
        blocks[at, :, at, :] = self.diag
        blocks[at[:-1], :, at[1:], :] = self.off
        blocks[at[1:], :, at[:-1], :] = self.off.mT
        return out

    def factor(self) -> TridiagonalFactor:
        """Factor the matrix by odd-even block cyclic reduction, certifying
        it positive definite.

        The reduction runs in levels: each level takes its even-numbered
        diagonal blocks as pivots and leaves the Schur complement on the
        odd-numbered ones, again block tridiagonal with half the blocks;
        the last level's one block is a pivot too.  S is congruent to the
        block diagonal of its M pivots, so it is positive definite if and
        only if every pivot is (Sylvester's law of inertia).  The pivots are
        tested by one stacked Cholesky factorization.  A singular or
        indefinite pivot raises SingularityError naming the stage of the
        pivot with the lowest eigenvalue and that pivot's eigenvalue range.
        Each level keeps its pivots' inverses and the products S_{j,j-1}
        D_{j-1}^{-1} and S_{j,j+1} D_{j+1}^{-1} of each odd block j with
        its neighbours' inverses, which the substitutions reuse.
        """
        diag, off = self.diag, self.off
        stage = np.arange(len(diag))
        pivots, stages, levels = [], [], []
        try:
            while True:
                pivots.append(diag[0::2])
                stages.append(stage[0::2])
                inv = np.linalg.inv(diag[0::2])
                odd = len(diag) // 2
                left, right = off[0::2], off[1::2]  # S_{j-1,j} and S_{j,j+1}, j odd
                from_left = left.mT @ inv[:odd]
                from_right = right @ inv[1:len(right) + 1]
                levels.append((inv, from_left, from_right))
                if not odd:
                    break
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
        return TridiagonalFactor(self, tuple(levels))


@dataclass(frozen=True)
class TridiagonalFactor:
    """A ``BlockTridiagonal`` factored by ``BlockTridiagonal.factor``.

    ``levels`` holds, for each level of the reduction, its pivots' inverses
    and the neighbour products of its odd blocks; the last level has one
    pivot and no odd blocks.
    """

    matrix: BlockTridiagonal
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution x of S x = b: by one dense LU at most
        ``DENSE_SOLVE_BLOCKS`` blocks, by ``substitute`` above."""
        if len(self.matrix.diag) <= DENSE_SOLVE_BLOCKS:
            return np.linalg.solve(self.matrix.dense(), b)
        return self.substitute(b)

    def substitute(self, b: np.ndarray) -> np.ndarray:
        """The solution x of S x = b by the reduction's substitutions.

        b is reduced level by level onto the odd blocks, the last level's
        pivot is solved, and the even blocks of each level are then
        recovered from their odd neighbours, last level first.
        """
        count, rows = self.matrix.diag.shape[:2]
        rhs = [b.reshape(count, rows, 1)]
        for _, from_left, from_right in self.levels[:-1]:
            even = rhs[-1][0::2]
            reduced = rhs[-1][1::2] - from_left @ even[:len(from_left)]
            reduced[:len(from_right)] -= from_right @ even[1:len(from_right) + 1]
            rhs.append(reduced)
        x = self.levels[-1][0] @ rhs[-1]
        for (inv, from_left, from_right), level_b in zip(self.levels[-2::-1], rhs[-2::-1]):
            # D_i^{-1} S_{i,i+1} = (S_{i+1,i} D_i^{-1})^T, as D_i is symmetric.
            even = inv @ level_b[0::2]
            even[:len(x)] -= from_left.mT @ x
            even[1:len(from_right) + 1] -= from_right.mT @ x[:len(from_right)]
            full = np.empty_like(level_b)
            full[0::2], full[1::2] = even, x
            x = full
        return x.ravel()


def schur_blocks(a: RowBlocks, q_inv: BlockDiagonal) -> BlockTridiagonal:
    """S = A Q^{-1} A^T as a ``BlockTridiagonal``: its diagonal blocks
    (count + 1, rows, rows) and the blocks S_{k,k+1} above them (count,
    rows, rows).

    X = Q^{-1} A^T is formed block by block.  Each diagonal block is summed
    in stage order, the stage k - 1 term first, as the dense product A X
    sums its columns.  Both off-diagonal triangles are formed and averaged,
    as S is symmetrized.
    """
    own, tail = a.diag.stages, a.diag.tail
    count, rows = own.shape[:2]
    x_own = q_inv.stages @ own.mT     # Q_k^{-1} (row block k on stage k)^T
    x_next = q_inv.stages @ a.sub.mT  # Q_k^{-1} (row block k + 1 on stage k)^T
    diag = np.empty((count + 1, rows, rows))
    diag[:-1] = own @ x_own
    diag[-1] = tail @ (q_inv.tail @ tail.T)
    diag[1:] = a.sub @ x_next + diag[1:]
    off = 0.5 * (own @ x_next + (a.sub @ x_own).mT)
    return BlockTridiagonal(0.5 * (diag + diag.mT), off)


def exact_step(qp: QpData) -> SchurSolution:
    """Block elimination with Q inverted and S factored block by block.

    Q's positive definiteness is certified by ``qp.chol_Q`` when present and
    tested here otherwise; S's by ``BlockTridiagonal.factor``.  A Q block or
    an S that is not positive definite raises SingularityError.  S lam = b
    is solved by the factor: in O(N) block operations above
    ``DENSE_SOLVE_BLOCKS`` blocks, by one dense LU at or below.
    """
    if qp.chol_Q is None:
        _chol(qp.Q, "Q")
    q_inv = qp.Q.inv()
    b = -qp.r - qp.A.dot(q_inv.dot(qp.g))
    lam = schur_blocks(qp.A, q_inv).factor().solve(b)
    dz = -q_inv.dot(qp.g + qp.A.tdot(lam))
    return SchurSolution(dz=dz, lam=lam, diagnostics={"solver": "exact"})


class ExactSchurSolver:
    name = "exact"

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
    direction = rng.standard_normal(qp.n_z)
    nrm = np.linalg.norm(direction)
    while nrm == 0.0:  # pragma: no cover - probability zero
        direction = rng.standard_normal(qp.n_z)
        nrm = np.linalg.norm(direction)
    radius = rng.uniform(0.0, 1.0)
    radius = eps * (1.0 - radius)  # in (0, eps], or 0 at eps = 0
    dz = sol.dz + (radius / nrm) * direction

    return SchurSolution(
        dz=dz,
        lam=sol.lam,
        diagnostics={"solver": "noisy", "eps_dz": eps, "noise_norm": radius},
    )


class NoisySchurSolver:
    """Bounded-error backend used for the perturbation sweeps.

    Its first construction in a process loads ``numpy.random``, which numpy
    imports on first access; the exact and quantum backends never load it.
    """

    def __init__(self, eps: float = 0.0, seed: int = 0):
        self.name = f"noisy:{eps:g}"
        self._eps = eps
        self._rng = np.random.default_rng(seed)

    def step(self, qp: QpData) -> SchurSolution:
        return noisy_step(qp, self._eps, self._rng)

