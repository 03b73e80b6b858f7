"""Simulated block-encoding arithmetic.

A block encoding represents a matrix A as alpha * (top-left block of a
larger operator), together with an error bound:

    || A - alpha * block || <= eps.

``encode`` is exact (eps = 0); error enters only through an inversion's
polynomial (``qsvt.qsvt_invert``), and the composition rules carry it on.

Only the logical block is stored; the unitary completion is never needed
by any downstream operation.  The composition rules (Gilyen, Su, Low &
Wiebe, arXiv:1806.01838, Lemma 30) act on the logical blocks alone; the
power-of-two register an encoding occupies is derived from its block's
shape and is used for counting only.

A block-diagonal operand, such as the KKT matrix Q, is encoded as a
stage-select encoding: its logical block is a ``schur.BlockDiagonal``,
which selects one stage block per stage, so its normalization is the
largest block norm, max_k ||Q_k|| = ||Q||.  Scaling and inversion act on
such a block stage by stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schur import BlockDiagonal


class EncodingError(ValueError):
    pass


def _as_matrix(operand: np.ndarray) -> np.ndarray:
    """A 2-D view of the operand; a vector becomes one column."""
    arr = np.asarray(operand, dtype=float)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    if arr.ndim == 2:
        return arr
    raise EncodingError(f"operand must be a vector or matrix, got ndim={arr.ndim}")


def operator_norm(operand: np.ndarray | BlockDiagonal) -> float:
    """Spectral norm for matrices, the largest block norm for a
    ``BlockDiagonal``, Euclidean norm for vectors."""
    if isinstance(operand, BlockDiagonal):
        return float(max([operator_norm(operand.tail),
                          *np.linalg.norm(operand.stages, 2, axis=(1, 2))]))
    arr = np.asarray(operand, dtype=float)
    if arr.ndim <= 1 or 1 in arr.shape:
        return float(np.linalg.norm(arr.ravel()))
    return float(np.linalg.norm(arr, 2))


@dataclass(frozen=True)
class BlockEncoding:
    """An (alpha, eps) block encoding of a matrix or vector.

    ``block`` is the logical block, which approximates operand / alpha; a
    vector is held as one column, and a block-diagonal operand as a
    ``BlockDiagonal``.
    """

    block: np.ndarray | BlockDiagonal
    alpha: float
    eps: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise EncodingError("normalization alpha must be positive")
        if self.eps < 0.0:
            raise EncodingError("encoding error bound must be nonnegative")
        if len(self.block.shape) != 2:
            raise EncodingError("block must be a matrix")

    @property
    def size(self) -> int:
        """Side of the power-of-two register that holds the block."""
        return 1 << (max(self.block.shape) - 1).bit_length()

    def represented(self) -> np.ndarray:
        """alpha * block: the matrix this encoding stands for."""
        return self.alpha * self.block


def encode(operand: np.ndarray | BlockDiagonal) -> BlockEncoding:
    """Encode a matrix or vector (as one column), or a ``BlockDiagonal``
    as its stage-select encoding, exactly.

    alpha is the operand's spectral norm (tight), which for a
    ``BlockDiagonal`` is its largest block norm, or 1 for a zero operand,
    whose zero block is exact at any alpha.  The encoding has eps = 0.
    """
    blocked = isinstance(operand, BlockDiagonal)
    op = operand if blocked else _as_matrix(operand)
    arrays = (op.stages, op.tail) if blocked else (op,)
    if not all(np.all(np.isfinite(arr)) for arr in arrays):
        raise EncodingError("operand must be finite")
    alpha = operator_norm(op) or 1.0
    return BlockEncoding(block=op / alpha, alpha=alpha, eps=0.0)


def be_mul(u: BlockEncoding, v: BlockEncoding) -> BlockEncoding:
    """Product encoding of (U's operand) @ (V's operand).

    Composes as (alpha_u * alpha_v, alpha_u*eps_v + alpha_v*eps_u)
    (Gilyen, Su, Low & Wiebe, arXiv:1806.01838, Lemma 30).
    """
    if u.block.shape[1] != v.block.shape[0]:
        raise EncodingError(
            f"logical dimensions incompatible: {u.block.shape} @ {v.block.shape}")
    return BlockEncoding(
        block=u.block @ v.block,
        alpha=u.alpha * v.alpha,
        eps=u.alpha * v.eps + v.alpha * u.eps,
    )


def be_add(u: BlockEncoding, v: BlockEncoding) -> BlockEncoding:
    """LCU sum encoding of (U's operand) + (V's operand).

    Composes as (alpha_u + alpha_v, eps_u + eps_v);
    the stored block is the alpha-weighted average of the operand blocks.
    """
    if u.block.shape != v.block.shape:
        raise EncodingError("logical dimensions must match for addition")
    alpha = u.alpha + v.alpha
    return BlockEncoding(
        block=(u.alpha * u.block + v.alpha * v.block) / alpha,
        alpha=alpha,
        eps=u.eps + v.eps,
    )


def be_neg(u: BlockEncoding) -> BlockEncoding:
    """Sign flip absorbed into the encoding; alpha and eps unchanged."""
    return BlockEncoding(block=-u.block, alpha=u.alpha, eps=u.eps)


def be_transpose(u: BlockEncoding) -> BlockEncoding:
    """Transpose encoding; alpha and eps unchanged."""
    return BlockEncoding(block=u.block.T, alpha=u.alpha, eps=u.eps)


def be_rescale(u: BlockEncoding, gamma: float) -> BlockEncoding:
    """Move a factor gamma from alpha into the block (alpha*block invariant).

    Used to renormalize a loosely-normalized encoding so its top singular
    value approaches 1 before inversion; the represented matrix and the
    error bound are untouched.
    """
    if gamma <= 0.0:
        raise EncodingError("rescale factor must be positive")
    return BlockEncoding(block=gamma * u.block, alpha=u.alpha / gamma, eps=u.eps)
