"""Simulated block-encoding arithmetic.

A block encoding represents a matrix A as alpha * (top-left block of a
larger operator), together with an ancilla count and an error bound:

    || A - alpha * block || <= eps.

Only the padded top-left block is stored; the unitary completion is never
needed by any downstream operation, so ancilla counts are tracked as plain
integers.  All operands are padded to a power-of-two square so that
products and sums of encodings act on a common register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class EncodingError(ValueError):
    pass


def _next_pow2_dim(n: int) -> int:
    return 1 << max(0, math.ceil(math.log2(max(1, n))))


def _as_matrix(operand: np.ndarray) -> tuple[np.ndarray, bool]:
    """Return a 2-D view of the operand and whether it was a vector."""
    arr = np.asarray(operand, dtype=float)
    if arr.ndim == 1:
        return arr.reshape(-1, 1), True
    if arr.ndim == 2:
        return arr, False
    raise EncodingError(f"operand must be a vector or matrix, got ndim={arr.ndim}")


def operator_norm(operand: np.ndarray) -> float:
    """Spectral norm for matrices, Euclidean norm for vectors."""
    arr = np.asarray(operand, dtype=float)
    if arr.ndim <= 1 or 1 in arr.shape:
        return float(np.linalg.norm(arr.ravel()))
    return float(np.linalg.norm(arr, 2))


@dataclass(frozen=True)
class BlockEncoding:
    """An (alpha, ancillas, eps) block encoding of a padded operand.

    ``embedded`` is the full 2^s x 2^s array whose top-left
    ``logical_rows x logical_cols`` block approximates operand / alpha;
    every entry outside that block is exactly zero.  Vectors are stored
    in the first column (logical_cols == 1).
    """

    embedded: np.ndarray
    logical_rows: int
    logical_cols: int
    alpha: float
    ancillas: int
    eps: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise EncodingError("normalization alpha must be positive")
        if self.eps < 0.0:
            raise EncodingError("encoding error bound must be nonnegative")
        if self.ancillas < 0:
            raise EncodingError("ancilla count must be nonnegative")
        n = self.embedded.shape[0]
        if self.embedded.shape != (n, n) or n & (n - 1):
            raise EncodingError("embedded operator must be square with power-of-two size")
        if self.logical_rows > n or self.logical_cols > n:
            raise EncodingError("logical block exceeds embedded size")

    @property
    def size(self) -> int:
        return self.embedded.shape[0]

    @property
    def block(self) -> np.ndarray:
        """The logical (unpadded) block."""
        return self.embedded[: self.logical_rows, : self.logical_cols]

    def represented(self) -> np.ndarray:
        """alpha * block: the matrix this encoding stands for."""
        return self.alpha * self.block

    def error_against(self, operand: np.ndarray) -> float:
        """Definition-level error || operand - alpha * block ||."""
        op, _ = _as_matrix(operand)
        if op.shape != (self.logical_rows, self.logical_cols):
            raise EncodingError(
                f"operand shape {op.shape} does not match logical block "
                f"({self.logical_rows}, {self.logical_cols})"
            )
        return operator_norm(op - self.represented())


def _embed(block: np.ndarray, size: int) -> np.ndarray:
    r, c = block.shape
    out = np.zeros((size, size))
    out[:r, :c] = block
    return out


def encode(
    operand: np.ndarray,
    target_eps: float = 0.0,
    *,
    alpha: float | None = None,
    ancillas: int = 1,
    size: int | None = None,
    rng: np.random.Generator | None = None,
) -> BlockEncoding:
    """Encode a matrix or vector, padding to the next power-of-two square.

    alpha defaults to the operand's spectral norm (tight).  A positive
    ``target_eps`` injects representation noise of norm <= target_eps into
    the logical block, constructed so that the stored block keeps norm <= 1
    and the recorded eps remains a hard bound.
    """
    op, _ = _as_matrix(operand)
    if not np.all(np.isfinite(op)):
        raise EncodingError("operand must be finite")
    if target_eps < 0.0:
        raise EncodingError("target_eps must be nonnegative")

    nrm = operator_norm(op)
    if alpha is None:
        alpha = nrm
    if alpha <= 0.0:
        raise EncodingError("cannot normalize: operand is zero and alpha not overridden")
    if nrm > alpha * (1.0 + 1e-12):
        raise EncodingError(f"alpha={alpha} is below the operand norm {nrm}")

    dim = _next_pow2_dim(max(op.shape))
    if size is not None:
        if size < dim or size & (size - 1):
            raise EncodingError(f"size={size} must be a power of two >= {dim}")
        dim = size

    block = op.copy()
    if target_eps > 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        noise = rng.standard_normal(op.shape)
        nn = operator_norm(noise)
        if nn > 0.0:
            # Half budget for the draw, half for the norm-cap rescale below,
            # so the total representation error stays <= target_eps.
            scale = rng.uniform(0.25, 0.5) * target_eps
            block = block + (scale / nn) * noise
        over = operator_norm(block) / alpha
        if over > 1.0:
            block = block / over

    return BlockEncoding(
        embedded=_embed(block / alpha, dim),
        logical_rows=op.shape[0],
        logical_cols=op.shape[1],
        alpha=float(alpha),
        ancillas=ancillas,
        eps=float(target_eps),
    )


def be_mul(u: BlockEncoding, v: BlockEncoding) -> BlockEncoding:
    """Product encoding of (U's operand) @ (V's operand).

    Composes as (alpha_u * alpha_v, a_u + a_v, alpha_u*eps_v + alpha_v*eps_u)
    (Gilyen, Su, Low & Wiebe, arXiv:1806.01838, Lemma 30).
    """
    if u.size != v.size:
        raise EncodingError(f"embedded sizes differ: {u.size} vs {v.size}")
    if u.logical_cols != v.logical_rows:
        raise EncodingError(
            f"logical dimensions incompatible: ({u.logical_rows},{u.logical_cols}) @ "
            f"({v.logical_rows},{v.logical_cols})"
        )
    return BlockEncoding(
        embedded=u.embedded @ v.embedded,
        logical_rows=u.logical_rows,
        logical_cols=v.logical_cols,
        alpha=u.alpha * v.alpha,
        ancillas=u.ancillas + v.ancillas,
        eps=u.alpha * v.eps + v.alpha * u.eps,
    )


def be_add(u: BlockEncoding, v: BlockEncoding) -> BlockEncoding:
    """LCU sum encoding of (U's operand) + (V's operand).

    Composes as (alpha_u + alpha_v, max(a_u, a_v) + 1, eps_u + eps_v);
    the stored block is the alpha-weighted average of the operand blocks.
    """
    if u.size != v.size:
        raise EncodingError(f"embedded sizes differ: {u.size} vs {v.size}")
    if (u.logical_rows, u.logical_cols) != (v.logical_rows, v.logical_cols):
        raise EncodingError("logical dimensions must match for addition")
    alpha = u.alpha + v.alpha
    return BlockEncoding(
        embedded=(u.alpha * u.embedded + v.alpha * v.embedded) / alpha,
        logical_rows=u.logical_rows,
        logical_cols=u.logical_cols,
        alpha=alpha,
        ancillas=max(u.ancillas, v.ancillas) + 1,
        eps=u.eps + v.eps,
    )


def be_neg(u: BlockEncoding) -> BlockEncoding:
    """Sign flip absorbed into the encoding; alpha, ancillas, eps unchanged."""
    return BlockEncoding(
        embedded=-u.embedded,
        logical_rows=u.logical_rows,
        logical_cols=u.logical_cols,
        alpha=u.alpha,
        ancillas=u.ancillas,
        eps=u.eps,
    )


def be_transpose(u: BlockEncoding) -> BlockEncoding:
    """Transpose encoding; alpha, ancillas, eps unchanged."""
    return BlockEncoding(
        embedded=u.embedded.T.copy(),
        logical_rows=u.logical_cols,
        logical_cols=u.logical_rows,
        alpha=u.alpha,
        ancillas=u.ancillas,
        eps=u.eps,
    )


def be_rescale(u: BlockEncoding, gamma: float) -> BlockEncoding:
    """Move a factor gamma from alpha into the block (alpha*block invariant).

    Used to renormalize a loosely-normalized encoding so its top singular
    value approaches 1 before inversion; the represented matrix and the
    error bound are untouched.
    """
    if gamma <= 0.0:
        raise EncodingError("rescale factor must be positive")
    return BlockEncoding(
        embedded=gamma * u.embedded,
        logical_rows=u.logical_rows,
        logical_cols=u.logical_cols,
        alpha=u.alpha / gamma,
        ancillas=u.ancillas,
        eps=u.eps,
    )

