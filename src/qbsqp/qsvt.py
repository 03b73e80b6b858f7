"""Matrix inversion by singular value transformation with an odd polynomial.

The inversion polynomial is the Chebyshev-acceleration residual polynomial,
given in closed form.  With a = 1/kappa, l(y) = (1 + a^2 - 2y)/(1 - a^2),
which maps y in [a^2, 1] onto [-1, 1], and T_0 = T_d(l(0)):

    p(x) = (1 - T_d(l(x^2)) / T_0) / (kappa x),    odd, of degree 2d - 1.

Applying p/beta to the singular values of an encoded block yields a block
encoding of the pseudo-inverse with normalization kappa*beta/alpha.

Accuracy.  On [a, 1], |T_d(l)| <= 1, so |p - 1/(kappa x)| =
|T_d(l)| / (T_0 kappa x) <= 1/T_0.  As T_0 = cosh(d theta_0) with
theta_0 = arccosh l(0) = 2 atanh(a), the degree that reaches a target eps_t,
d = ceil(arccosh(1/eps_t) / theta_0), is known before any work; it is
O(kappa log(1/eps)), about 5% above Achieser's floor for any odd fit at
kappa = 64 and 1024.

An encoding (alpha, eps) of an operand S holds a block B with
||S - S'|| <= eps, where S' = alpha B.  With B's singular values in
[1/kappa, 1], the transformed block represents R with
||R - S'^{-1}|| <= alpha_out e_p, where alpha_out = kappa beta/alpha and
e_p = 1/(T_0 beta) is the spec's achieved_err.  The input error adds
||S'^{-1} - S^{-1}||, which is bounded in three steps:
  - ||S'^{-1}|| <= kappa/alpha, from B's spectrum;
  - ||S^{-1}|| <= (kappa/alpha)/(1 - kappa eps/alpha), since
    sigma_min(S) >= alpha/kappa - eps by Weyl;
  - S'^{-1} - S^{-1} = S'^{-1} (S - S') S^{-1}.
So the declared error is C_in eps + alpha_out e_p with
C_in = (kappa/alpha)^2/(1 - kappa eps/alpha) (Golub & Van Loan, Matrix
Computations, 4th ed., section 2.3.4).  qsvt_invert gates
kappa eps/alpha <= 1/2, which keeps S invertible and C_in at most
2 (kappa/alpha)^2.  C_in eps is attained: for an SPD S'
with smallest eigenvalue alpha/kappa, eigenvector v, and S = S' - eps v v^T,
||S^{-1} - S'^{-1}|| = 1/(alpha/kappa - eps) - kappa/alpha = C_in eps.  The
composition rules that carry the error on are those of Gilyen, Su, Low &
Wiebe, arXiv:1806.01838, Lemma 30.

Boundedness.  On [a, 1], 0 <= p <= (1 + 1/T_0)/(kappa x) <= 1 + 1/T_0.  On
[0, a], l lies in [1, l(0)], where T_d is increasing and convex, so
1 <= T_d(l) <= T_0 and 0 <= p <= 1/(kappa x) = a/x.  Two bounds follow.

(i) By the mean value theorem, T_0 - T_d(l) <= T_d'(l(0)) (l(0) - l) with
T_d'(cosh t) = d sinh(d t)/sinh(t), and sinh(theta_0) = 2a/(1 - a^2), so
p <= C x with C = d tanh(d theta_0).  Hence p <= min(a/x, C x) <=
min(C a, sqrt(C a)) there.

(ii) Put l = cosh(theta) and t = d (theta_0 - theta) >= 0.  As
cosh(d theta) >= cosh(d theta_0) e^{-t}, the numerator is at most
1 - e^{-t}.  Also x^2 = (1 - a^2)(cosh theta_0 - cosh theta)/2, and sinh,
being convex, lies above its tangent at theta_0, so
x^2 >= (a t/d)(1 - t (1 + a^2)/(4 a d)).  With G = 0.638173 >=
max_{t>0} (1 - e^{-t})/sqrt(t) and q = (1 + a^2)/(4 a d G^2) < 1, for
t <= T = 1/G^2 this gives p <= a (1 - e^{-t})/x <= G sqrt(a d/(1 - q)).
For t >= T, x >= x(T), since x grows with t, so p <= a/x(T), which is
at most the same value.  At eps' = 1e-6 and 1e-12, (ii) is within 2% of
the sampled sup, and (i) up to 1.55 times it.

beta is the larger of 1 + 1/T_0 and the smaller of (i) and (ii), over
1 - 1e-9, so that |p/beta| <= 1 - 1e-9; p is odd, so this covers [-1, 1].
beta is not rounded to a power of two: p/beta is formed as a division by
kappa*beta*x, which rounds either way.

The accuracy and boundedness bounds hold in exact arithmetic.  T_d costs
O(1) per point: cos(d arccos l) for |l| <= 1 and +-cosh(d arccosh |l|)
outside, with the angles taken from l - 1 and l + 1 formed directly from
x, so that no rounding in x^2 can push l across +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding, EncodingError
from .schur import BlockDiagonal


# An upper bound on max_{t>0} (1 - e^{-t})/sqrt(t) = 0.6381726863... (at
# t = 1.2564), the constant G of the module docstring's bound (ii).
_G = 0.638173


class InfeasibleAccuracyError(RuntimeError):
    """The degree that meets the accuracy target exceeds the degree cap, or
    its T_0 overflows double precision."""


class SpectrumViolationError(RuntimeError):
    """A singular value of the encoded block lies outside [1/kappa, 1]."""


@dataclass(frozen=True)
class QsvtInversionSpec:
    """Odd polynomial p/beta approximating 1/(kappa*beta*x) on [1/kappa, 1]."""

    kappa: float
    beta: float          # proven sup |p| on [-1, 1], over 1 - 1e-9
    degree: int          # 2d - 1
    d: int               # degree of T_d
    t0: float            # T_d(l(0))
    achieved_err: float  # proven sup |p/beta - 1/(kappa*beta*x)| on [1/kappa, 1]
    engine: str          # "chebyshev" | "exact" (kappa = 1)

    def __call__(self, x):
        """p(x)/beta; accepts scalar input."""
        x = np.asarray(x, dtype=float)
        if self.engine == "exact":
            return x[()]
        s = np.abs(x)
        a = 1.0 / self.kappa
        w = (1.0 - a) * (1.0 + a)
        ratio = _chebyshev_t(self.d, 2.0 * (a - s) * (a + s) / w,
                             2.0 * (1.0 - s) * (1.0 + s) / w) / self.t0
        p = np.zeros_like(s)
        np.divide(1.0 - ratio, self.kappa * self.beta * s, out=p, where=s > 0.0)
        return np.copysign(p, x)[()]


def _chebyshev_t(d: int, lm1: np.ndarray, lp1: np.ndarray) -> np.ndarray:
    """T_d(l) from l - 1 and l + 1, using half-angle forms of arccos and
    arccosh so that no branch reads l itself."""
    t = np.empty_like(lm1)
    mid = (lm1 <= 0.0) & (lp1 >= 0.0)
    t[mid] = np.cos(2 * d * np.arctan2(np.sqrt(-lm1[mid]), np.sqrt(lp1[mid])))
    hi = lm1 > 0.0
    t[hi] = np.cosh(2 * d * np.arctanh(np.sqrt(lm1[hi] / lp1[hi])))
    lo = lp1 < 0.0
    t[lo] = (-1) ** d * np.cosh(2 * d * np.arctanh(np.sqrt(lp1[lo] / lm1[lo])))
    return t


def build_inversion_spec(kappa: float, eps_prime: float, *,
                         degree_cap: int = 4001) -> QsvtInversionSpec:
    """Construct the odd inversion polynomial for the interval [1/kappa, 1].

    Raises InfeasibleAccuracyError, before any work, when the predicted
    degree exceeds degree_cap or T_0 = cosh(d theta_0) overflows.
    """
    if not 1.0 <= kappa < math.inf:
        raise ValueError("kappa must be finite and >= 1")
    if not (0.0 < eps_prime < 1.0):
        raise ValueError("eps_prime must lie in (0, 1)")

    if kappa == 1.0:
        # Degenerate interval: p(x) = x matches 1/(kappa*x) exactly at x = 1.
        return QsvtInversionSpec(
            kappa=1.0, beta=1.0, degree=1, d=1, t0=math.inf, achieved_err=0.0,
            engine="exact")

    # The target is eps'/8: the largest power-of-two fraction of eps' at
    # which no declared error exceeds that of the fitted polynomials this
    # construction replaced (6.21e-14 at kappa = 64 and 4.30e-14 at
    # kappa = 1024, eps' = 1e-12, after beta).
    a = 1.0 / kappa
    theta0 = 2.0 * math.atanh(a)
    half = math.acosh(8.0 / eps_prime) / theta0
    if not half <= (degree_cap + 1) // 2:
        raise InfeasibleAccuracyError(
            f"predicted degree {2.0 * half - 1.0:.0f} for kappa={kappa:g}, "
            f"eps'={eps_prime:g} exceeds degree cap {degree_cap}")
    d = math.ceil(half)
    try:
        t0 = math.cosh(d * theta0)
    except OverflowError:
        raise InfeasibleAccuracyError(
            f"T_0 = cosh({d * theta0:.6g}) at degree {2 * d - 1} for kappa={kappa:g}, "
            f"eps'={eps_prime:g} overflows double precision") from None

    # The bounds (i) and (ii) of the module docstring on [0, a].
    c_a = d * math.tanh(d * theta0) * a  # the bound C x at x = a
    bound = min(c_a, math.sqrt(c_a))
    q = (1.0 + a * a) / (4.0 * a * d * _G**2)
    if q < 1.0:
        bound = min(bound, _G * math.sqrt(a * d / (1.0 - q)))
    beta = max(1.0 + 1.0 / t0, bound) / (1.0 - 1e-9)

    return QsvtInversionSpec(
        kappa=float(kappa), beta=float(beta), degree=2 * d - 1, d=d, t0=t0,
        achieved_err=1.0 / (t0 * beta), engine="chebyshev")


# Rounding slack of the spectral-interval check in qsvt_invert, on top of
# the encoding's own relative error eps/alpha.
SIGMA_TOL = 1e-9


def decompose(block: np.ndarray | BlockDiagonal) -> list:
    """The singular value decomposition of a logical block, as one
    (w, sigma, vt) per array the block is held as.

    A dense block gives one; a ``BlockDiagonal`` gives one stacked
    decomposition of its stages and one of its tail, so no array larger
    than a block is decomposed.  Each sigma is in descending order.
    """
    if isinstance(block, BlockDiagonal):
        return [np.linalg.svd(block.stages), np.linalg.svd(block.tail)]
    return [np.linalg.svd(block)]


def qsvt_invert(u: BlockEncoding, spec: QsvtInversionSpec,
                decomposition: list | None = None) -> BlockEncoding:
    """Invert a block-encoded operator by transforming its singular values.

    ``decomposition`` is ``decompose(u.block)``, taken here when not
    given.  p is applied to each singular value, and the factors are
    recomposed with the transpose structure of the inverse.  A ``BlockDiagonal`` block
    is inverted stage by stage into a ``BlockDiagonal``.  Every singular
    value must lie in [1/kappa, 1], up to the encoding's relative error and
    rounding.
    """
    if decomposition is None:
        decomposition = decompose(u.block)
    if any(w.shape != vt.shape for w, _, vt in decomposition):
        raise EncodingError("inversion requires square logical blocks")

    sigma = np.concatenate([s.ravel() for _, s, _ in decomposition])
    slack = SIGMA_TOL + u.eps / u.alpha
    lo, hi = 1.0 / spec.kappa, 1.0
    outside = (sigma < lo - slack) | (sigma > hi + slack)
    if np.any(outside):
        raise SpectrumViolationError(
            f"singular value(s) {sigma[outside]} outside [{lo}, {hi}] (slack {slack:.3g})"
        )

    kappa_eps = spec.kappa * u.eps / u.alpha
    if kappa_eps > 0.5:
        raise SpectrumViolationError(
            "encoding error too large relative to the spectral gap "
            f"(kappa*eps/alpha = {kappa_eps:.3g} > 0.5)"
        )

    inverse = [(vt.mT * spec(s)[..., None, :]) @ w.mT for w, s, vt in decomposition]
    alpha_out = spec.kappa * spec.beta / u.alpha
    # The inverse-perturbation constant of the module docstring's Accuracy.
    c_in = (spec.kappa / u.alpha) ** 2 / (1.0 - kappa_eps)
    eps_out = c_in * u.eps + alpha_out * spec.achieved_err
    return BlockEncoding(
        block=BlockDiagonal(*inverse) if isinstance(u.block, BlockDiagonal) else inverse[0],
        alpha=alpha_out,
        eps=eps_out,
    )
