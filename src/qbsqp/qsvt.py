"""Matrix inversion by singular value transformation with an odd polynomial.

The inversion polynomial p approximates 1/(kappa*beta*x) on
[1/kappa, 1] (and by oddness on [-1, -1/kappa]) while staying bounded by 1
on all of [-1, 1].  Applying p to the singular values of an encoded block
yields a block encoding of the pseudo-inverse with normalization
kappa*beta/alpha.

Two construction engines are provided:

* ``lsq``    - least-squares fit in the odd Chebyshev basis on a dense grid
               of [1/kappa, 1], degree doubled until the accuracy target is
               met (optionally bisected down to near-minimal degree).
* ``smooth`` - Chebyshev projection (via DCT) of 1/(kappa*x) multiplied by
               a Gaussian cutoff that vanishes at the origin; used when the
               required degree makes a dense least-squares fit impractical.

Both engines verify the three constraints (accuracy on the spectral
interval, odd parity, boundedness) on dense grids before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as cheb
from scipy.fft import dct

from .blockenc import BlockEncoding, EncodingError


class InfeasibleAccuracyError(RuntimeError):
    """Degree cap reached before the polynomial accuracy target was met."""


class SpectrumViolationError(RuntimeError):
    """A singular value of the encoded block lies outside [1/kappa, 1]."""


@dataclass(frozen=True)
class QsvtInversionSpec:
    """Odd polynomial approximating 1/(kappa*beta*x) on the spectral interval."""

    kappa: float
    eps_prime: float
    beta: float
    degree: int
    coeffs: np.ndarray = field(repr=False)  # Chebyshev basis, even entries exactly 0
    achieved_err: float  # sup |p - 1/(kappa*beta*x)| on the check grid of [1/kappa, 1]
    sup_abs: float       # max |p| on the [-1, 1] check grid
    engine: str          # "lsq" | "smooth" | "exact" (kappa = 1)

    def __call__(self, x):
        return cheb.chebval(x, self.coeffs)


def _interval_grid(kappa: float, n: int) -> np.ndarray:
    """Chebyshev-distributed points on [1/kappa, 1], endpoints included."""
    lo, hi = 1.0 / kappa, 1.0
    if hi - lo < 1e-15:
        return np.array([hi])
    k = np.arange(n)
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * k / (n - 1))
    return x[::-1]


def _odd_indices(degree: int) -> np.ndarray:
    return np.arange(1, degree + 1, 2)


def _full_coeffs(odd_coef: np.ndarray, degree: int) -> np.ndarray:
    coeffs = np.zeros(degree + 1)
    coeffs[_odd_indices(degree)] = odd_coef
    return coeffs


def _lsq_fit(kappa: float, degree: int, grid_mult: int = 4):
    """Fit odd Chebyshev coefficients to 1/(kappa*x) on [1/kappa, 1].

    Returns (coeffs, err) with err the sup error on a finer check grid.
    """
    n_odd = (degree + 1) // 2
    x = _interval_grid(kappa, max(64, grid_mult * n_odd))
    basis = cheb.chebvander(x, degree)[:, 1::2]
    target = 1.0 / (kappa * x)
    odd_coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
    coeffs = _full_coeffs(odd_coef, degree)

    x_check = _interval_grid(kappa, max(129, 2 * grid_mult * n_odd + 1))
    err = float(np.max(np.abs(cheb.chebval(x_check, coeffs) - 1.0 / (kappa * x_check))))
    return coeffs, err


def _cheb_coeffs_from_extremes(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through f(cos(pi*j/M))."""
    m = len(values) - 1
    coeffs = dct(values, type=1) / m
    coeffs[0] *= 0.5
    coeffs[-1] *= 0.5
    return coeffs


def _cheb_eval_at_extremes(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Evaluate a Chebyshev series at the M+1 extreme points cos(pi*j/M)."""
    v = np.zeros(m + 1)
    k = min(len(coeffs), m + 1)
    v[:k] = coeffs[:k]
    v[1:m] *= 0.5
    return dct(v, type=1)


def _smooth_fit(kappa: float, eps_prime: float, degree_cap: int):
    """DCT projection of a Gaussian-regularized 1/(kappa*x) on [-1, 1].

    The cutoff width is chosen so the regularization error on
    [1/kappa, 1] is at most eps_prime / 2; the remaining budget covers
    truncation of the Chebyshev tail.
    """
    c = math.sqrt(math.log(4.0 / eps_prime))
    width = 1.0 / (c * kappa)

    def target(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        nz = np.abs(x) > 1e-300
        out[nz] = (1.0 - np.exp(-((x[nz] / width) ** 2))) / (kappa * x[nz])
        return out

    m = 1 << max(10, math.ceil(math.log2(8.0 * c * kappa)))
    for _ in range(8):
        nodes = np.cos(np.pi * np.arange(m + 1) / m)
        coeffs = _cheb_coeffs_from_extremes(target(nodes))
        coeffs[0::2] = 0.0

        # Truncate where the coefficient tail is negligible against eps'.
        mags = np.abs(coeffs)
        keep = np.nonzero(mags > eps_prime * 1e-4)[0]
        degree = int(keep[-1]) if len(keep) else 1
        if degree % 2 == 0:
            degree += 1
        coeffs = coeffs[: degree + 1]

        vals = _cheb_eval_at_extremes(coeffs, m)
        inside = (nodes >= 1.0 / kappa) & (nodes <= 1.0)
        err = float(np.max(np.abs(vals[inside] - 1.0 / (kappa * nodes[inside]))))
        if err <= eps_prime and 4 * degree <= m:
            sup_abs = float(np.max(np.abs(vals)))
            return coeffs, err, sup_abs, degree
        m *= 2

    raise InfeasibleAccuracyError(
        f"smooth-projection engine failed to reach eps'={eps_prime} for kappa={kappa} "
        f"(degree cap {degree_cap})"
    )


def _bound_grid(degree: int) -> np.ndarray:
    n = min(1 << 20, max(4096, 8 * degree + 1))
    return np.cos(np.pi * np.arange(n + 1) / n)


# Above this degree a dense least-squares fit is impractical; the smooth
# projection takes over.
LSQ_DEGREE_MAX = 1200


def build_inversion_spec(
    kappa: float,
    eps_prime: float,
    *,
    degree_cap: int = 4001,
    minimize_degree: bool = False,
) -> QsvtInversionSpec:
    """Construct the odd inversion polynomial for a given spectral interval.

    The least-squares engine runs first, doubling its degree up to
    min(degree_cap, LSQ_DEGREE_MAX); when it misses eps_prime the smooth
    projection is used.  ``minimize_degree`` bisects a successful
    least-squares degree down to near-minimal.  Raises
    InfeasibleAccuracyError when no degree <= degree_cap meets eps_prime.
    """
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    if not (0.0 < eps_prime < 1.0):
        raise ValueError("eps_prime must lie in (0, 1)")

    if kappa == 1.0:
        # Degenerate interval: p(x) = x matches 1/(kappa*x) exactly at x = 1.
        coeffs = np.array([0.0, 1.0])
        return QsvtInversionSpec(
            kappa=1.0, eps_prime=eps_prime, beta=1.0, degree=1,
            coeffs=coeffs, achieved_err=0.0, sup_abs=1.0, engine="exact",
        )

    coeffs = err = sup_abs = None
    degree = max(3, int(2 * math.ceil(kappa / 2) + 1))
    last_fail = 1
    while degree <= min(degree_cap, LSQ_DEGREE_MAX):
        coeffs, err = _lsq_fit(kappa, degree)
        if err <= eps_prime:
            break
        last_fail = degree
        degree = 2 * degree + 1

    if coeffs is None or err > eps_prime:
        engine = "smooth"
        coeffs, err, sup_abs, degree = _smooth_fit(kappa, eps_prime, degree_cap)
        if degree > degree_cap:
            raise InfeasibleAccuracyError(
                f"required degree {degree} exceeds cap {degree_cap} "
                f"(kappa={kappa}, eps'={eps_prime})"
            )
    else:
        engine = "lsq"
        if minimize_degree:
            lo, hi = last_fail, degree
            best = (coeffs, err, degree)
            while hi - lo > 2:
                mid = (lo + hi) // 2
                if mid % 2 == 0:
                    mid += 1
                c_mid, e_mid = _lsq_fit(kappa, mid)
                if e_mid <= eps_prime:
                    best = (c_mid, e_mid, mid)
                    hi = mid
                else:
                    lo = mid
            coeffs, err, degree = best
        sup_abs = float(np.max(np.abs(cheb.chebval(_bound_grid(degree), coeffs))))

    # Rescaling the target by beta rescales the least-squares solution and
    # its error exactly, so boundedness is enforced without refitting.
    beta = 2.0 ** max(0, math.ceil(math.log2(max(sup_abs, 1e-300) / (1.0 - 1e-9))))
    coeffs = coeffs / beta

    return QsvtInversionSpec(
        kappa=float(kappa),
        eps_prime=float(eps_prime),
        beta=float(beta),
        degree=int(degree),
        coeffs=coeffs,
        achieved_err=float(err / beta),
        sup_abs=float(sup_abs / beta),
        engine=engine,
    )


def inversion_error_factor(kappa: float, alpha: float) -> float:
    """Hard Lipschitz-type constant C with eps_out <= C*eps_in + alpha_out*eps'.

    Valid whenever kappa * eps_in / alpha <= 1/2 (checked by qsvt_invert).
    """
    return 2.0 * kappa**2 / alpha**2


def qsvt_invert(
    u: BlockEncoding,
    spec: QsvtInversionSpec,
    *,
    sigma_tol: float = 1e-9,
) -> BlockEncoding:
    """Invert a block-encoded operator by transforming its singular values.

    The embedded block is decomposed, p is applied to each singular value,
    and the factors are recomposed with the transpose structure of the
    inverse.  Padding singular values map through p(0) = 0 and stay inert.
    """
    if u.logical_rows != u.logical_cols:
        raise EncodingError("inversion requires a square logical block")
    n_logical = u.logical_rows

    w, sigma, vt = np.linalg.svd(u.embedded)

    slack = sigma_tol + u.eps / u.alpha
    lo, hi = 1.0 / spec.kappa, 1.0
    logical = sigma[:n_logical]
    if np.any(logical < lo - slack) or np.any(logical > hi + slack):
        bad = logical[(logical < lo - slack) | (logical > hi + slack)]
        raise SpectrumViolationError(
            f"singular value(s) {bad} outside [{lo}, {hi}] (slack {slack:.3g})"
        )
    if np.any(sigma[n_logical:] > slack + 1e-12):
        raise SpectrumViolationError(
            "padding singular values are not negligible; operand may be rank-deficient"
        )

    if spec.kappa * u.eps / u.alpha > 0.5:
        raise SpectrumViolationError(
            "encoding error too large relative to the spectral gap "
            f"(kappa*eps/alpha = {spec.kappa * u.eps / u.alpha:.3g} > 0.5)"
        )

    pvals = cheb.chebval(sigma, spec.coeffs)
    pvals[sigma < lo / 2.0] = 0.0  # padding zeros; p is odd so p(0) = 0 anyway

    out = (vt.T * pvals) @ w.T
    out[n_logical:, :] = 0.0
    out[:, n_logical:] = 0.0

    alpha_out = spec.kappa * spec.beta / u.alpha
    eps_out = inversion_error_factor(spec.kappa, u.alpha) * u.eps + alpha_out * spec.achieved_err
    return BlockEncoding(
        embedded=out,
        logical_rows=n_logical,
        logical_cols=n_logical,
        alpha=alpha_out,
        ancillas=u.ancillas + 1,
        eps=eps_out,
    )
