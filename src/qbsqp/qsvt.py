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
               The series is chopped where its coefficients reach the DCT's
               rounding plateau: before the first run of CHOP_RUN odd
               coefficients below eps'*1e-4, not at the last noise spike
               above it.  At eps' = 1e-12 this gives degree 3,873 for
               kappa = 64, 15,061 for kappa = 256 and 57,911 for
               kappa = 1024.

Both engines verify the three constraints (accuracy on the spectral
interval, odd parity, boundedness) on dense grids before returning.  The
least-squares engine is skipped at every degree where Achieser's lower
bound on the error of any odd fit already exceeds the target.

Chebyshev series are evaluated by a blocked Clenshaw recurrence: the
coefficients are cut into blocks of CLENSHAW_BLOCK, the recurrence runs on
all blocks and points at once, and the blocks are folded with the
recurrence's 2x2 homogeneous response in two levels: groups of up to
CLENSHAW_BLOCK blocks all at once, then the groups from the top.  Near
|x| = 1 it runs in Reinsch's difference form.  A degree-58k series (905
blocks in 15 groups of 61) thus takes 64 + 61 + 15 = 140 vectorised steps
per form instead of 58k scalar-loop steps.  Against an extended-precision
Clenshaw reference its error on [1/kappa, 1] stays below 1e-2 of the
polynomial's achieved error for the kappa = 1024, eps' = 1e-12
polynomial; odd series stay exactly odd and vanish exactly at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebvander
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
        return _clenshaw(x, self.coeffs)


# Coefficients per block of the blocked Clenshaw evaluator, the most blocks
# one fold group holds, and the most elements one of its (blocks + 2) x
# points work arrays may hold.
CLENSHAW_BLOCK = 64
CLENSHAW_CHUNK = 1 << 20


def _clenshaw(x, coeffs: np.ndarray):
    """Evaluate sum_k coeffs[k] T_k(x) by a blocked Clenshaw recurrence.

    Block i holds coeffs[i*L : (i+1)*L] with L = CLENSHAW_BLOCK.  The
    recurrence runs for j = L-1..0 on every block from the zero state,
    together with two coefficient-free rows started at the unit states,
    which give the 2x2 homogeneous response H of L steps.  The fold
    s <- local_i + H s from the top block down yields the state at index 0.
    It runs in two levels: the blocks are cut into G groups of at most L
    consecutive blocks, every group is folded at once from the zero state,
    again with two unit rows, which give the group response H^g, and the G
    group states are then folded from the top with H^g.
    Points with |x| < 1/2 use the plain state (b_k, b_{k+1}); points with
    |x| >= 1/2 use Reinsch's state (b_k, b_k - sign(x) b_{k+1}), because
    near |x| = 1 the block-local sums grow like L*|c| and the plain form
    loses their digits.  Points are processed in chunks so that each work
    array holds at most about CLENSHAW_CHUNK elements.  Accepts scalar
    input.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    n_blocks = -(-len(coeffs) // CLENSHAW_BLOCK)
    n_groups = -(-n_blocks // CLENSHAW_BLOCK)
    group = -(-n_blocks // n_groups)  # pads fewer than n_groups blocks
    rows = n_groups * group + 2
    table = np.zeros((rows, CLENSHAW_BLOCK))
    table.reshape(-1)[: len(coeffs)] = coeffs

    out = np.empty(flat.size)
    width = max(1, min(flat.size, CLENSHAW_CHUNK // rows))
    work = np.empty(3 * rows * width)
    for sign, mask in ((0.0, np.abs(flat) < 0.5), (1.0, flat >= 0.5),
                       (-1.0, flat <= -0.5)):
        idx = np.flatnonzero(mask)
        for lo in range(0, idx.size, width):
            sel = idx[lo: lo + width]
            out[sel] = _clenshaw_chunk(flat[sel], table, group, sign, work)
    return out.reshape(x.shape)[()]


def _clenshaw_chunk(xs, table, group, sign, work):
    """One chunk of `_clenshaw`; sign 0 selects the plain recurrence."""
    rows = table.shape[0]
    n_blocks = rows - 2
    t, b, w = work[: 3 * rows * xs.size].reshape(3, rows, xs.size)
    b[:] = 0.0
    w[:] = 0.0
    b[n_blocks] = 1.0
    w[n_blocks + 1] = 1.0
    if sign == 0.0:
        # w = b_{k+1}:  b_k = c_k + 2x b_{k+1} - b_{k+2}
        x2 = 2.0 * xs
        for j in range(CLENSHAW_BLOCK - 1, -1, -1):
            np.multiply(x2, b, out=t)
            t -= w
            t += table[:, j, None]
            t, b, w = w, t, b
    else:
        # w = d_k = b_k - sign*b_{k+1}:  d_k = c_k + 2(x - sign) b_{k+1}
        # + sign*d_{k+1},  b_k = d_k + sign*b_{k+1}
        combine = np.add if sign > 0.0 else np.subtract
        xm2 = 2.0 * (xs - sign)
        for j in range(CLENSHAW_BLOCK - 1, -1, -1):
            np.multiply(xm2, b, out=t)
            t += table[:, j, None]
            combine(t, w, out=w)
            combine(w, b, out=b)
    h00, h01 = b[n_blocks:]
    h10, h11 = w[n_blocks:]

    # Fold every group of blocks at once; rows n_groups and n_groups + 1
    # start at the unit states and end as the columns of H^group.
    n_groups = n_blocks // group
    loc0 = b[:n_blocks].reshape(n_groups, group, xs.size)
    loc1 = w[:n_blocks].reshape(n_groups, group, xs.size)
    g0 = np.zeros((n_groups + 2, xs.size))
    g1 = np.zeros((n_groups + 2, xs.size))
    g0[n_groups] = 1.0
    g1[n_groups + 1] = 1.0
    for j in range(group - 1, -1, -1):
        g0, g1 = h00 * g0 + h01 * g1, h10 * g0 + h11 * g1
        g0[:n_groups] += loc0[:, j]
        g1[:n_groups] += loc1[:, j]
    m00, m01 = g0[n_groups:]
    m10, m11 = g1[n_groups:]
    s0 = np.zeros(xs.size)
    s1 = np.zeros(xs.size)
    for i in range(n_groups - 1, -1, -1):
        s0, s1 = g0[i] + m00 * s0 + m01 * s1, g1[i] + m10 * s0 + m11 * s1
    if sign == 0.0:
        return s0 - xs * s1
    ax = sign * xs  # b_0 - x b_1 with b_1 = sign*(b_0 - d_0)
    return (1.0 - ax) * s0 + ax * s1


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
    basis = chebvander(x, degree)[:, 1::2]
    target = 1.0 / (kappa * x)
    odd_coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
    coeffs = _full_coeffs(odd_coef, degree)

    x_check = _interval_grid(kappa, max(129, 2 * grid_mult * n_odd + 1))
    err = float(np.max(np.abs(_clenshaw(x_check, coeffs) - 1.0 / (kappa * x_check))))
    return coeffs, err


def _odd_fit_error_floor(kappa: float, degree: int) -> float:
    """Lower bound on sup |p - 1/(kappa*x)| on [1/kappa, 1] over odd p.

    With a = 1/kappa, y = x^2 and p(x) = x q(y), deg q = k = (degree-1)/2,
    the error is x |q(y) - a/y| >= a^2 |q(y)/a - 1/y| on [a^2, 1].
    Achieser's closed form for the best approximation of 1/y there gives
    (1 - a^2)/(2 a^2) rho^k with rho = (1 - a)/(1 + a).
    """
    a = 1.0 / kappa
    return 0.5 * (1.0 - a * a) * ((1.0 - a) / (1.0 + a)) ** ((degree - 1) // 2)


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


# The smooth engine's DCT grid is capped at this multiple of degree_cap.
SMOOTH_GRID_PER_DEGREE = 32
# A series is chopped at the first run of this many odd coefficients below
# the tolerance: the start of its rounding plateau.
CHOP_RUN = 256


def _chop_degree(coeffs: np.ndarray, tol: float) -> int:
    """Odd degree of the last coefficient above tol before the first run of
    CHOP_RUN odd coefficients at or below tol.

    Past that run the DCT coefficients are rounding noise of about 1e-17 to
    1e-16, whose isolated spikes above a tolerance that low would otherwise
    set the degree.  Without such a run the last coefficient above tol sets
    it, as it does when the series is cut off by the grid.
    """
    above = np.flatnonzero(np.abs(coeffs[1::2]) > tol)
    if not len(above):
        return 1
    gaps = np.diff(above, append=len(coeffs[1::2]) + CHOP_RUN) - 1
    return 2 * int(above[np.argmax(gaps >= CHOP_RUN)]) + 1


def _smooth_fit(kappa: float, eps_prime: float, degree_cap: int):
    """DCT projection of a Gaussian-regularized 1/(kappa*x) on [-1, 1].

    The cutoff width is chosen so the regularization error on
    [1/kappa, 1] is at most eps_prime / 4, reached at x = 1/kappa; the
    remaining budget covers truncation of the Chebyshev tail, chopped by
    `_chop_degree`.  The accuracy check covers the grid nodes in
    [1/kappa, 1] and 1/kappa itself, so a coarse grid cannot miss the
    peak.  The DCT grid is never larger than
    SMOOTH_GRID_PER_DEGREE * degree_cap points: a first grid beyond that
    raises InfeasibleAccuracyError before anything is allocated, because
    the fitted degree is a fixed fraction of the first grid (at least 1/16
    over kappa in 3..4096 and eps' in 1e-12..1e-3) and would exceed the cap.
    """
    c = math.sqrt(math.log(4.0 / eps_prime))
    width = 1.0 / (c * kappa)

    def target(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        nz = np.abs(x) > 1e-300
        out[nz] = (1.0 - np.exp(-((x[nz] / width) ** 2))) / (kappa * x[nz])
        return out

    grid_max = SMOOTH_GRID_PER_DEGREE * degree_cap
    m = 1 << max(10, math.ceil(math.log2(8.0 * c * kappa)))
    if m > grid_max:
        raise InfeasibleAccuracyError(
            f"smooth-projection grid of {m} points for kappa={kappa:g}, "
            f"eps'={eps_prime:g} exceeds {SMOOTH_GRID_PER_DEGREE} x degree cap "
            f"{degree_cap}")
    for _ in range(8):
        if m > grid_max:
            break
        nodes = np.cos(np.pi * np.arange(m + 1) / m)
        coeffs = _cheb_coeffs_from_extremes(target(nodes))
        coeffs[0::2] = 0.0

        degree = _chop_degree(coeffs, eps_prime * 1e-4)
        coeffs = coeffs[: degree + 1]

        vals = _cheb_eval_at_extremes(coeffs, m)
        inside = (nodes >= 1.0 / kappa) & (nodes <= 1.0)
        err = float(np.max(np.abs(vals[inside] - 1.0 / (kappa * nodes[inside]))))
        # The cutoff's error peaks at 1/kappa, which need not be a node.
        err = max(err, abs(float(_clenshaw(1.0 / kappa, coeffs)) - 1.0))
        if err <= eps_prime and 4 * degree <= m:
            sup_abs = float(np.max(np.abs(vals)))
            return coeffs, err, sup_abs, degree
        m *= 2

    raise InfeasibleAccuracyError(
        f"smooth-projection engine failed to reach eps'={eps_prime} for kappa={kappa} "
        f"(degree cap {degree_cap}, grid of {m // 2} points)"
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
    min(degree_cap, LSQ_DEGREE_MAX) and skipping every degree whose error
    floor exceeds eps_prime; when it misses eps_prime the smooth
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
        if _odd_fit_error_floor(kappa, degree) <= eps_prime:
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
        sup_abs = float(np.max(np.abs(_clenshaw(_bound_grid(degree), coeffs))))

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


# Rounding slack of the spectral-interval check in qsvt_invert, on top of
# the encoding's own relative error eps/alpha.
SIGMA_TOL = 1e-9


def qsvt_invert(u: BlockEncoding, spec: QsvtInversionSpec) -> BlockEncoding:
    """Invert a block-encoded operator by transforming its singular values.

    The embedded block is decomposed, p is applied to each singular value,
    and the factors are recomposed with the transpose structure of the
    inverse.  Only the logical singular values (>= 1/(2 kappa)) are
    evaluated; padding singular values map to exactly 0 and stay inert.
    """
    if u.logical_rows != u.logical_cols:
        raise EncodingError("inversion requires a square logical block")
    n_logical = u.logical_rows

    w, sigma, vt = np.linalg.svd(u.embedded)

    slack = SIGMA_TOL + u.eps / u.alpha
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

    pvals = np.zeros_like(sigma)
    inside = sigma >= lo / 2.0
    pvals[inside] = _clenshaw(sigma[inside], spec.coeffs)

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
