"""Classically simulated quantum Schur-complement step.

The step mirrors the block-encoding pipeline operation by operation:
encode (Q, A, g, r), invert Q by singular value transformation, assemble
the Schur complement S = A Q^{-1} A^T and right-hand side
b = -r - A Q^{-1} g by encoding products and LCU sums, invert S, recover
lam and dz, and read out dz classically.  Normalization factors and error
bounds propagate alongside every encoding, so the final alpha_dz and
eps_dz are exact arithmetic consequences of the composition rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .blockenc import (
    BlockEncoding,
    be_add,
    be_mul,
    be_neg,
    be_rescale,
    be_transpose,
    encode,
    operator_norm,
)
from .qsvt import (
    QsvtInversionSpec,
    SpectrumViolationError,
    build_inversion_spec,
    inversion_error_factor,
    qsvt_invert,
)
from .schur import QpData, SchurSolution, kkt_residual_norm


class QuantumStepError(RuntimeError):
    """The step cannot be delivered at usable accuracy or success probability."""


@dataclass
class NormalizationLedger:
    """Normalization factors along the pipeline plus success accounting.

    Every alpha entry is defined by the recurrence
    alpha_Qinv = kappa_Q*beta_Q/alpha_Q, alpha_S = alpha_A^2*alpha_Qinv,
    alpha_b = alpha_r + alpha_A*alpha_Qinv*alpha_g,
    alpha_Sinv = kappa_S*beta_S/alpha_S, alpha_lambda = alpha_Sinv*alpha_b,
    alpha_1 = alpha_g + alpha_A*alpha_lambda, alpha_dz = alpha_Qinv*alpha_1,
    and equals the closed-form expansion exactly.
    """

    alpha_Q: float
    alpha_A: float
    alpha_g: float
    alpha_r: float
    kappa_Q: float
    beta_Q: float
    kappa_S: float
    beta_S: float
    alpha_Qinv: float
    alpha_S: float
    alpha_b: float
    alpha_Sinv: float
    alpha_lambda: float
    alpha_1: float
    alpha_dz: float
    p_succ: float = float("nan")
    expected_repetitions: float = float("nan")


def predict_normalization(
    alpha_Q: float,
    alpha_A: float,
    alpha_g: float,
    alpha_r: float,
    kappa_Q: float,
    beta_Q: float,
    kappa_S: float,
    beta_S: float,
) -> NormalizationLedger:
    """Evaluate the normalization recurrences and check the closed form."""
    if min(alpha_Q, alpha_A, alpha_g, alpha_r, beta_Q, beta_S) <= 0.0:
        raise ValueError("all normalization inputs must be positive")
    if kappa_Q < 1.0 or kappa_S < 1.0:
        raise ValueError("condition parameters must be >= 1")

    alpha_qinv = kappa_Q * beta_Q / alpha_Q
    alpha_s = alpha_A**2 * alpha_qinv
    alpha_b = alpha_r + alpha_A * alpha_qinv * alpha_g
    alpha_sinv = kappa_S * beta_S / alpha_s
    alpha_lam = alpha_sinv * alpha_b
    alpha_1 = alpha_g + alpha_A * alpha_lam
    alpha_dz = alpha_qinv * alpha_1

    closed_form = (kappa_Q * beta_Q / alpha_Q) * (
        alpha_g
        + alpha_A
        * (kappa_S * beta_S / alpha_A**2)
        * (alpha_Q / (kappa_Q * beta_Q))
        * (alpha_r + alpha_A * (kappa_Q * beta_Q / alpha_Q) * alpha_g)
    )
    if not math.isclose(alpha_dz, closed_form, rel_tol=1e-12):
        raise AssertionError(
            f"normalization recurrence {alpha_dz} disagrees with closed form {closed_form}"
        )

    return NormalizationLedger(
        alpha_Q=alpha_Q, alpha_A=alpha_A, alpha_g=alpha_g, alpha_r=alpha_r,
        kappa_Q=kappa_Q, beta_Q=beta_Q, kappa_S=kappa_S, beta_S=beta_S,
        alpha_Qinv=alpha_qinv, alpha_S=alpha_s, alpha_b=alpha_b,
        alpha_Sinv=alpha_sinv, alpha_lambda=alpha_lam, alpha_1=alpha_1,
        alpha_dz=alpha_dz,
    )


@dataclass
class ErrorBudget:
    """Additive error bounds propagated through the pipeline.

    The total is linear in the six inputs:
    eps_dz = c1*eps_Q + c2*eps_A + c3*eps_g + c4*eps_r
           + c5*eps_Qprime + c6*eps_Sprime,
    with every constant an explicit product of ledger entries.
    """

    eps_Q: float
    eps_A: float
    eps_g: float
    eps_r: float
    eps_Qprime: float
    eps_Sprime: float
    eps_Qinv: float = 0.0
    eps_S: float = 0.0
    eps_b: float = 0.0
    eps_Sinv: float = 0.0
    eps_lambda: float = 0.0
    eps_1: float = 0.0
    eps_dz: float = 0.0
    constants: dict[str, float] = field(default_factory=dict)


def _mul_eps(alpha_u, eps_u, alpha_v, eps_v):
    """Product-encoding error bound, as in ``be_mul``."""
    return alpha_u * eps_v + alpha_v * eps_u


def propagate_error_budget(
    inputs: ErrorBudget,
    ledger: NormalizationLedger,
) -> ErrorBudget:
    """Fill the intermediate and total error bounds from the input errors.

    Mirrors the simulated pipeline exactly: products compose as
    alpha_u*eps_v + alpha_v*eps_u, LCU sums add, and each inversion contributes
    C * eps_in + alpha_out * eps' with C = 2*kappa^2/alpha_in^2.
    """
    lg = ledger

    def chain(e_q, e_a, e_g, e_r, e_qp, e_sp):
        c_q = inversion_error_factor(lg.kappa_Q, lg.alpha_Q)
        eps_qinv = c_q * e_q + lg.alpha_Qinv * e_qp

        # S = (A * Qinv) * A^T
        a_t1 = lg.alpha_A * lg.alpha_Qinv
        e_t1 = _mul_eps(lg.alpha_A, e_a, lg.alpha_Qinv, eps_qinv)
        eps_s = _mul_eps(a_t1, e_t1, lg.alpha_A, e_a)

        # b = -r - A * (Qinv * g)
        a_t2 = lg.alpha_Qinv * lg.alpha_g
        e_t2 = _mul_eps(lg.alpha_Qinv, eps_qinv, lg.alpha_g, e_g)
        e_t3 = _mul_eps(lg.alpha_A, e_a, a_t2, e_t2)
        eps_b = e_r + e_t3

        c_s = inversion_error_factor(lg.kappa_S, lg.alpha_S)
        eps_sinv = c_s * eps_s + lg.alpha_Sinv * e_sp

        eps_lam = _mul_eps(lg.alpha_Sinv, eps_sinv, lg.alpha_b, eps_b)
        e_t4 = _mul_eps(lg.alpha_A, e_a, lg.alpha_lambda, eps_lam)
        eps_1 = e_g + e_t4
        eps_dz = _mul_eps(lg.alpha_Qinv, eps_qinv, lg.alpha_1, eps_1)
        return eps_qinv, eps_s, eps_b, eps_sinv, eps_lam, eps_1, eps_dz

    vals = chain(
        inputs.eps_Q, inputs.eps_A, inputs.eps_g, inputs.eps_r,
        inputs.eps_Qprime, inputs.eps_Sprime,
    )

    # The budget is exactly linear, so the constants of the additive bound
    # are recovered by evaluating the chain on unit inputs.
    units = np.eye(6)
    constants = {}
    for name, unit in zip(("c1", "c2", "c3", "c4", "c5", "c6"), units):
        constants[name] = chain(*unit)[-1]

    return replace(
        inputs,
        eps_Qinv=vals[0], eps_S=vals[1], eps_b=vals[2], eps_Sinv=vals[3],
        eps_lambda=vals[4], eps_1=vals[5], eps_dz=vals[6],
        constants=constants,
    )


@dataclass
class QuantumConfig:
    """Targets and policy knobs for the simulated quantum backend."""

    eps_Q: float = 0.0
    eps_A: float = 0.0
    eps_g: float = 0.0
    eps_r: float = 0.0
    eps_prime_Q: float = 1e-10
    eps_prime_S: float = 1e-10
    readout_mode: str = "exact"  # "exact" | "sampled"
    shots: int = 10**8
    seed: int = 0
    degree_cap: int = 4001
    usability_cap: float = float("inf")
    p_succ_floor: float = 0.0
    validate_nodes: bool = False


# Margin on the measured condition number, so that rounding in the SVD
# cannot push a singular value just below 1/kappa.
KAPPA_SAFETY = 1.0 + 1e-9


def _bucket_kappa(kappa: float) -> float:
    """Round kappa up to a power of two, so nearby iterates share one spec."""
    return float(2 ** max(0, math.ceil(math.log2(max(1.0, kappa)))))


def _encode_with_floor(op, eps_target, size, rng):
    alpha = operator_norm(op)
    return encode(op, eps_target, alpha=(alpha if alpha > 0.0 else 1.0),
                  size=size, rng=rng)


def _invert_encoding(u, eps_prime, qcfg, spec_cache):
    """Pre-scale to unit top singular value, pick the spectral interval, invert.

    Returns the inverse encoding, the spec used, the ledger-level kappa (the
    condition parameter relative to the composed normalization: fit kappa
    times the pre-scale gain) and the pre-scale gain.
    """
    sigma = np.linalg.svd(u.block, compute_uv=False)
    s_max, s_min = float(sigma[0]), float(sigma[-1])
    if s_min <= 0.0 or not np.isfinite(s_min):
        raise SpectrumViolationError(f"operand block is singular (sigma_min={s_min})")

    gamma = 1.0 / s_max
    kappa_fit = _bucket_kappa(s_max / s_min * KAPPA_SAFETY)

    key = (kappa_fit, eps_prime)
    spec = spec_cache.get(key)
    if spec is None:
        spec = build_inversion_spec(kappa_fit, eps_prime, degree_cap=qcfg.degree_cap)
        spec_cache[key] = spec

    u_inv = qsvt_invert(be_rescale(u, gamma), spec)
    return u_inv, spec, kappa_fit * gamma, gamma


def readout(
    u_dz: BlockEncoding,
    ledger: NormalizationLedger,
    mode: str = "exact",
    *,
    shots: int = 10**8,
    rng: np.random.Generator | None = None,
    p_succ_floor: float = 0.0,
) -> np.ndarray:
    """Recover the classical vector from the final encoding.

    Exact mode returns alpha_dz times the encoded column, unpadded.
    Sampled mode adds zero-mean readout noise with per-component standard
    deviation alpha_dz/sqrt(shots), deterministic for a given rng.
    """
    if ledger.p_succ < p_succ_floor:
        raise QuantumStepError(
            f"success probability {ledger.p_succ:.3e} below floor {p_succ_floor:.3e}; "
            f"expected repetitions {ledger.expected_repetitions:.3e}"
        )
    vec = ledger.alpha_dz * u_dz.embedded[: u_dz.logical_rows, 0]
    if mode == "exact":
        return vec
    if mode == "sampled":
        if rng is None:
            rng = np.random.default_rng(0)
        sdev = ledger.alpha_dz / math.sqrt(shots)
        return vec + rng.normal(0.0, sdev, size=vec.shape)
    raise ValueError(f"unknown readout mode {mode!r}")


def quantum_schur_step(
    qp: QpData,
    qcfg: QuantumConfig,
    *,
    rng: np.random.Generator | None = None,
    spec_cache: dict | None = None,
) -> SchurSolution:
    """Run the simulated block-encoding pipeline on one KKT system."""
    n, m = qp.n_z, qp.m_eq
    if m == 0:
        raise ValueError("quantum Schur step requires at least one equality constraint")
    if rng is None:
        rng = np.random.default_rng(qcfg.seed)
    if spec_cache is None:
        spec_cache = {}

    size = 1 << max(0, math.ceil(math.log2(max(n, m))))
    u_q = _encode_with_floor(qp.Q, qcfg.eps_Q, size, rng)
    u_a = _encode_with_floor(qp.A, qcfg.eps_A, size, rng)
    u_g = _encode_with_floor(qp.g, qcfg.eps_g, size, rng)
    u_r = _encode_with_floor(qp.r, qcfg.eps_r, size, rng)
    u_at = be_transpose(u_a)

    u_qinv, spec_q, kappa_q_ledger, gamma_q = _invert_encoding(
        u_q, qcfg.eps_prime_Q, qcfg, spec_cache
    )

    u_s = be_mul(be_mul(u_a, u_qinv), u_at)
    u_t2 = be_mul(u_qinv, u_g)
    u_t3 = be_mul(u_a, u_t2)
    u_b = be_add(be_neg(u_r), be_neg(u_t3))

    u_sinv, spec_s, kappa_s_ledger, gamma_s = _invert_encoding(
        u_s, qcfg.eps_prime_S, qcfg, spec_cache
    )

    u_lam = be_mul(u_sinv, u_b)
    u_t4 = be_mul(u_at, u_lam)
    u_1 = be_add(u_g, u_t4)
    u_dz = be_mul(be_neg(u_qinv), u_1)

    ledger = predict_normalization(
        alpha_Q=u_q.alpha, alpha_A=u_a.alpha, alpha_g=u_g.alpha, alpha_r=u_r.alpha,
        kappa_Q=kappa_q_ledger, beta_Q=spec_q.beta,
        kappa_S=kappa_s_ledger, beta_S=spec_s.beta,
    )
    if not math.isclose(ledger.alpha_dz, u_dz.alpha, rel_tol=1e-9):
        raise AssertionError(
            f"pipeline normalization {u_dz.alpha} deviates from ledger {ledger.alpha_dz}"
        )

    budget = propagate_error_budget(
        ErrorBudget(
            eps_Q=u_q.eps, eps_A=u_a.eps, eps_g=u_g.eps, eps_r=u_r.eps,
            eps_Qprime=spec_q.achieved_err, eps_Sprime=spec_s.achieved_err,
        ),
        ledger,
    )
    if not np.isclose(budget.eps_dz, u_dz.eps, rtol=1e-9, atol=1e-300):
        raise AssertionError(
            f"budget eps_dz {budget.eps_dz} deviates from pipeline eps {u_dz.eps}"
        )
    if budget.eps_dz > qcfg.usability_cap:
        raise QuantumStepError(
            f"error budget {budget.eps_dz:.3e} exceeds usability cap "
            f"{qcfg.usability_cap:.3e}"
        )

    p_succ = float(np.linalg.norm(u_dz.embedded[:n, 0]) ** 2)
    ledger.p_succ = p_succ
    ledger.expected_repetitions = 1.0 / p_succ if p_succ > 0.0 else float("inf")

    dz = readout(
        u_dz, ledger, qcfg.readout_mode,
        shots=qcfg.shots, rng=rng, p_succ_floor=qcfg.p_succ_floor,
    )
    lam = u_lam.alpha * u_lam.embedded[:m, 0]

    diagnostics: dict[str, Any] = {
        "solver": "quantum",
        "ledger": ledger,
        "budget": budget,
        "eps_dz": budget.eps_dz,
        "p_succ": p_succ,
        "expected_repetitions": ledger.expected_repetitions,
        "degree_Q": spec_q.degree,
        "degree_S": spec_s.degree,
        "beta_Q": spec_q.beta,
        "beta_S": spec_s.beta,
        "kappa_Q_fit": kappa_q_ledger / gamma_q,
        "kappa_S_fit": kappa_s_ledger / gamma_s,
        "gamma_Q": gamma_q,
        "gamma_S": gamma_s,
        "poly_engine_Q": spec_q.engine,
        "poly_engine_S": spec_s.engine,
    }

    if qcfg.validate_nodes:
        diagnostics["conformance"] = _conformance_report(
            qp, u_q, u_a, u_g, u_r, u_qinv, u_s, u_b, u_sinv, u_lam, u_1, u_dz
        )

    res = kkt_residual_norm(qp, dz, lam)
    return SchurSolution(dz=dz, lam=lam, kkt_residual=res, diagnostics=diagnostics)


def _conformance_report(qp, u_q, u_a, u_g, u_r, u_qinv, u_s, u_b, u_sinv, u_lam, u_1, u_dz):
    """Definition-level error vs. the dense-algebra true operand at each node."""
    q_inv = np.linalg.inv(qp.Q)
    s_true = qp.A @ q_inv @ qp.A.T
    b_true = -qp.r - qp.A @ (q_inv @ qp.g)
    s_inv = np.linalg.inv(s_true)
    lam_true = s_inv @ b_true
    u1_true = qp.g + qp.A.T @ lam_true
    dz_true = -q_inv @ u1_true

    nodes = {
        "Q": (u_q, qp.Q),
        "A": (u_a, qp.A),
        "g": (u_g, qp.g.reshape(-1, 1)),
        "r": (u_r, qp.r.reshape(-1, 1)),
        "Qinv": (u_qinv, q_inv),
        "S": (u_s, s_true),
        "b": (u_b, b_true.reshape(-1, 1)),
        "Sinv": (u_sinv, s_inv),
        "lambda": (u_lam, lam_true.reshape(-1, 1)),
        "u1": (u_1, u1_true.reshape(-1, 1)),
        "dz": (u_dz, dz_true.reshape(-1, 1)),
    }
    report = {}
    for name, (enc, true_op) in nodes.items():
        report[name] = {"err": enc.error_against(true_op), "eps": enc.eps}
    return report


class QuantumSchurSolver:
    """SchurStepSolver backed by the simulated block-encoding pipeline.

    The declared per-step accuracy is the computed error budget, exposed in
    each solution's diagnostics; repeated calls advance an internal seed so
    probabilistic re-invocation draws fresh randomness while the whole
    sequence stays deterministic for a given base seed.
    """

    def __init__(self, qcfg: QuantumConfig | None = None):
        self.qcfg = qcfg or QuantumConfig()
        self.name = "quantum"
        self.eps_dz = float("nan")  # per-step value; see diagnostics["eps_dz"]
        self._spec_cache: dict = {}
        self._calls = 0

    def step(self, qp: QpData) -> SchurSolution:
        rng = np.random.default_rng((self.qcfg.seed, self._calls))
        self._calls += 1
        sol = quantum_schur_step(qp, self.qcfg, rng=rng, spec_cache=self._spec_cache)
        self.eps_dz = sol.diagnostics["eps_dz"]
        return sol
