"""Classically simulated quantum Schur-complement step.

The step mirrors the block-encoding pipeline operation by operation:
encode (Q, A, g, r), invert Q by singular value transformation, assemble
the Schur complement S = A Q^{-1} A^T and right-hand side
b = -r - A Q^{-1} g by encoding products and LCU sums, invert S, recover
lam and dz, and read out dz exactly as alpha_dz times the encoded column.

Every composition (``be_mul``, ``be_add``, ``qsvt_invert``) carries its
operands' normalization and error bound by its own rule, so the alpha and
eps of the final encoding are the step's declared normalization alpha_dz
and error bound eps_dz; no second account of either is kept.  The readout
adds no error to eps_dz.

Each step's diagnostics hold plain scalars:

    solver                "quantum"
    alpha_dz, eps_dz      normalization and error bound of the dz encoding
    p_succ                success probability ||dz||^2 / alpha_dz^2
    expected_repetitions  1 / p_succ
    degree_X, beta_X      degree and scale of the inversion polynomial
    kappa_X_fit, gamma_X  condition parameter of the polynomial and the
                          pre-scale gain of the inverted block

with X = Q and S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .qsvt import SpectrumViolationError, build_inversion_spec, qsvt_invert
from .schur import QpData, SchurSolution


class QuantumStepError(RuntimeError):
    """The step cannot be delivered at usable accuracy or success probability."""


@dataclass
class QuantumConfig:
    """Options of the simulated quantum backend, settable under ``solver:``.

    ``eps_Q``, ``eps_A``, ``eps_g`` and ``eps_r`` are the error bounds of
    the input encodings (0 encodes exactly); ``eps_prime_Q`` and
    ``eps_prime_S`` are the accuracy targets of the two inversions.
    ``seed`` seeds the encoding noise.  ``degree_cap`` refuses an
    inversion polynomial of higher degree, ``usability_cap`` a step whose
    eps_dz exceeds it, and ``p_succ_floor`` a step whose success
    probability is below it; each refusal raises before the step is used.
    """

    eps_Q: float = 0.0
    eps_A: float = 0.0
    eps_g: float = 0.0
    eps_r: float = 0.0
    eps_prime_Q: float = 1e-10
    eps_prime_S: float = 1e-10
    seed: int = 0
    degree_cap: int = 4001
    usability_cap: float = float("inf")
    p_succ_floor: float = 0.0


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


def _invert_encoding(u, eps_prime, qcfg):
    """Pre-scale to unit top singular value, pick the spectral interval, invert.

    Returns the inverse encoding, the spec used and the pre-scale gain.
    """
    sigma = np.linalg.svd(u.block, compute_uv=False)
    s_max, s_min = float(sigma[0]), float(sigma[-1])
    if s_min <= 0.0 or not np.isfinite(s_min):
        raise SpectrumViolationError(f"operand block is singular (sigma_min={s_min})")

    gamma = 1.0 / s_max
    kappa_fit = _bucket_kappa(s_max / s_min * KAPPA_SAFETY)

    spec = build_inversion_spec(kappa_fit, eps_prime, degree_cap=qcfg.degree_cap)

    u_inv = qsvt_invert(be_rescale(u, gamma), spec)
    return u_inv, spec, gamma


def _pipeline(qp: QpData, qcfg: QuantumConfig, rng: np.random.Generator):
    """Encode the KKT data and compose the encodings of the step.

    Returns the encoding at every node by name (Q, A, g, r, Qinv, S, b,
    Sinv, lambda, u1, dz) and, for Q and S, the inversion's (spec, gamma).
    """
    size = 1 << max(0, math.ceil(math.log2(max(qp.n_z, qp.m_eq))))
    u_q = _encode_with_floor(qp.dense_Q(), qcfg.eps_Q, size, rng)
    u_a = _encode_with_floor(qp.dense_A(), qcfg.eps_A, size, rng)
    u_g = _encode_with_floor(qp.g, qcfg.eps_g, size, rng)
    u_r = _encode_with_floor(qp.r, qcfg.eps_r, size, rng)
    u_at = be_transpose(u_a)

    u_qinv, spec_q, gamma_q = _invert_encoding(u_q, qcfg.eps_prime_Q, qcfg)

    u_s = be_mul(be_mul(u_a, u_qinv), u_at)
    u_b = be_add(be_neg(u_r), be_neg(be_mul(u_a, be_mul(u_qinv, u_g))))

    u_sinv, spec_s, gamma_s = _invert_encoding(u_s, qcfg.eps_prime_S, qcfg)

    u_lam = be_mul(u_sinv, u_b)
    u_1 = be_add(u_g, be_mul(u_at, u_lam))
    u_dz = be_mul(be_neg(u_qinv), u_1)

    nodes = {"Q": u_q, "A": u_a, "g": u_g, "r": u_r, "Qinv": u_qinv, "S": u_s,
             "b": u_b, "Sinv": u_sinv, "lambda": u_lam, "u1": u_1, "dz": u_dz}
    return nodes, {"Q": (spec_q, gamma_q), "S": (spec_s, gamma_s)}


def readout(
    u_dz: BlockEncoding,
    *,
    p_succ_floor: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Recover the classical vector from the final encoding, exactly.

    Returns alpha_dz times the encoded column, unpadded, and the success
    probability p_succ = ||column||^2, or raises QuantumStepError when
    p_succ is below the floor.
    """
    column = u_dz.embedded[: u_dz.logical_rows, 0]
    p_succ = float(np.linalg.norm(column) ** 2)
    if p_succ < p_succ_floor:
        raise QuantumStepError(
            f"success probability {p_succ:.3e} below floor {p_succ_floor:.3e}; "
            f"expected repetitions {_repetitions(p_succ):.3e}"
        )
    return u_dz.alpha * column, p_succ


def _repetitions(p_succ: float) -> float:
    return 1.0 / p_succ if p_succ > 0.0 else float("inf")


def quantum_schur_step(
    qp: QpData,
    qcfg: QuantumConfig,
    *,
    rng: np.random.Generator | None = None,
) -> SchurSolution:
    """Run the simulated block-encoding pipeline on one KKT system.

    The declared normalization and error bound of dz are the alpha and eps
    of the composed dz encoding; the diagnostics keys are listed in the
    module docstring.
    """
    if qp.m_eq == 0:
        raise ValueError("quantum Schur step requires at least one equality constraint")
    if rng is None:
        rng = np.random.default_rng(qcfg.seed)

    nodes, inversions = _pipeline(qp, qcfg, rng)
    u_dz, u_lam = nodes["dz"], nodes["lambda"]
    if u_dz.eps > qcfg.usability_cap:
        raise QuantumStepError(
            f"error budget {u_dz.eps:.3e} exceeds usability cap "
            f"{qcfg.usability_cap:.3e}"
        )

    dz, p_succ = readout(u_dz, p_succ_floor=qcfg.p_succ_floor)
    lam = u_lam.alpha * u_lam.embedded[: qp.m_eq, 0]

    diagnostics: dict[str, Any] = {
        "solver": "quantum",
        "alpha_dz": float(u_dz.alpha),
        "eps_dz": float(u_dz.eps),
        "p_succ": p_succ,
        "expected_repetitions": _repetitions(p_succ),
    }
    for name, (spec, gamma) in inversions.items():
        diagnostics[f"degree_{name}"] = spec.degree
        diagnostics[f"beta_{name}"] = spec.beta
        diagnostics[f"kappa_{name}_fit"] = spec.kappa
        diagnostics[f"gamma_{name}"] = gamma
    return SchurSolution(dz=dz, lam=lam, diagnostics=diagnostics)


class QuantumSchurSolver:
    """SchurStepSolver backed by the simulated block-encoding pipeline.

    The declared per-step accuracy is the dz encoding's error bound, exposed
    in each solution's diagnostics; repeated calls advance an internal seed
    so probabilistic re-invocation draws fresh randomness while the whole
    sequence stays deterministic for a given base seed.
    """

    def __init__(self, qcfg: QuantumConfig | None = None):
        self.qcfg = qcfg or QuantumConfig()
        self.name = "quantum"
        self.eps_dz = float("nan")  # per-step value; see diagnostics["eps_dz"]
        self._calls = 0

    def step(self, qp: QpData) -> SchurSolution:
        rng = np.random.default_rng((self.qcfg.seed, self._calls))
        self._calls += 1
        sol = quantum_schur_step(qp, self.qcfg, rng=rng)
        self.eps_dz = sol.diagnostics["eps_dz"]
        return sol
