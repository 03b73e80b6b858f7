"""Classically simulated quantum Schur-complement step.

The step mirrors the block-encoding pipeline operation by operation:
encode (Q, A, g, r) exactly, invert Q by singular value transformation,
assemble the Schur complement S = A Q^{-1} A^T and right-hand side
b = -r - A Q^{-1} g by encoding products and LCU sums, invert S, recover
lam and dz, and read out dz exactly as alpha_dz times the encoded column.

Q is held as its stage-select encoding, a ``BlockDiagonal`` of its stage
blocks with alpha = max_k ||Q_k|| = ||Q||; its inverse is handed on as
one dense block.  Each inversion decomposes its operand once, Q by its
stage blocks, and takes from that one decomposition the pre-scale gain,
the condition number the polynomial is fitted to and the transformed
singular values.

Every composition (``be_mul``, ``be_add``, ``qsvt_invert``) carries its
operands' normalization and error bound by its own rule, so the alpha and
eps of the final encoding are the step's declared normalization alpha_dz
and error bound eps_dz; no second account of either is kept.  The inputs
are encoded exactly, so eps_dz comes from the two inversions alone:

    eps_Qinv = alpha_Qinv e_Q                      (no input error)
    eps_S    = alpha_A^2 eps_Qinv,  eps_b = alpha_A alpha_g eps_Qinv
    eps_Sinv = C_in eps_S + alpha_Sinv e_S
    eps_lam  = alpha_Sinv eps_b + alpha_b eps_Sinv
    eps_dz   = alpha_Qinv alpha_A eps_lam + alpha_u1 eps_Qinv

where e_X is the X polynomial's achieved_err and C_in =
(kappa_S/alpha)^2/(1 - kappa_S eps_S/alpha) is the exact inverse-
perturbation constant of ``qsvt``'s Accuracy section, alpha being the
pre-scaled S encoding's normalization.  Q's error, carried into S, is the
S inversion's input error, and C_in eps_S is the term that sets eps_dz:
840 to 900 times alpha_Sinv e_S over an HIV N = 10 solve at
eps' = 1e-12.  The readout adds no error to eps_dz, and the step draws no
randomness.  A step is refused only for a singular operand or an
inversion degree above ``degree_cap``; its eps_dz and p_succ are reported
in the diagnostics, not tested against a threshold.

Each step's diagnostics hold plain scalars:

    solver                "quantum"
    alpha_dz, eps_dz      normalization and error bound of the dz encoding
    p_succ                success probability ||dz||^2 / alpha_dz^2
    expected_repetitions  1 / p_succ
    degree_X              degree of the inversion polynomial
    beta_X                its scale, the proven sup of |p| over 1 - 1e-9
                          (2.54 at eps' = 1e-12), a factor of alpha_Xinv
    kappa_X_fit, gamma_X  condition number the polynomial is fitted to,
                          max(2, sigma_max/sigma_min * KAPPA_SAFETY) of the
                          operand, and the pre-scale gain 1/sigma_max

with X = Q and S.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
)
from .qsvt import SpectrumViolationError, build_inversion_spec, decompose, qsvt_invert
from .schur import BlockDiagonal, QpData, SchurSolution


@dataclass
class QuantumConfig:
    """Options of the simulated quantum backend, settable under ``solver:``.

    ``eps_prime_Q`` and ``eps_prime_S`` are the accuracy targets of the two
    inversions.  ``degree_cap`` refuses an inversion polynomial of higher
    degree, before any work.
    """

    eps_prime_Q: float = 1e-10
    eps_prime_S: float = 1e-10
    degree_cap: int = 4001


# Margin on the measured condition number, so that rounding in the SVD
# cannot push a singular value just below 1/kappa.
KAPPA_SAFETY = 1.0 + 1e-9


def _invert_encoding(u, eps_prime, qcfg):
    """Invert an encoding from one decomposition of its block.

    The decomposition gives sigma_max and sigma_min.  The block is
    pre-scaled by gamma = 1/sigma_max to unit top singular value, and the
    polynomial is fitted to kappa_fit = max(2, sigma_max/sigma_min *
    KAPPA_SAFETY).  The floor of 2 keeps theta_0 = 2 atanh(1/kappa) at most
    ln 3, so the degree that first reaches the target eps'/8 overshoots it
    by at most a factor 3 in T_0; nearer kappa = 1 one degree step
    overshoots by more, and the proven error 1/T_0 can fall below double
    rounding.  The same decomposition, scaled by gamma, is the one
    transformed.  A singular block raises SpectrumViolationError, naming
    its stage when the block is block diagonal.

    Returns the inverse encoding, the spec used and the pre-scale gain.
    """
    parts = decompose(u.block)
    # The smallest singular value of each block, in stage order, tail last.
    lows = np.concatenate([np.min(s, axis=-1, initial=np.inf).reshape(-1)
                           for _, s, _ in parts])
    s_max = max(float(np.max(s, initial=0.0)) for _, s, _ in parts)
    s_min = float(lows.min())
    if s_min <= 0.0 or not np.isfinite(s_min):
        where = "operand block"
        if isinstance(u.block, BlockDiagonal) and len(u.block.stages):
            where = f"operand stage block {int(lows.argmin())}"
        raise SpectrumViolationError(f"{where} is singular (sigma_min={s_min})")

    gamma = 1.0 / s_max
    kappa_fit = max(2.0, s_max / s_min * KAPPA_SAFETY)

    spec = build_inversion_spec(kappa_fit, eps_prime, degree_cap=qcfg.degree_cap)

    scaled = [(w, gamma * s, vt) for w, s, vt in parts]
    u_inv = qsvt_invert(be_rescale(u, gamma), spec, scaled)
    return u_inv, spec, gamma


def _pipeline(qp: QpData, qcfg: QuantumConfig):
    """Encode the KKT data and compose the encodings of the step.

    Returns the encoding at every node by name (Q, A, g, r, Qinv, S, b,
    Sinv, lambda, u1, dz) and, for Q and S, the inversion's (spec, gamma).
    Q, A, g and r are encoded exactly.  Q is encoded and inverted by its
    stage blocks; its inverse is then assembled once into the dense block
    that the products use.
    """
    u_q = encode(qp.Q)
    u_a = encode(qp.A.dense())
    u_g = encode(qp.g)
    u_r = encode(qp.r)
    u_at = be_transpose(u_a)

    u_qinv, spec_q, gamma_q = _invert_encoding(u_q, qcfg.eps_prime_Q, qcfg)
    u_qinv = replace(u_qinv, block=u_qinv.block.dense())

    u_s = be_mul(be_mul(u_a, u_qinv), u_at)
    u_b = be_add(be_neg(u_r), be_neg(be_mul(u_a, be_mul(u_qinv, u_g))))

    u_sinv, spec_s, gamma_s = _invert_encoding(u_s, qcfg.eps_prime_S, qcfg)

    u_lam = be_mul(u_sinv, u_b)
    u_1 = be_add(u_g, be_mul(u_at, u_lam))
    u_dz = be_mul(be_neg(u_qinv), u_1)

    nodes = {"Q": u_q, "A": u_a, "g": u_g, "r": u_r, "Qinv": u_qinv, "S": u_s,
             "b": u_b, "Sinv": u_sinv, "lambda": u_lam, "u1": u_1, "dz": u_dz}
    return nodes, {"Q": (spec_q, gamma_q), "S": (spec_s, gamma_s)}


def readout(u_dz: BlockEncoding) -> tuple[np.ndarray, float]:
    """Recover the classical vector from the final encoding, exactly.

    Returns alpha_dz times the encoded column and the success
    probability p_succ = ||column||^2.
    """
    column = u_dz.block[:, 0]
    return u_dz.alpha * column, float(np.linalg.norm(column) ** 2)


def quantum_schur_step(qp: QpData, qcfg: QuantumConfig) -> SchurSolution:
    """Run the simulated block-encoding pipeline on one KKT system.

    The declared normalization and error bound of dz are the alpha and eps
    of the composed dz encoding; the diagnostics keys are listed in the
    module docstring.
    """
    if qp.m_eq == 0:
        raise ValueError("quantum Schur step requires at least one equality constraint")

    nodes, inversions = _pipeline(qp, qcfg)
    u_dz, u_lam = nodes["dz"], nodes["lambda"]
    dz, p_succ = readout(u_dz)
    lam = u_lam.alpha * u_lam.block[:, 0]

    diagnostics: dict[str, Any] = {
        "solver": "quantum",
        "alpha_dz": float(u_dz.alpha),
        "eps_dz": float(u_dz.eps),
        "p_succ": p_succ,
        "expected_repetitions": 1.0 / p_succ if p_succ > 0.0 else float("inf"),
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
    in each solution's diagnostics.  The step draws no randomness: the same
    QP gives the same step, bit for bit, on every call.
    """

    def __init__(self, qcfg: QuantumConfig | None = None):
        self.qcfg = qcfg or QuantumConfig()
        self.name = f"quantum:eps'={self.qcfg.eps_prime_S:g}"

    def step(self, qp: QpData) -> SchurSolution:
        return quantum_schur_step(qp, self.qcfg)
