import dataclasses
import math

import numpy as np
import pytest

import qbsqp.qschur
from qbsqp.blockenc import BlockEncoding
from qbsqp.experiments import HIV_SQP_DEFAULTS
from qbsqp.models import HivParameters, hiv_initial_guess, hiv_ocp
from qbsqp.nlp import BarrierConfig, build_qp, transcribe
from qbsqp.qschur import (
    KAPPA_SAFETY,
    QuantumConfig,
    QuantumSchurSolver,
    _pipeline,
    quantum_schur_step,
    readout,
)
from qbsqp.qsvt import SpectrumViolationError, qsvt_invert
from qbsqp.schur import BlockDiagonal, exact_step
from qbsqp.sqp import SqpConfig, solve
from oracles import encoding_error
from test_schur import dense_qp, staged_qp


def hand_qp():
    return dense_qp(np.eye(2), np.array([[1.0, 0.0]]), np.zeros(2), np.array([1.0]))


def random_qp(rng, n_max=8, m_max=4, spd=(0.5, 3.0)):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, min(n, m_max) + 1))
    qb, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(*spd, size=n)
    q = (qb * eigs) @ qb.T
    return dense_qp(0.5 * (q + q.T), rng.standard_normal((m, n)),
                    rng.standard_normal(n), rng.standard_normal(m))


def dense_nodes(qp):
    """The operand each pipeline node encodes, by dense algebra."""
    q, a = qp.Q.dense(), qp.A.dense()
    q_inv = np.linalg.inv(q)
    s_true = a @ q_inv @ a.T
    b_true = -qp.r - a @ (q_inv @ qp.g)
    s_inv = np.linalg.inv(s_true)
    lam_true = s_inv @ b_true
    u1_true = qp.g + a.T @ lam_true
    return {"Q": q, "A": a, "g": qp.g, "r": qp.r, "Qinv": q_inv,
            "S": s_true, "b": b_true, "Sinv": s_inv, "lambda": lam_true,
            "u1": u1_true, "dz": -q_inv @ u1_true}


def closed_form_alpha_dz(alpha_Q, alpha_A, alpha_g, alpha_r,
                         kappa_Q, beta_Q, kappa_S, beta_S):
    """The paper's closed form for the normalization of the dz encoding.

    kappa_X is the condition parameter relative to the composed
    normalization: the polynomial's kappa times the pre-scale gain.
    """
    return (kappa_Q * beta_Q / alpha_Q) * (
        alpha_g
        + alpha_A
        * (kappa_S * beta_S / alpha_A**2)
        * (alpha_Q / (kappa_Q * beta_Q))
        * (alpha_r + alpha_A * (kappa_Q * beta_Q / alpha_Q) * alpha_g)
    )


class TestQuantumSchurStep:
    def test_hand_instance_within_budget(self):
        qcfg = QuantumConfig(eps_prime_Q=1e-12, eps_prime_S=1e-12)
        sol = quantum_schur_step(hand_qp(), qcfg)
        assert np.linalg.norm(sol.dz - np.array([1.0, 0.0])) <= sol.diagnostics["eps_dz"]
        np.testing.assert_allclose(sol.lam, [-1.0], atol=1e-9)

    def test_tight_tolerances_tiny_instance(self):
        rng = np.random.default_rng(3)
        qp = random_qp(rng, n_max=4, m_max=2, spd=(0.8, 1.6))
        qcfg = QuantumConfig(eps_prime_Q=1e-12, eps_prime_S=1e-12)
        sol = quantum_schur_step(qp, qcfg)
        err = np.linalg.norm(sol.dz - exact_step(qp).dz)
        assert err <= 1e-9

    def test_budget_validity_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(15):
            qp = random_qp(rng)
            qcfg = QuantumConfig(eps_prime_Q=1e-9, eps_prime_S=1e-9, degree_cap=100000)
            sol = quantum_schur_step(qp, qcfg)
            err = np.linalg.norm(sol.dz - exact_step(qp).dz)
            assert err <= sol.diagnostics["eps_dz"], trial

    def test_conformance_at_every_node(self):
        # A random QP, and HIV at N = 4 from its rollout start, where
        # n_z = 23 and m_eq = 15 are not powers of two and r is zero.
        rng = np.random.default_rng(1)
        nlp = transcribe(hiv_ocp(HivParameters(N=4)))
        hiv_qp = build_qp(nlp, hiv_initial_guess(nlp), BarrierConfig(mu=1e-2))
        assert (hiv_qp.n_z, hiv_qp.m_eq) == (23, 15)
        qcfg = QuantumConfig(eps_prime_Q=1e-10, eps_prime_S=1e-10, degree_cap=400001)
        for qp in (random_qp(rng), hiv_qp):
            nodes, _ = _pipeline(qp, qcfg)
            truth = dense_nodes(qp)
            assert nodes.keys() == truth.keys()
            for name, enc in nodes.items():
                err = encoding_error(enc, truth[name])
                assert err <= enc.eps * (1 + 1e-9) + 1e-13, name
                # size is the next power of two of the block's larger side.
                side = max(enc.block.shape)
                assert enc.size & (enc.size - 1) == 0, name
                assert enc.size // 2 < side <= enc.size, name
        # The register of 32 that every HIV node once shared.
        assert nodes["Q"].size == nodes["A"].size == 32

    def test_alpha_dz_matches_closed_form(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            qp = random_qp(rng)
            d = quantum_schur_step(qp, QuantumConfig(degree_cap=100000)).diagnostics
            expected = closed_form_alpha_dz(
                np.linalg.norm(qp.Q.dense(), 2), np.linalg.norm(qp.A.dense(), 2),
                np.linalg.norm(qp.g), np.linalg.norm(qp.r),
                d["kappa_Q_fit"] * d["gamma_Q"], d["beta_Q"],
                d["kappa_S_fit"] * d["gamma_S"], d["beta_S"])
            assert math.isclose(d["alpha_dz"], expected, rel_tol=1e-12), trial

    def test_success_probability_law(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            qp = random_qp(rng)
            sol = quantum_schur_step(qp, QuantumConfig(degree_cap=100000))
            d = sol.diagnostics
            expected = np.linalg.norm(sol.dz) ** 2 / d["alpha_dz"] ** 2
            assert abs(d["p_succ"] - expected) <= 1e-12
            assert abs(d["expected_repetitions"] - 1.0 / d["p_succ"]) <= 1e-12
            assert 0.0 < d["p_succ"] <= 1.0 + 1e-9

    def test_diagnostics_are_plain_scalars_with_the_read_keys(self):
        # The iterate CSV, the compare manifest and the benchmark's tracer
        # read these keys; every value must serialize as a plain scalar.
        qcfg = QuantumConfig(eps_prime_Q=1e-12, eps_prime_S=1e-12)
        sol = quantum_schur_step(random_qp(np.random.default_rng(7)), qcfg)
        d = sol.diagnostics
        for key, value in d.items():
            assert type(value) in (str, int, float), key
        assert {"solver", "alpha_dz", "eps_dz", "p_succ", "expected_repetitions",
                "degree_Q", "degree_S"} <= d.keys()
        assert math.isclose(d["p_succ"], np.linalg.norm(sol.dz) ** 2 / d["alpha_dz"] ** 2,
                            rel_tol=1e-12)

    def test_kappa_s_bound_against_condition_numbers(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            qp = random_qp(rng)
            q, a = qp.Q.dense(), qp.A.dense()
            s = a @ np.linalg.solve(q, a.T)
            assert np.linalg.cond(s) <= (
                np.linalg.cond(a) ** 2 * np.linalg.cond(q) * (1 + 1e-6))

    def test_determinism_same_seed(self):
        # The step draws no randomness: the same QP gives the same step.
        rng = np.random.default_rng(5)
        qp = random_qp(rng)
        qcfg = QuantumConfig(degree_cap=100000)
        a = quantum_schur_step(qp, qcfg)
        b = quantum_schur_step(qp, qcfg)
        np.testing.assert_array_equal(a.dz, b.dz)
        np.testing.assert_array_equal(a.lam, b.lam)

    def test_requires_equality_constraints(self):
        qp = dense_qp(np.eye(2), np.zeros((0, 2)), np.ones(2), np.zeros(0))
        with pytest.raises(ValueError):
            quantum_schur_step(qp, QuantumConfig())

    def test_solver_wrapper_deterministic_sequences(self):
        rng = np.random.default_rng(6)
        qp = random_qp(rng)
        s1 = QuantumSchurSolver(QuantumConfig(degree_cap=100000))
        s2 = QuantumSchurSolver(QuantumConfig(degree_cap=100000))
        first = s1.step(qp).dz
        for _ in range(3):
            np.testing.assert_array_equal(s1.step(qp).dz, first)
            np.testing.assert_array_equal(s2.step(qp).dz, first)

    def test_singular_q_stage_block_is_named(self):
        qp = staged_qp(np.random.default_rng(3))
        stages = qp.Q.stages.copy()
        stages[2] = np.diag([1.0, 2.0, 0.0, 1.0])
        qp = dataclasses.replace(qp, Q=BlockDiagonal(stages, qp.Q.tail))
        with pytest.raises(SpectrumViolationError, match="stage block 2 is singular"):
            quantum_schur_step(qp, QuantumConfig())

    def test_one_step_decomposes_blocks_and_s_once(self, monkeypatch):
        # HIV N = 10: Q is decomposed by its stage blocks, and neither an
        # SVD nor a spectral norm touches an n_z x n_z array.
        nlp = transcribe(hiv_ocp(HivParameters(N=10)))
        qp = build_qp(nlp, hiv_initial_guess(nlp, 0.05), BarrierConfig(mu=1e-2))
        real_svd, real_norm = np.linalg.svd, np.linalg.norm
        svds, spectral_norms = [], []

        def svd(a, *args, **kwargs):
            svds.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        def norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                spectral_norms.append(np.shape(x))
            return real_norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg, "norm", norm)
        quantum_schur_step(qp, QuantumConfig(eps_prime_Q=1e-12, eps_prime_S=1e-12,
                                             degree_cap=400001))
        stages, tail = qp.Q.stages.shape, qp.Q.tail.shape
        assert (qp.n_z, qp.m_eq) == (53, 33)
        assert sorted(svds) == sorted([stages, tail, (qp.m_eq, qp.m_eq)])
        assert sorted(spectral_norms) == sorted([stages, tail, (qp.m_eq, qp.n_z)])


class ExactTwinSolver:
    """The quantum backend, with each QP also solved by ``exact_step``."""

    name = "quantum"

    def __init__(self, qcfg: QuantumConfig):
        self.quantum = QuantumSchurSolver(qcfg)
        self.steps = []

    def step(self, qp):
        sol = self.quantum.step(qp)
        self.steps.append((sol, exact_step(qp).dz))
        return sol


@pytest.mark.parametrize("n, eps_prime", [(4, 1e-10), (10, 1e-12), (40, 1e-12)])
def test_hiv_steps_keep_their_declared_bound(monkeypatch, n, eps_prime):
    # Every step is within eps_dz of the exact step, eps_dz is below the
    # step it bounds, and each inversion is fitted to the condition number
    # of its operand, as a dense SVD measures it.
    conds = []

    def recorded(u, spec, decomposition=None):
        block = u.block.dense() if isinstance(u.block, BlockDiagonal) else u.block
        sigma = np.linalg.svd(block, compute_uv=False)
        conds.append(sigma[0] / sigma[-1])
        return qsvt_invert(u, spec, decomposition)

    monkeypatch.setattr(qbsqp.qschur, "qsvt_invert", recorded)
    nlp = transcribe(hiv_ocp(HivParameters(N=n)))
    qcfg = QuantumConfig(eps_prime_Q=eps_prime, eps_prime_S=eps_prime, degree_cap=400001)
    solver = ExactTwinSolver(qcfg)
    rep = solve(nlp, hiv_initial_guess(nlp, 0.05), SqpConfig(**HIV_SQP_DEFAULTS), solver)
    assert rep.termination == "converged"
    assert len(conds) == 2 * len(solver.steps) == 2 * rep.n_iters
    for k, (sol, dz_exact) in enumerate(solver.steps):
        d = sol.diagnostics
        assert np.linalg.norm(sol.dz - dz_exact) <= d["eps_dz"], k
        assert d["eps_dz"] / np.linalg.norm(sol.dz) < 1.0, k
        for name, cond in zip("QS", conds[2 * k:2 * k + 2]):
            assert math.isclose(d[f"kappa_{name}_fit"], max(2.0, cond * KAPPA_SAFETY),
                                rel_tol=1e-10), (k, name)


# The S inversion's fitted condition number and degree over the steps of
# an HIV quantum solve at eps' = 1e-12 from u_guess 0.05, as measured.
S_GROWTH = {10: ((853.0, 905.0), (25_937, 27_503)),
            20: ((1_910.0, 2_140.0), (58_175, 65_001)),
            40: ((4_760.0, 5_740.0), (144_769, 174_455))}


def test_schur_condition_and_degree_grow_with_the_horizon():
    # kappa_S grows polynomially in N on this transcription (about N^1.3
    # near the solution), and degree_S with it; each stays within 5% of its
    # measured range, so a regression in either direction shows.
    qcfg = QuantumConfig(eps_prime_Q=1e-12, eps_prime_S=1e-12, degree_cap=400001)
    previous = (0.0, 0)
    for n, bands in S_GROWTH.items():
        nlp = transcribe(hiv_ocp(HivParameters(N=n)))
        rep = solve(nlp, hiv_initial_guess(nlp, 0.05), SqpConfig(**HIV_SQP_DEFAULTS),
                    QuantumSchurSolver(qcfg))
        assert rep.termination == "converged", n
        diags = [r.solver_diag for r in rep.records[1:]]
        for key, (lo, hi), below in zip(("kappa_S_fit", "degree_S"), bands, previous):
            values = [d[key] for d in diags]
            assert 0.95 * lo <= min(values) and max(values) <= 1.05 * hi, (n, key)
            assert min(values) > below, (n, key)
        previous = tuple(max(d[key] for d in diags) for key in ("kappa_S_fit", "degree_S"))


class TestReadout:
    def _fake_encoding(self, col):
        return BlockEncoding(block=col.reshape(-1, 1), alpha=2.0, eps=0.0)

    def test_square_law(self):
        # ||column|| = 1/2 -> p_succ = 0.25, dz = alpha * column
        col = np.array([0.5, 0.0])
        dz, p_succ = readout(self._fake_encoding(col))
        assert p_succ == 0.25
        np.testing.assert_allclose(dz, 2.0 * col)

    def test_full_amplitude_means_one_repetition(self):
        _, p_succ = readout(self._fake_encoding(np.array([1.0, 0.0])))
        assert p_succ == 1.0
