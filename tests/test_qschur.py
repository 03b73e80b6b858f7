import math

import numpy as np
import pytest

from qbsqp.blockenc import BlockEncoding
from qbsqp.qschur import (
    QuantumConfig,
    QuantumSchurSolver,
    QuantumStepError,
    _pipeline,
    quantum_schur_step,
    readout,
)
from qbsqp.schur import exact_step
from oracles import encoding_error
from test_schur import dense_qp


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
    q, a = qp.dense_Q(), qp.dense_A()
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
            eps_in = 10.0 ** rng.uniform(-9, -6, size=4)
            qcfg = QuantumConfig(
                eps_Q=eps_in[0], eps_A=eps_in[1], eps_g=eps_in[2], eps_r=eps_in[3],
                eps_prime_Q=1e-9, eps_prime_S=1e-9, seed=trial, degree_cap=100000,
            )
            sol = quantum_schur_step(qp, qcfg)
            err = np.linalg.norm(sol.dz - exact_step(qp).dz)
            assert err <= sol.diagnostics["eps_dz"]

    def test_conformance_at_every_node(self):
        rng = np.random.default_rng(1)
        qp = random_qp(rng)
        qcfg = QuantumConfig(eps_Q=1e-8, eps_g=1e-8, eps_prime_Q=1e-10,
                             eps_prime_S=1e-10, degree_cap=100000)
        nodes, _ = _pipeline(qp, qcfg, np.random.default_rng(qcfg.seed))
        truth = dense_nodes(qp)
        assert nodes.keys() == truth.keys()
        for name, enc in nodes.items():
            err = encoding_error(enc, truth[name])
            assert err <= enc.eps * (1 + 1e-9) + 1e-13, name

    def test_alpha_dz_matches_closed_form(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            qp = random_qp(rng)
            d = quantum_schur_step(qp, QuantumConfig(degree_cap=100000)).diagnostics
            expected = closed_form_alpha_dz(
                np.linalg.norm(qp.dense_Q(), 2), np.linalg.norm(qp.dense_A(), 2),
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
        qcfg = QuantumConfig(eps_Q=1e-9, eps_prime_Q=1e-12, eps_prime_S=1e-12)
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
            q, a = qp.dense_Q(), qp.dense_A()
            s = a @ np.linalg.solve(q, a.T)
            assert np.linalg.cond(s) <= (
                np.linalg.cond(a) ** 2 * np.linalg.cond(q) * (1 + 1e-6))

    def test_determinism_same_seed(self):
        rng = np.random.default_rng(5)
        qp = random_qp(rng)
        qcfg = QuantumConfig(eps_Q=1e-7, seed=9, degree_cap=100000)
        a = quantum_schur_step(qp, qcfg)
        b = quantum_schur_step(qp, qcfg)
        np.testing.assert_array_equal(a.dz, b.dz)

    def test_usability_cap_failure(self):
        qcfg = QuantumConfig(eps_prime_Q=1e-6, eps_prime_S=1e-6, usability_cap=1e-12)
        with pytest.raises(QuantumStepError, match="usability cap"):
            quantum_schur_step(hand_qp(), qcfg)

    def test_requires_equality_constraints(self):
        qp = dense_qp(np.eye(2), np.zeros((0, 2)), np.ones(2), np.zeros(0))
        with pytest.raises(ValueError):
            quantum_schur_step(qp, QuantumConfig())

    def test_solver_wrapper_deterministic_sequences(self):
        rng = np.random.default_rng(6)
        qp = random_qp(rng)
        s1 = QuantumSchurSolver(QuantumConfig(eps_Q=1e-7, seed=3, degree_cap=100000))
        s2 = QuantumSchurSolver(QuantumConfig(eps_Q=1e-7, seed=3, degree_cap=100000))
        for _ in range(3):
            np.testing.assert_array_equal(s1.step(qp).dz, s2.step(qp).dz)


class TestReadout:
    def _fake_encoding(self, col, size=4):
        emb = np.zeros((size, size))
        emb[: len(col), 0] = col
        return BlockEncoding(embedded=emb, logical_rows=len(col), logical_cols=1,
                             alpha=2.0, ancillas=1, eps=0.0)

    def test_square_law(self):
        # ||column|| = 1/2 -> p_succ = 0.25, dz = alpha * column
        col = np.array([0.5, 0.0])
        dz, p_succ = readout(self._fake_encoding(col))
        assert p_succ == 0.25
        np.testing.assert_allclose(dz, 2.0 * col)

    def test_full_amplitude_means_one_repetition(self):
        _, p_succ = readout(self._fake_encoding(np.array([1.0, 0.0])),
                            p_succ_floor=0.99)
        assert p_succ == 1.0

    def test_floor_failure(self):
        with pytest.raises(QuantumStepError, match="floor"):
            readout(self._fake_encoding(np.array([1e-4, 0.0])), p_succ_floor=1e-4)
