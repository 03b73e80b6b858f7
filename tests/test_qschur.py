import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsqp.blockenc import BlockEncoding
from qbsqp.qschur import (
    ErrorBudget,
    QuantumConfig,
    QuantumSchurSolver,
    QuantumStepError,
    predict_normalization,
    propagate_error_budget,
    quantum_schur_step,
    readout,
)
from qbsqp.schur import QpData, exact_step


def hand_qp():
    return QpData(Q=np.eye(2), A=np.array([[1.0, 0.0]]),
                  g=np.zeros(2), r=np.array([1.0]))


def random_qp(rng, n_max=8, m_max=4, spd=(0.5, 3.0)):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, min(n, m_max) + 1))
    qb, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(*spd, size=n)
    q = (qb * eigs) @ qb.T
    return QpData(Q=0.5 * (q + q.T), A=rng.standard_normal((m, n)),
                  g=rng.standard_normal(n), r=rng.standard_normal(m))


class TestPredictNormalization:
    def test_all_ones_chain(self):
        lg = predict_normalization(1, 1, 1, 1, 1, 1, 1, 1)
        assert (lg.alpha_Qinv, lg.alpha_S, lg.alpha_b) == (1.0, 1.0, 2.0)
        assert (lg.alpha_Sinv, lg.alpha_lambda, lg.alpha_1, lg.alpha_dz) == (1.0, 2.0, 3.0, 3.0)

    def test_hand_trace_example(self):
        lg = predict_normalization(2.0, 1.0, 1.0, 1.0,
                                   kappa_Q=4.0, beta_Q=1.0, kappa_S=2.0, beta_S=1.0)
        assert lg.alpha_Qinv == 2.0
        assert lg.alpha_S == 2.0
        assert lg.alpha_b == 3.0
        assert lg.alpha_Sinv == 1.0
        assert lg.alpha_lambda == 3.0
        assert lg.alpha_1 == 4.0
        assert lg.alpha_dz == 8.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_closed_form_matches_recurrence(self, seed):
        rng = np.random.default_rng(seed)
        args = 10.0 ** rng.uniform(-3, 3, size=4)
        kappas = rng.uniform(1.0, 1e4, size=2)
        betas = 2.0 ** rng.integers(0, 5, size=2)
        # predict_normalization raises if the internal closed-form check fails
        lg = predict_normalization(args[0], args[1], args[2], args[3],
                                   kappas[0], betas[0], kappas[1], betas[1])
        assert lg.alpha_dz > 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            predict_normalization(0.0, 1, 1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            predict_normalization(1, 1, 1, 1, 0.5, 1, 1, 1)


class TestErrorBudget:
    def _ledger(self):
        return predict_normalization(2.0, 1.5, 1.0, 0.5, 8.0, 2.0, 32.0, 2.0)

    def test_zero_inputs_give_zero_total(self):
        budget = propagate_error_budget(
            ErrorBudget(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), self._ledger())
        assert budget.eps_dz == 0.0

    def test_budget_is_exactly_linear(self):
        lg = self._ledger()
        base = ErrorBudget(1e-8, 2e-8, 3e-9, 4e-9, 1e-10, 2e-10)
        doubled = ErrorBudget(2e-8, 4e-8, 6e-9, 8e-9, 2e-10, 4e-10)
        b1 = propagate_error_budget(base, lg)
        b2 = propagate_error_budget(doubled, lg)
        assert math.isclose(b2.eps_dz, 2.0 * b1.eps_dz, rel_tol=1e-12)

    def test_constants_reconstruct_total(self):
        lg = self._ledger()
        inp = ErrorBudget(1e-8, 2e-8, 3e-9, 4e-9, 1e-10, 2e-10)
        budget = propagate_error_budget(inp, lg)
        c = budget.constants
        total = (c["c1"] * inp.eps_Q + c["c2"] * inp.eps_A + c["c3"] * inp.eps_g
                 + c["c4"] * inp.eps_r + c["c5"] * inp.eps_Qprime + c["c6"] * inp.eps_Sprime)
        assert math.isclose(total, budget.eps_dz, rel_tol=1e-12)


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
        cache = {}
        for trial in range(15):
            qp = random_qp(rng)
            eps_in = 10.0 ** rng.uniform(-9, -6, size=4)
            qcfg = QuantumConfig(
                eps_Q=eps_in[0], eps_A=eps_in[1], eps_g=eps_in[2], eps_r=eps_in[3],
                eps_prime_Q=1e-9, eps_prime_S=1e-9, seed=trial, degree_cap=100000,
            )
            sol = quantum_schur_step(qp, qcfg, spec_cache=cache)
            err = np.linalg.norm(sol.dz - exact_step(qp).dz)
            assert err <= sol.diagnostics["eps_dz"]

    def test_conformance_at_every_node(self):
        rng = np.random.default_rng(1)
        qp = random_qp(rng)
        qcfg = QuantumConfig(eps_Q=1e-8, eps_g=1e-8, eps_prime_Q=1e-10,
                             eps_prime_S=1e-10, validate_nodes=True, degree_cap=100000)
        sol = quantum_schur_step(qp, qcfg)
        for name, node in sol.diagnostics["conformance"].items():
            assert node["err"] <= node["eps"] * (1 + 1e-9) + 1e-13, name

    def test_success_probability_law(self):
        rng = np.random.default_rng(2)
        cache = {}
        for trial in range(20):
            qp = random_qp(rng)
            sol = quantum_schur_step(
                qp, QuantumConfig(degree_cap=100000), spec_cache=cache)
            lg = sol.diagnostics["ledger"]
            expected = np.linalg.norm(sol.dz) ** 2 / lg.alpha_dz**2
            assert abs(lg.p_succ - expected) <= 1e-12
            assert abs(lg.expected_repetitions - 1.0 / lg.p_succ) <= 1e-12
            assert 0.0 < lg.p_succ <= 1.0 + 1e-9

    def test_kappa_s_bound_against_condition_numbers(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            qp = random_qp(rng)
            s = qp.A @ np.linalg.solve(qp.Q, qp.A.T)
            assert np.linalg.cond(s) <= (
                np.linalg.cond(qp.A) ** 2 * np.linalg.cond(qp.Q) * (1 + 1e-6))

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
        qp = QpData(Q=np.eye(2), A=np.zeros((0, 2)), g=np.ones(2), r=np.zeros(0))
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

    def _ledger_with(self, alpha_dz, p_succ):
        lg = predict_normalization(1, 1, 1, 1, 1, 1, 1, 1)
        lg.alpha_dz = alpha_dz
        lg.p_succ = p_succ
        lg.expected_repetitions = 1.0 / p_succ
        return lg

    def test_square_law(self):
        # ||dz|| = alpha/2 -> p_succ = 0.25, repetitions = 4
        col = np.array([0.5, 0.0])
        p = float(np.linalg.norm(col) ** 2)
        assert p == 0.25
        lg = self._ledger_with(alpha_dz=2.0, p_succ=p)
        assert lg.expected_repetitions == 4.0
        u = self._fake_encoding(col)
        dz = readout(u, lg, "exact")
        np.testing.assert_allclose(dz, 2.0 * col)

    def test_full_amplitude_means_one_repetition(self):
        col = np.array([1.0, 0.0])
        lg = self._ledger_with(alpha_dz=2.0, p_succ=1.0)
        assert lg.expected_repetitions == 1.0
        readout(self._fake_encoding(col), lg, "exact", p_succ_floor=0.99)

    def test_floor_failure(self):
        lg = self._ledger_with(alpha_dz=2.0, p_succ=1e-8)
        with pytest.raises(QuantumStepError, match="floor"):
            readout(self._fake_encoding(np.array([1e-4, 0.0])), lg, "exact",
                    p_succ_floor=1e-4)

    def test_sampled_mode_converges_to_exact(self):
        col = np.array([0.6, -0.3, 0.1])
        lg = self._ledger_with(alpha_dz=2.0, p_succ=float(np.linalg.norm(col) ** 2))
        u = self._fake_encoding(col)
        exact = readout(u, lg, "exact")
        shots = 10**8
        seeds = range(8)
        samples = np.array([
            readout(u, lg, "sampled", shots=shots, rng=np.random.default_rng(s))
            for s in seeds
        ])
        sdev = lg.alpha_dz / math.sqrt(shots)
        # mean over seeds within 3 standard errors, componentwise
        np.testing.assert_allclose(samples.mean(axis=0), exact,
                                   atol=3.0 * sdev / math.sqrt(len(samples)))
        # each draw is deterministic per seed
        again = readout(u, lg, "sampled", shots=shots, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(samples[0], again)
