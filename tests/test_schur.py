import re

import numpy as np
import pytest
from scipy.linalg import block_diag

import qbsqp.schur
from qbsqp.experiments import HIV_SQP_DEFAULTS
from qbsqp.models import HivParameters, hiv_initial_guess, hiv_ocp, toy_problems
from qbsqp.nlp import BarrierConfig, build_qp, transcribe
from qbsqp.qschur import QuantumConfig, QuantumSchurSolver
from qbsqp.schur import (
    DENSE_SOLVE_BLOCKS,
    BlockDiagonal,
    BlockTridiagonal,
    ExactSchurSolver,
    NoisySchurSolver,
    QpData,
    RowBlocks,
    SingularityError,
    exact_step,
    noisy_step,
    schur_blocks,
)
from qbsqp.sqp import SqpConfig, solve


def unstaged(a) -> RowBlocks:
    """A dense A as one row block on the tail."""
    empty = np.zeros((0, len(a), 0))
    return RowBlocks(BlockDiagonal(empty, a), empty)


def dense_qp(q, a, g, r) -> QpData:
    """QpData of a dense Q and A: no stage blocks, all of both on the tail."""
    return QpData(Q=BlockDiagonal(np.zeros((0, 0, 0)), q), A=unstaged(a), g=g, r=r)


def kkt_residual_norm(qp: QpData, dz: np.ndarray, lam: np.ndarray) -> float:
    """Oracle: ||Q dz + A^T lam + g|| + ||A dz - r||."""
    a = qp.A.dense()
    stat = np.linalg.norm(qp.Q.dense() @ dz + a.T @ lam + qp.g)
    feas = np.linalg.norm(a @ dz - qp.r) if qp.m_eq else 0.0
    return float(stat + feas)


def dense_kkt_solve(qp: QpData) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: factorize the full KKT matrix directly (no Schur elimination)."""
    n, m = qp.n_z, qp.m_eq
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = qp.Q.dense()
    kkt[:n, n:] = qp.A.dense().T
    kkt[n:, :n] = qp.A.dense()
    rhs = np.concatenate([-qp.g, qp.r])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n], sol[n:]


def row_blocks(count, rows, size, rest, rng=None) -> RowBlocks:
    """Row blocks of ones, or of standard normal entries when rng is given."""
    def fill(*shape):
        return rng.standard_normal(shape) if rng is not None else np.ones(shape)
    stages, sub, tail = fill(count, rows, size), fill(count, rows, size), fill(rows, rest)
    return RowBlocks(BlockDiagonal(stages, tail), sub)


def random_qp(rng, n=12, m=4, spd_lo=0.5, spd_hi=5.0):
    q_basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(spd_lo, spd_hi, size=n)
    q = (q_basis * eigs) @ q_basis.T
    q = 0.5 * (q + q.T)
    a = rng.standard_normal((m, n))
    g = rng.standard_normal(n)
    r = rng.standard_normal(m)
    return dense_qp(q, a, g, r)


class TestExactStep:
    def test_two_var_one_constraint_hand_solution(self):
        # Q = I, A = [1 0], g = 0, r = [1]: S = 1, b = -1, lam = -1, dz = (1, 0).
        qp = dense_qp(np.eye(2), np.array([[1.0, 0.0]]),
                      np.zeros(2), np.array([1.0]))
        sol = exact_step(qp)
        np.testing.assert_allclose(sol.dz, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(sol.lam, [-1.0], atol=1e-14)
        np.testing.assert_allclose(qp.A.dense() @ sol.dz, qp.r, atol=1e-14)

    def test_homogeneous_system_gives_zero(self):
        qp = dense_qp(np.eye(3), np.array([[1.0, 1.0, 0.0]]),
                      np.zeros(3), np.zeros(1))
        sol = exact_step(qp)
        assert np.all(sol.dz == 0.0)
        assert np.all(sol.lam == 0.0)

    def test_matches_dense_kkt_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            qp = random_qp(rng)
            sol = exact_step(qp)
            dz_ref, lam_ref = dense_kkt_solve(qp)
            assert np.linalg.norm(sol.dz - dz_ref) <= 1e-10 * (1 + np.linalg.norm(dz_ref))
            assert np.linalg.norm(sol.lam - lam_ref) <= 1e-9 * (1 + np.linalg.norm(lam_ref))

    def test_residual_postcondition(self):
        rng = np.random.default_rng(1)
        qp = random_qp(rng)
        sol = exact_step(qp)
        bound = 1e-9 * (1 + np.linalg.norm(qp.g) + np.linalg.norm(qp.r))
        assert kkt_residual_norm(qp, sol.dz, sol.lam) <= bound

    def test_unconstrained_case(self):
        qp = dense_qp(2.0 * np.eye(3), np.zeros((0, 3)),
                      np.array([2.0, 0.0, -4.0]), np.zeros(0))
        sol = exact_step(qp)
        np.testing.assert_allclose(sol.dz, [-1.0, 0.0, 2.0])
        assert sol.lam.shape == (0,)

    def test_singular_q_raises_with_diagnostics(self):
        qp = dense_qp(np.diag([1.0, 0.0]), np.array([[1.0, 0.0]]),
                      np.zeros(2), np.zeros(1))
        with pytest.raises(SingularityError, match="eig range"):
            exact_step(qp)

    @pytest.mark.parametrize("bad, name", [(1, "stage block 1"), (3, "stage block 3")])
    def test_indefinite_block_raises_naming_the_block(self, bad, name):
        # Three stage blocks of size 2, then a trailing block of size 1
        # (stage 3); block `bad` gets the eigenvalues -2 and 0.5.
        stages, tail = np.tile(np.eye(2), (3, 1, 1)), np.eye(1)
        if bad < 3:
            stages[bad] = np.diag([-2.0, 0.5])
        else:
            tail[0, 0] = -2.0
        qp = QpData(Q=BlockDiagonal(stages, tail), A=row_blocks(3, 1, 2, 1),
                    g=np.zeros(7), r=np.zeros(4))
        low, high = (-2.0, 0.5) if bad < 3 else (-2.0, -2.0)
        message = (f"Q {name} is not positive definite "
                   f"(eig range [{low:.3e}, {high:.3e}])")
        with pytest.raises(SingularityError, match=f"^{re.escape(message)}$"):
            exact_step(qp)

    @pytest.mark.parametrize("stages, tail, message", [
        (np.ones((2, 2, 3)), np.eye(1), "Q must have square blocks"),
        (np.ones((2, 2)), np.eye(1), "stages must be a stack of blocks (count, rows, size)"),
        (np.ones((2, 2, 2)), np.ones((1, 2)), "Q must have square blocks"),
    ])
    def test_q_blocks_must_be_square(self, stages, tail, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QpData(Q=BlockDiagonal(stages, tail), A=row_blocks(2, 1, 2, 1),
                   g=np.zeros(5), r=np.zeros(3))

    @pytest.mark.parametrize("a, g, r, message", [
        (row_blocks(2, 1, 2, 0), np.zeros(5), np.zeros(3), "A must have n_z columns"),
        (row_blocks(2, 1, 3, 1), np.zeros(5), np.zeros(3), "A must have n_z columns"),
        (row_blocks(2, 1, 2, 1), np.zeros(6), np.zeros(3), "g must have length n_z"),
        (row_blocks(2, 1, 2, 1), np.zeros(5), np.zeros(2), "r must have length m_eq"),
        (unstaged(np.ones((1, 5))), np.zeros(5), np.zeros(1),
         "A must have the stage count and size of Q"),
        (row_blocks(1, 1, 2, 3), np.zeros(5), np.zeros(2),
         "A must have the stage count and size of Q"),
    ])
    def test_a_g_r_must_fit_the_q_blocks(self, a, g, r, message):
        # Two stage blocks of size 2 and a trailing block of size 1: n_z = 5.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QpData(Q=BlockDiagonal(np.ones((2, 2, 2)), np.eye(1)), A=a, g=g, r=r)

    @pytest.mark.parametrize("stages, sub, tail, message", [
        (np.ones((2, 1)), np.ones((2, 1)), np.ones((1, 1)),
         "stages must be a stack of blocks (count, rows, size)"),
        (np.ones((2, 1, 2)), np.ones((1, 1, 2)), np.ones((1, 1)),
         "sub must have the shape of stages"),
        (np.ones((2, 1, 2)), np.ones((2, 1, 2)), np.ones((2, 1)),
         "tail must have the rows of each row block"),
        (np.ones((2, 1, 2)), np.ones((2, 1, 2)), np.ones(1),
         "tail must have the rows and columns of one block"),
    ])
    def test_row_blocks_must_agree(self, stages, sub, tail, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RowBlocks(BlockDiagonal(stages, tail), sub)

    def test_dense_q_places_the_blocks_on_the_diagonal(self):
        stages = np.arange(8.0).reshape(2, 2, 2)
        qp = QpData(Q=BlockDiagonal(stages, np.full((1, 1), 9.0)),
                    A=row_blocks(2, 1, 2, 1), g=np.zeros(5), r=np.zeros(3))
        expected = np.zeros((5, 5))
        expected[:2, :2], expected[2:4, 2:4], expected[4, 4] = stages[0], stages[1], 9.0
        np.testing.assert_array_equal(qp.Q.dense(), expected)

    def test_singular_schur_complement_raises(self):
        # Repeated constraint rows make S = A Q^-1 A^T singular.
        qp = dense_qp(np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]]),
                      np.zeros(2), np.zeros(2))
        with pytest.raises(SingularityError, match="Schur complement S"):
            exact_step(qp)

    def test_kappa_s_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            qp = random_qp(rng)
            q = qp.Q.dense()
            a = qp.A.dense()
            s = a @ np.linalg.solve(q, a.T)
            kappa_s = np.linalg.cond(s)
            bound = np.linalg.cond(a) ** 2 * np.linalg.cond(q)
            assert kappa_s <= bound * (1 + 1e-6)


def ocp_qps():
    """build_qp subproblems at each OCP's start point, HIV at three horizons."""
    qps = {}
    for horizon in (4, 20, 160):
        nlp = transcribe(hiv_ocp(HivParameters(N=horizon)))
        qps[f"hiv_N{horizon}"] = build_qp(nlp, hiv_initial_guess(nlp, 0.05),
                                          BarrierConfig(mu=1e-2))
    for name, toy in toy_problems().items():
        qps[name] = build_qp(transcribe(toy.ocp), toy.z0, BarrierConfig(mu=1e-2))
    return qps


@pytest.mark.parametrize("name, qp", list(ocp_qps().items()))
def test_block_step_matches_dense_kkt_oracle_on_ocp_qps(name, qp):
    assert len(qp.Q.stages) >= 1 and len(qp.Q.tail) >= 1  # stage and terminal blocks
    sol = exact_step(qp)
    dz_ref, lam_ref = dense_kkt_solve(qp)
    assert np.linalg.norm(sol.dz - dz_ref) <= 1e-10 * np.linalg.norm(dz_ref)
    assert np.linalg.norm(sol.lam - lam_ref) <= 1e-10 * np.linalg.norm(lam_ref)


def staged_qp(rng, count=5, rows=2, size=4, rest=3) -> QpData:
    """A staged QP whose Q blocks are random SPD and whose row blocks,
    the diagonal ones included, are random."""
    def spd(k, d):
        b = rng.standard_normal((k, d, d))
        return b @ b.mT + d * np.eye(d)
    n_z, m_eq = count * size + rest, (count + 1) * rows
    return QpData(Q=BlockDiagonal(spd(count, size), spd(1, rest)[0]),
                  A=row_blocks(count, rows, size, rest, rng),
                  g=rng.standard_normal(n_z), r=rng.standard_normal(m_eq))


def tridiagonal(diag, off):
    """The symmetric block-tridiagonal matrix of its diagonal blocks and the
    blocks above them."""
    count, rows = diag.shape[:2]
    s = np.zeros((count * rows, count * rows))
    for k in range(count):
        s[k * rows:(k + 1) * rows, k * rows:(k + 1) * rows] = diag[k]
    for k in range(count - 1):
        s[k * rows:(k + 1) * rows, (k + 1) * rows:(k + 2) * rows] = off[k]
        s[(k + 1) * rows:(k + 2) * rows, k * rows:(k + 1) * rows] = off[k].T
    return s


def block_qps():
    """HIV subproblems at three horizons, and a staged QP with random blocks."""
    qps = {}
    for horizon in (6, 20, 160):
        nlp = transcribe(hiv_ocp(HivParameters(N=horizon)))
        qps[f"hiv_N{horizon}"] = build_qp(nlp, hiv_initial_guess(nlp, 0.05),
                                          BarrierConfig(mu=1e-2))
    qps["random_staged"] = staged_qp(np.random.default_rng(11))
    return qps


class TestBlockSchurComplement:
    @pytest.mark.parametrize("name, qp", list(block_qps().items()))
    def test_schur_blocks_equal_the_dense_product(self, name, qp):
        s = schur_blocks(qp.A, qp.Q.inv()).dense()
        a = qp.A.dense()
        expected = a @ np.linalg.inv(qp.Q.dense()) @ a.T
        assert np.max(np.abs(s - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_row_block_products_equal_the_dense_products(self):
        rng = np.random.default_rng(12)
        for count, rows, size, rest in ((4, 2, 3, 2), (0, 3, 0, 5), (1, 1, 2, 4),
                                        (2, 0, 3, 2)):
            a = row_blocks(count, rows, size, rest, rng)
            dense = a.dense()
            assert dense.shape == a.shape
            y, lam = rng.standard_normal(a.shape[1]), rng.standard_normal(a.shape[0])
            np.testing.assert_allclose(a.dot(y), dense @ y, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(a.tdot(lam), dense.T @ lam, rtol=1e-13,
                                       atol=1e-13)

    @pytest.mark.parametrize("stages, tail", [
        ((4, 2, 3), (3, 5)),  # rectangular blocks
        ((0, 0, 0), (4, 4)),  # no stages
        ((5, 0, 4), (2, 3)),  # zero-row stage blocks, as with n_path = 0
        ((5, 0, 4), (0, 3)),  # no rows at all
        ((3, 2, 2), (4, 4)),  # a tail larger than the stage blocks
        ((3, 4, 4), (3, 3)),  # a tail smaller than the stage blocks
    ], ids=["rectangular", "no_stages", "zero_row_stages", "no_rows",
            "larger_tail", "smaller_tail"])
    def test_block_diagonal_products_equal_the_dense_products(self, stages, tail):
        rng = np.random.default_rng(14)
        q = BlockDiagonal(rng.standard_normal(stages), rng.standard_normal(tail))
        dense = block_diag(*q.stages, q.tail)
        np.testing.assert_array_equal(q.dense(), dense)
        assert q.shape == dense.shape and q.T.shape == dense.T.shape
        y, w = rng.standard_normal(q.shape[1]), rng.standard_normal(q.shape[0])
        for product, oracle, v in ((q.dot, dense, y), (q.tdot, dense.T, w)):
            bound = 1e-14 * (np.abs(oracle) @ np.abs(v))
            assert np.all(np.abs(product(v) - oracle @ v) <= bound)
        if stages[1] != stages[2] or tail[0] != tail[1]:
            return
        # Square blocks: shifted to be well conditioned, then inverted and
        # stacked with identity borders.
        q = BlockDiagonal(q.stages + 4.0 * np.eye(stages[1]), q.tail + 4.0 * np.eye(tail[0]))
        expected = np.linalg.inv(block_diag(*q.stages, q.tail))
        assert (np.max(np.abs(q.inv().dense() - expected))
                <= 1e-14 * np.max(np.abs(expected)))
        width = max(stages[1], tail[0])
        bordered = [block_diag(b, np.eye(width - len(b))) for b in (*q.stages, q.tail)]
        np.testing.assert_array_equal(q.stacked(), np.array(bordered))

    def test_staged_step_matches_dense_kkt_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            qp = staged_qp(rng)
            sol = exact_step(qp)
            dz_ref, lam_ref = dense_kkt_solve(qp)
            assert np.linalg.norm(sol.dz - dz_ref) <= 1e-10 * np.linalg.norm(dz_ref)
            assert np.linalg.norm(sol.lam - lam_ref) <= 1e-10 * np.linalg.norm(lam_ref)

    def test_one_factorization_of_small_blocks_per_step(self, monkeypatch):
        # HIV N = 40: S is 123 x 123, and its pivots are 3 x 3.
        nlp = transcribe(hiv_ocp(HivParameters(N=40)))
        shapes, steps = [], []
        factor = qbsqp.schur.cho_factor

        def spy(a):
            shapes.append(a.shape)
            return factor(a)

        class CountingSolver(ExactSchurSolver):
            def step(self, qp):
                steps.append(qp.m_eq)
                return super().step(qp)

        monkeypatch.setattr(qbsqp.schur, "cho_factor", spy)
        rep = solve(nlp, hiv_initial_guess(nlp, 0.05), SqpConfig(**HIV_SQP_DEFAULTS),
                    CountingSolver())
        assert rep.termination == "converged" and len(steps) >= rep.n_iters > 0
        assert len(shapes) == len(steps)
        assert all(shape[-2:] == (nlp.ocp.n, nlp.ocp.n) for shape in shapes)


def spd_tridiagonal(rng, count=7, rows=3):
    """Diagonal blocks near 4 I and coupling blocks of norm below 1: SPD."""
    sym = rng.standard_normal((count, rows, rows))
    diag = 4.0 * np.eye(rows) + 0.1 * (sym + sym.mT)
    off = 0.3 * rng.standard_normal((count - 1, rows, rows))
    return diag, off


def dense_verdict(diag, off) -> bool:
    """Oracle: whether one dense Cholesky factorization of S succeeds."""
    try:
        np.linalg.cholesky(tridiagonal(diag, off))
        return True
    except np.linalg.LinAlgError:
        return False


class TestOddEvenReduction:
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 161])
    def test_spd_passes(self, count):
        diag, off = spd_tridiagonal(np.random.default_rng(count), count=count)
        assert dense_verdict(diag, off)
        BlockTridiagonal(diag, off).factor()

    @pytest.mark.parametrize("count, stage", [(7, 0), (7, 3), (7, 6), (8, 5), (8, 7),
                                              (1, 0)])
    def test_indefinite_pivot_names_its_stage(self, count, stage):
        diag, off = spd_tridiagonal(np.random.default_rng(stage), count=count)
        diag[stage] = np.diag([-1.0, 4.0, 4.0])
        assert not dense_verdict(diag, off)
        with pytest.raises(SingularityError,
                           match=rf"^Schur complement S .* stage {stage} "):
            BlockTridiagonal(diag, off).factor()

    @pytest.mark.parametrize("stage", [2, 3, 6])
    def test_singular_block_names_its_stage(self, stage):
        # Row and column 0 of block `stage` are zero, and so are the couplings
        # that reach them: S is singular, and so is that stage's pivot.
        diag, off = spd_tridiagonal(np.random.default_rng(5))
        diag[stage, 0, :] = diag[stage, :, 0] = 0.0
        if stage > 0:
            off[stage - 1][:, 0] = 0.0
        if stage < len(diag) - 1:
            off[stage][0, :] = 0.0
        assert not dense_verdict(diag, off)
        with pytest.raises(SingularityError,
                           match=rf"^Schur complement S .* stage {stage} "):
            BlockTridiagonal(diag, off).factor()

    def test_verdict_equals_dense_cholesky_on_shifted_matrices(self):
        rng = np.random.default_rng(14)
        verdicts = []
        for _ in range(60):
            diag, off = spd_tridiagonal(rng, count=int(rng.integers(1, 12)))
            s = tridiagonal(diag, off)
            lowest = np.linalg.eigvalsh(s)[0]
            shift = lowest - rng.uniform(-1.0, 1.0)  # lowest eigenvalue moves into (-1, 1)
            if abs(lowest - shift) < 1e-6:
                continue
            diag = diag - shift * np.eye(diag.shape[1])
            expected = dense_verdict(diag, off)
            try:
                BlockTridiagonal(diag, off).factor()
                verdicts.append(expected)
            except SingularityError:
                verdicts.append(not expected)
        assert all(verdicts) and len(verdicts) > 50


class TestBlockTridiagonal:
    @pytest.mark.parametrize("count, rows", [(1, 3), (2, 3), (7, 2), (8, 1), (3, 0)])
    def test_dense_and_dot_equal_the_oracle(self, count, rows):
        rng = np.random.default_rng(count)
        diag, off = spd_tridiagonal(rng, count=count, rows=rows)
        s = BlockTridiagonal(diag, off)
        dense = tridiagonal(diag, off)
        np.testing.assert_array_equal(s.dense(), dense)
        assert s.shape == dense.shape

    @pytest.mark.parametrize("diag, off, message", [
        (np.ones((2, 2, 3)), np.ones((1, 2, 2)),
         "diag must be a stack of square blocks (count, rows, rows)"),
        (np.ones((0, 2, 2)), np.ones((0, 2, 2)),
         "diag must be a stack of square blocks (count, rows, rows)"),
        (np.ones((2, 2)), np.ones((1, 2)),
         "diag must be a stack of square blocks (count, rows, rows)"),
        (np.ones((2, 2, 2)), np.ones((2, 2, 2)),
         "off must hold count - 1 blocks of the size of diag's"),
    ])
    def test_blocks_must_agree(self, diag, off, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BlockTridiagonal(diag, off)

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 32, 33, 64, 65, 161])
    def test_solve_agrees_with_the_dense_lu(self, count):
        rng = np.random.default_rng(count)
        s = BlockTridiagonal(*spd_tridiagonal(rng, count=count))
        b = rng.standard_normal(s.shape[0])
        expected = np.linalg.solve(s.dense(), b)
        factor = s.factor()
        for x in (factor.solve(b), factor.substitute(b)):
            assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
        if count <= DENSE_SOLVE_BLOCKS:
            np.testing.assert_array_equal(factor.solve(b), expected)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 40])
    def test_no_rows(self, count):
        s = BlockTridiagonal(np.zeros((count, 0, 0)), np.zeros((count - 1, 0, 0)))
        factor, b = s.factor(), np.zeros(0)
        assert factor.solve(b).shape == factor.substitute(b).shape == (0,)

    def test_hiv_step_above_the_threshold_matches_dense_kkt_oracle(self):
        nlp = transcribe(hiv_ocp(HivParameters(N=200)))
        qp = build_qp(nlp, hiv_initial_guess(nlp, 0.05), BarrierConfig(mu=1e-2))
        assert len(qp.A.sub) + 1 > DENSE_SOLVE_BLOCKS
        sol = exact_step(qp)
        dz_ref, lam_ref = dense_kkt_solve(qp)
        assert np.linalg.norm(sol.dz - dz_ref) <= 1e-10 * np.linalg.norm(dz_ref)
        assert np.linalg.norm(sol.lam - lam_ref) <= 1e-10 * np.linalg.norm(lam_ref)


class TestNoisyStep:
    def test_eps_zero_is_exact(self):
        rng = np.random.default_rng(4)
        qp = random_qp(rng)
        sol_noisy = noisy_step(qp, 0.0, np.random.default_rng(0))
        sol_exact = exact_step(qp)
        np.testing.assert_array_equal(sol_noisy.dz, sol_exact.dz)
        np.testing.assert_array_equal(sol_noisy.lam, sol_exact.lam)
        assert sol_noisy.diagnostics == {"solver": "noisy", "eps_dz": 0.0,
                                         "noise_norm": 0.0}

    def test_hard_norm_bound(self):
        rng = np.random.default_rng(5)
        qp = random_qp(rng)
        exact = exact_step(qp).dz
        for seed in range(50):
            sol = noisy_step(qp, 1e-3, np.random.default_rng(seed))
            assert np.linalg.norm(sol.dz - exact) <= 1e-3

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        qp = random_qp(rng)
        a = noisy_step(qp, 1e-2, np.random.default_rng(42))
        b = noisy_step(qp, 1e-2, np.random.default_rng(42))
        np.testing.assert_array_equal(a.dz, b.dz)

    def test_solver_interface_law(self):
        rng = np.random.default_rng(7)
        qp = random_qp(rng)
        exact = exact_step(qp).dz
        solver = NoisySchurSolver(eps=5e-4, seed=1)
        for _ in range(5):
            sol = solver.step(qp)
            assert np.linalg.norm(sol.dz - exact) <= 5e-4
            assert sol.diagnostics["eps_dz"] == 5e-4


def test_backends_are_named_by_their_manifest_label():
    assert ExactSchurSolver().name == "exact"
    assert NoisySchurSolver(1e-3, seed=2).name == "noisy:0.001"
    assert QuantumSchurSolver(QuantumConfig(eps_prime_S=1e-12)).name == "quantum:eps'=1e-12"
    assert QuantumSchurSolver().name == "quantum:eps'=1e-10"
