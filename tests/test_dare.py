"""Discrete-time Riccati sweeps, restarts, and compression."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from fftriccati import dare, residuals
from fftriccati.dare import (LowRankFactor, RiccatiProblem, build_krylov_stack,
                             compress_factor, fta_dare_arbitrary,
                             fta_dare_solve, fta_dare_sweep)
from fftriccati.errors import (DimensionMismatch, NoConvergence, StackBlowup)
from fftriccati.linops import rowmul
from fftriccati.residuals import nres_dare
from fftriccati.toeplitz import bt_apply
from fftriccati.toeplitz_inverse import StructuredInverse

from oracles import dre_dense, random_dare_instance

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0


def graded_stack(rows, cols, seed):
    """rows x cols matrix with singular values 1 ... 1e-14 and random vectors."""
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    U, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    V, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    return (U * np.logspace(0, -14, k)) @ V.T


def scalar_problem(a=1.0, b=1.0, c=1.0):
    return RiccatiProblem(np.array([[a]]), np.array([[b]]), np.array([[c]]))


class TestProblem:
    def test_dimensions(self):
        P = RiccatiProblem(np.eye(4), np.ones((4, 2)), np.ones((1, 4)))
        assert (P.n, P.m, P.l) == (4, 2, 1)

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            RiccatiProblem(np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((1, 3)))
        with pytest.raises(DimensionMismatch):
            RiccatiProblem(np.eye(3), np.zeros((2, 1)), np.zeros((1, 3)))
        with pytest.raises(DimensionMismatch):
            RiccatiProblem(np.eye(3), np.zeros((3, 1)), np.zeros((1, 2)))
        with pytest.raises(DimensionMismatch):
            RiccatiProblem(np.eye(3), np.full((3, 1), np.nan), np.zeros((1, 3)))
        with pytest.raises(DimensionMismatch, match="need m <= n"):
            RiccatiProblem(np.eye(2), np.zeros((2, 3)), np.zeros((1, 2)))
        with pytest.raises(DimensionMismatch, match="B must have at least one column"):
            RiccatiProblem(np.eye(2), np.zeros((2, 0)), np.ones((1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_non_finite_a_rejected(self, bad, sparse):
        A = np.eye(3)
        A[1, 2] = bad
        if sparse:
            A = scipy.sparse.csr_array(A)
        with pytest.raises(DimensionMismatch, match="A must be finite"):
            RiccatiProblem(A, np.ones((3, 1)), np.ones((1, 3)))

    # the dtype decides: a float cast drops imaginary parts, a sparse A kept them
    @pytest.mark.parametrize("name,sparse", [("A", False), ("A", True), ("B", False),
                                             ("C", False)],
                             ids=["A-dense", "A-sparse", "B", "C"])
    def test_complex_input_rejected(self, name, sparse):
        mats = {"A": -np.eye(3), "B": np.ones((3, 1)), "C": np.ones((1, 3))}
        mats[name] = mats[name] * (1.0 + 0.5j)
        if sparse:
            mats[name] = scipy.sparse.csr_array(mats[name])
        with pytest.raises(DimensionMismatch, match="%s must be real" % name):
            RiccatiProblem(mats["A"], mats["B"], mats["C"])

    def test_a_stored_as_csr(self):
        A = np.array([[-1.0, 2.0, 0.0], [0.0, -3.0, 0.5], [0.0, 0.0, -2.0]])
        P = RiccatiProblem(A, np.ones((3, 1)), np.ones((1, 3)))
        assert P.A.format == "csr"
        np.testing.assert_array_equal(P.A.toarray(), A)
        A_csr = scipy.sparse.csr_matrix(A)
        assert RiccatiProblem(A_csr, np.ones((3, 1)), np.ones((1, 3))).A is A_csr

    def test_sparse_b_and_c_stored_dense(self):
        B = np.array([[1.0], [0.0], [2.0]])
        C = np.array([[0.0, 3.0, -1.0]])
        P = RiccatiProblem(-np.eye(3), scipy.sparse.csr_matrix(B), scipy.sparse.coo_matrix(C))
        assert isinstance(P.B, np.ndarray) and isinstance(P.C, np.ndarray)
        np.testing.assert_array_equal(P.B, B)
        np.testing.assert_array_equal(P.C, C)


class TestKrylovStack:
    def test_t1(self):
        P = scalar_problem()
        st = build_krylov_stack(P, 1)
        np.testing.assert_allclose(st.Vt, [[1.0]])
        assert st.VB.shape == (0, 1)

    def test_scalar_powers(self):
        st = build_krylov_stack(scalar_problem(), 3)
        np.testing.assert_allclose(st.Vt.ravel(), [1, 1, 1])
        np.testing.assert_allclose(st.VB.ravel(), [1, 1])

    def test_matches_dense_powers(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((20, 20)) / 6.0
        B = rng.standard_normal((20, 2))
        C = rng.standard_normal((2, 20))
        P = RiccatiProblem(A, B, C)
        st = build_krylov_stack(P, 8)
        for k in range(8):
            blk = C @ np.linalg.matrix_power(A, k)
            assert np.linalg.norm(st.Vt[2 * k:2 * k + 2] - blk) <= 1e-12
        for k in range(7):
            assert np.linalg.norm(
                st.VB[2 * k:2 * k + 2]
                - C @ np.linalg.matrix_power(A, k) @ B) <= 1e-12

    def test_blowup_guard(self):
        P = RiccatiProblem(np.array([[1e30]]), np.array([[1.0]]), np.array([[1.0]]))
        with pytest.raises(StackBlowup):
            build_krylov_stack(P, 8)

    def test_t_validated(self):
        P = scalar_problem()
        for t in (0, 2.5, True):
            for call in (lambda: build_krylov_stack(P, t), lambda: fta_dare_sweep(P, t),
                         lambda: fta_dare_arbitrary(P, np.ones((1, 1)), t)):
                with pytest.raises(ValueError, match="t must be an integer >= 1"):
                    call()


class TestSweep:
    def test_t1_returns_c(self):
        S = fta_dare_sweep(scalar_problem(), 1)
        np.testing.assert_allclose(S.gram(), [[1.0]])

    def test_scalar_two_steps(self):
        S = fta_dare_sweep(scalar_problem(), 2)
        np.testing.assert_allclose(S.gram(), [[1.5]], atol=1e-12)

    def test_matches_dense_dre(self):
        A, B, C = random_dare_instance(1, 24, 2, 2)
        P = RiccatiProblem(A, B, C)
        X8 = dre_dense(A, B, C, np.zeros((24, 24)), 8)
        S = fta_dare_sweep(P, 8)
        assert np.linalg.norm(S.gram() - X8) <= 1e-10 * np.linalg.norm(X8)

    def test_factor_has_t_l_rows(self):
        A, B, C = random_dare_instance(6, 40, 2, 2)
        P = RiccatiProblem(A, B, C)
        for t in (1, 4, 8):
            assert fta_dare_sweep(P, t).r == t * 2

    def test_monotone_in_t(self):
        A, B, C = random_dare_instance(2, 16, 2, 1)
        P = RiccatiProblem(A, B, C)
        prev = fta_dare_sweep(P, 1)
        for t in (2, 4, 8, 16):
            cur = fta_dare_sweep(P, t)
            bound = np.linalg.norm(cur.gram())
            assert np.linalg.eigvalsh(cur.gram() - prev.gram())[0] >= -1e-10 * bound
            prev = cur

    def test_bounded_by_fixed_point(self):
        A, B, C = random_dare_instance(3, 12, 1, 1)
        P = RiccatiProblem(A, B, C)
        Xstar = scipy.linalg.solve_discrete_are(A, B, C.T @ C, np.eye(1))
        X16 = fta_dare_sweep(P, 16).gram()
        vals = np.linalg.eigvalsh(Xstar - X16)
        assert vals.min() >= -1e-9 * np.linalg.norm(Xstar)


class TestArbitraryInit:
    def test_zero_init_matches_sweep(self):
        A, B, C = random_dare_instance(4, 10, 2, 2)
        P = RiccatiProblem(A, B, C)
        plain = fta_dare_sweep(P, 4).gram()
        arb = fta_dare_arbitrary(P, np.zeros((1, 10)), 4).gram()
        assert np.linalg.norm(plain - arb) <= 1e-11 * np.linalg.norm(plain)

    def test_scalar_one_step_from_one(self):
        S = fta_dare_arbitrary(scalar_problem(), np.array([[1.0]]), 1)
        np.testing.assert_allclose(S.gram(), [[1.5]], atol=1e-12)

    # t = 2: the coupling runs through a one-block inner system, Q3 empty
    @pytest.mark.parametrize("t", [2, 4])
    def test_matches_dense_dre_from_gamma(self, t):
        A, B, C = random_dare_instance(5, 16, 2, 2)
        P = RiccatiProblem(A, B, C)
        rng = np.random.default_rng(50)
        G = rng.standard_normal((3, 16)) / 4.0
        dense = dre_dense(A, B, C, G.T @ G, t)
        S = fta_dare_arbitrary(P, G, t)
        assert np.linalg.norm(S.gram() - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_gamma_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            fta_dare_arbitrary(scalar_problem(), np.ones((1, 2)), 2)

    @pytest.mark.parametrize("shape", [(1, 2), (0, 5)])
    def test_zero_gamma_width_checked(self, shape):
        with pytest.raises(DimensionMismatch, match="n columns"):
            fta_dare_arbitrary(scalar_problem(), np.zeros(shape), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gamma_is_input_error(self, bad, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("_sweep_base called on non-finite Gamma")
        monkeypatch.setattr(dare, "_sweep_base", no_sweep)
        with pytest.raises(DimensionMismatch, match="Gamma must be finite"):
            fta_dare_arbitrary(scalar_problem(), np.array([[bad]]), 2)

    def test_complex_gamma_rejected(self):
        with pytest.raises(DimensionMismatch, match="Gamma must be real"):
            fta_dare_arbitrary(scalar_problem(0.5), np.array([[1.0 + 1.0j]]), 2)

    def test_empty_gamma_is_plain_sweep(self):
        A, B, C = random_dare_instance(4, 10, 2, 2)
        P = RiccatiProblem(A, B, C)
        arb = fta_dare_arbitrary(P, np.zeros((0, 10)), 4)
        assert np.array_equal(arb.S, fta_dare_sweep(P, 4).S)


class TestCompress:
    def test_duplicated_rows_halve(self):
        v = np.array([[1.0, 2.0, 2.0]])
        S = compress_factor(LowRankFactor(np.vstack([v, v])), 1e-12)
        assert S.r == 1
        np.testing.assert_allclose(S.gram(), 2.0 * v.T @ v, atol=1e-12)

    def test_orthonormal_rows_unchanged_in_count(self):
        S = compress_factor(LowRankFactor(np.eye(3)), 0.5)
        assert S.r == 3
        np.testing.assert_allclose(S.gram(), np.eye(3), atol=1e-12)

    def test_gram_preserved_at_tight_tolerance(self):
        rng = np.random.default_rng(6)
        S = LowRankFactor(rng.standard_normal((64, 40)))
        out = compress_factor(S, 1e-12)
        G = S.gram()
        assert np.linalg.norm(out.gram() - G) <= 1e-10 * np.linalg.norm(G)

    def test_truncation_never_increases(self):
        rng = np.random.default_rng(7)
        S = LowRankFactor(rng.standard_normal((10, 8)))
        out = compress_factor(S, 0.5)
        gap = np.linalg.eigvalsh(S.gram() - out.gram())[0]
        assert gap >= -1e-12 * np.linalg.norm(S.gram())

    def test_zero_factor(self):
        out = compress_factor(LowRankFactor(np.zeros((3, 5))), 1e-12)
        assert out.S.shape == (0, 5)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            compress_factor(LowRankFactor(np.eye(2)), 1.5)

    @pytest.mark.parametrize("rows, cols", [(400, 3000), (120, 50)])
    def test_graded_stack(self, rows, cols):
        S = LowRankFactor(graded_stack(rows, cols, rows + cols))
        tau = 1e-12
        out = compress_factor(S, tau)

        sv = np.linalg.svd(S.S, compute_uv=False)
        assert out.r == np.count_nonzero(sv > tau * sv[0])
        G = S.gram()
        assert np.linalg.norm(out.gram() - G) <= 1e-13 * np.linalg.norm(G)
        M = out.S @ out.S.T
        off = M - np.diag(np.diag(M))
        assert np.max(np.abs(off)) <= 1e-12 * sv[0] ** 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stack_is_blowup(self, bad):
        S = np.ones((3, 5))
        S[1, 2] = bad
        with pytest.raises(StackBlowup):
            compress_factor(LowRankFactor(S), 1e-12)

    def test_rows_sorted_with_sigma_max_first(self):
        # the CARE loop reads sigma_max of its factor off row 0
        S = LowRankFactor(graded_stack(188, 600, 3))
        out = compress_factor(S, 1e-12)
        norms = np.linalg.norm(out.S, axis=1)
        assert np.all(np.diff(norms) <= 0.0)
        sigma_max = np.linalg.svd(S.S, compute_uv=False)[0]
        assert abs(norms[0] - sigma_max) <= 1e-13 * sigma_max

    @pytest.mark.parametrize("tau", [1e-4, 1e-6])
    def test_two_stage_truncation_bound(self, tau):
        # accumulated rows from one compression, then 128 new rows truncated on
        # their own at tau * ||S_acc[0]|| before the stack is compressed again
        M = graded_stack(60 + 128, 600, 4)
        S_acc = compress_factor(LowRankFactor(M[:60]), tau).S
        new = M[60:]
        kept = compress_factor(LowRankFactor(new), tau, np.linalg.norm(S_acc[0])).S
        assert kept.shape[0] < new.shape[0]
        out = compress_factor(LowRankFactor(np.vstack([S_acc, kept])), tau)

        X = S_acc.T @ S_acc + new.T @ new
        assert np.linalg.norm(X - out.gram(), 2) <= 2.0 * tau ** 2 * np.linalg.norm(X, 2)
        one_shot = compress_factor(LowRankFactor(np.vstack([S_acc, new])), tau)
        assert out.r == one_shot.r

    def test_rows_below_floor_truncate_to_empty_block(self):
        rng = np.random.default_rng(5)
        new = 1e-14 * rng.standard_normal((128, 300))
        kept = compress_factor(LowRankFactor(new), 1e-12, 1.0).S
        assert kept.shape == (0, 300)


def gapped_left(k, seed, tau):
    """k x k matrix whose singular values sit a factor 1e3 or more from tau,
    on both sides of it, so a cut at tau has one right rank."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((k, k)))
    V, _ = np.linalg.qr(rng.standard_normal((k, k)))
    sv = np.concatenate([np.logspace(0, np.log10(tau) + 3, k // 2),
                         np.logspace(np.log10(tau) - 3, -15, k - k // 2)])
    return (U * sv) @ V.T


class TestCompressLeft:
    """compress_factor(K, tau, sigma, left=W) cuts W K without forming it."""

    @staticmethod
    def assert_same_cut(K, W, tau, sigma_max=None):
        fused = compress_factor(LowRankFactor(K), tau, sigma_max, left=W)
        formed = compress_factor(LowRankFactor(W @ K), tau, sigma_max)
        assert fused.r == formed.r
        G = formed.gram()
        assert np.linalg.norm(fused.gram() - G) <= 1e-12 * np.linalg.norm(G)
        return fused

    @pytest.mark.parametrize("rows, cols", [(40, 300), (64, 30)])
    def test_random_rows_and_left(self, rows, cols):
        rng = np.random.default_rng(rows + cols)
        K, W = rng.standard_normal((rows, cols)), rng.standard_normal((rows, rows))
        self.assert_same_cut(K, W, 1e-12)
        self.assert_same_cut(K, W, 0.3)

    @pytest.mark.parametrize("tau", [1e-4, 1e-8])
    def test_spectral_gap_at_the_threshold(self, tau):
        K = np.random.default_rng(2).standard_normal((48, 500))
        W = gapped_left(48, 3, tau)
        sigma_max = np.linalg.svd(W @ K, compute_uv=False)[0]
        for sigma in (None, 2.0 * sigma_max):
            out = self.assert_same_cut(K, W, tau, sigma)
            assert out.r == 24

    @pytest.mark.parametrize("t", [1, 8, 32])
    def test_dare_sweep_left_factor(self, t):
        # diag(I_l, R) at t > 1, the identity at t = 1 (the heat problem has l = 1)
        sweep = dare._sweep_base(heat_problem(400), t)
        W = sweep.left
        assert W.shape == (t, t) and W[0, 0] == 1.0
        assert not (np.any(W[0, 1:]) or np.any(W[1:, 0]))
        for sigma in (None, 10.0 * np.linalg.norm(sweep.factor.S, 2)):
            self.assert_same_cut(sweep.rows, W, 1e-12, sigma)

    def test_solve_never_forms_the_sweep_product(self, monkeypatch):
        # restarts cut [D; R V] from [D; V] and diag(I, R): R V is never formed
        widths, original = [], StructuredInverse.apply

        def recorded(self, V):
            widths.append(V.shape[1])
            return original(self, V)

        monkeypatch.setattr(StructuredInverse, "apply", recorded)
        P = heat_problem(400)
        with pytest.raises(NoConvergence) as exc:
            fta_dare_solve(P, t_per_restart=32, stop=0.0, max_restarts=4)
        assert len(exc.value.history) == 4
        assert widths and max(widths) < P.n

    def test_non_finite_left_is_blowup(self):
        with pytest.raises(StackBlowup):
            compress_factor(LowRankFactor(np.ones((2, 5))), 1e-12,
                            left=np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestSolve:
    def test_max_restarts_must_be_positive(self):
        with pytest.raises(ValueError, match="max_restarts"):
            fta_dare_solve(scalar_problem(0.5), max_restarts=0)
        with pytest.raises(ValueError, match="max_restarts must be an integer"):
            fta_dare_solve(scalar_problem(0.5, c=0.0), max_restarts=2.5)
        with pytest.raises(ValueError, match="max_restarts must be an integer"):
            fta_dare_solve(scalar_problem(0.5, c=0.0), max_restarts=True)

    @pytest.mark.parametrize("stop", [-1.0, np.nan])
    def test_stop_must_be_nonnegative(self, stop):
        with pytest.raises(ValueError, match="stop"):
            fta_dare_solve(scalar_problem(0.5), stop=stop)

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="nres rises every restart, 3.1e-5 to 8.4e-4, and the "
                              "last factor is carried (ROADMAP items 8 and 9)")
    def test_rising_restarts_carry_no_worse_factor_than_restart_one(self):
        # 4 unstable modes, closed-loop spectral radius 0.9996;
        # solve_discrete_are reaches nres 4.67e-13 on this instance
        P = RiccatiProblem(*random_dare_instance(0, 200, 3, 3, radius=1.02))
        try:
            factor, history = fta_dare_solve(P, t_per_restart=32, stop=1e-10,
                                             max_restarts=8)
        except NoConvergence as exc:
            factor, history = exc.factor, exc.history
        assert nres_dare(factor, P) <= history[0].nres

    def test_scalar_converges_to_positive_root(self):
        P = scalar_problem(0.5, 1.0, 1.0)
        factor, history = fta_dare_solve(P, t_per_restart=8, stop=1e-10)
        x = factor.gram()[0, 0]
        # fixed point of x = 1 + 0.25 x / (1 + x)
        resid = -x + 0.25 * x / (1.0 + x) + 1.0
        assert abs(resid) <= 1e-8
        assert history[-1].nres <= 1e-10

    def test_scalar_golden_ratio_limit(self):
        factor, _ = fta_dare_solve(scalar_problem(), t_per_restart=16, stop=1e-12)
        assert abs(factor.gram()[0, 0] - GOLDEN_RATIO) <= 1e-10

    def test_random_stable_converges(self):
        A, B, C = random_dare_instance(8, 32, 2, 2)
        P = RiccatiProblem(A, B, C)
        factor, history = fta_dare_solve(P, t_per_restart=8, stop=1e-10,
                                         max_restarts=6)
        assert history[-1].nres <= 1e-10
        Xstar = scipy.linalg.solve_discrete_are(A, B, C.T @ C, np.eye(2))
        assert np.linalg.norm(factor.gram() - Xstar) \
            <= 1e-7 * max(1.0, np.linalg.norm(Xstar))

    def test_already_converged_returns_after_one_round(self):
        A, B, C = random_dare_instance(9, 8, 1, 1)
        P = RiccatiProblem(A, B, C)
        _, history = fta_dare_solve(P, t_per_restart=64, stop=1e-2)
        assert len(history) == 1

    def test_zero_c_returns_zero_factor(self):
        P = RiccatiProblem(np.eye(3) * 0.5, np.ones((3, 1)), np.zeros((1, 3)))
        factor, history = fta_dare_solve(P)
        assert factor.r == 0 and history == []

    def test_no_convergence_carries_state(self):
        A, B, C = random_dare_instance(10, 12, 1, 1)
        P = RiccatiProblem(A, B, C)
        with pytest.raises(NoConvergence) as exc:
            fta_dare_solve(P, t_per_restart=1, stop=1e-14, max_restarts=2)
        assert exc.value.factor is not None
        assert len(exc.value.history) == 2

    def test_history_records_are_complete(self):
        A, B, C = random_dare_instance(11, 10, 1, 1)
        P = RiccatiProblem(A, B, C)
        factor, history = fta_dare_solve(P, t_per_restart=8, stop=1e-10)
        for i, rec in enumerate(history, start=1):
            assert rec.round == i
            assert rec.t == 8
            assert rec.gamma == 0.0
            assert rec.ms >= 0.0
            assert rec.rank >= 0
            assert rec.nres_factor >= 0.0  # every restart carries its residual factor
        for rec in history[:-1]:
            assert rec.nres == rec.nres_factor  # above stop: the exact nres did not run
        # the last nres is the exact one, recomputable from the returned factor
        assert abs(history[-1].nres - nres_dare(factor, P)) <= 1e-12

    def test_rows_in_is_base_rows_plus_previous_rank(self, monkeypatch):
        # as test_care.py::test_rows_in_counts_truncated_sweep_rows: restart 1
        # compresses the sweep alone; later restarts stack only the sweep rows
        # above tau * sigma_max of the factor.  heat400 at t = 32: restart 1
        # keeps 19 of its 32 rows, so t * l and restart 1's rank differ
        cut, original = [], dare.compress_factor

        def recorded(factor, tau, sigma_max=None, left=None):
            out = original(factor, tau, sigma_max, left)
            if left is not None:  # a sweep's cut, not a stack compression
                cut.append(out.r)
            return out

        monkeypatch.setattr(dare, "compress_factor", recorded)
        for P, t in [(RiccatiProblem(*random_dare_instance(8, 32, 2, 2)), 8),
                     (heat_problem(400), 32)]:
            cut.clear()
            try:
                _, history = fta_dare_solve(P, t_per_restart=t, stop=1e-10, max_restarts=6)
            except NoConvergence as exc:
                history = exc.history
            assert len(history) >= 4
            assert history[0].rows_in == t * P.l  # the sweep's t * l rows
            assert history[0].rank == cut[0]
            for prev, rec, kept in zip(history, history[1:], cut[1:]):
                # each restart stacks its sweep's rows above the cut on the last factor
                assert rec.rows_in == prev.rank + kept
                assert kept <= t * P.l


class TestSolveBuildsSweepOnce:
    """Each restart sweeps its closed-loop defect DARE from 0; in exact arithmetic
    its factor is the restarted DRE iterate that ``fta_dare_arbitrary`` gives."""

    def test_one_structured_solve_per_restart(self, monkeypatch):
        calls = {"solve_sweep_systems": 0, "build_krylov_stack": 0}
        for name in calls:
            original = getattr(dare, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(dare, name, counted)
        A, B, C = random_dare_instance(8, 32, 2, 2)
        _, history = fta_dare_solve(RiccatiProblem(A, B, C), t_per_restart=8,
                                    stop=1e-10, max_restarts=6)
        assert len(history) >= 4
        # the closed loop changes every restart, restart 1's (A itself) included
        assert calls == {"solve_sweep_systems": len(history), "build_krylov_stack": 0}

    @pytest.mark.parametrize("instance, t", [
        ((8, 32, 2, 2), 8), ((8, 32, 2, 2), 1), ((3, 60, 3, 2), 12), ((5, 40, 1, 3), 5),
        ("heat400", 32)])  # restart 1 keeps 19 of the heat sweep's 32 rows
    def test_gram_matches_chain_on_uncompressed_base(self, instance, t, monkeypatch):
        P = (heat_problem(400) if instance == "heat400"
             else RiccatiProblem(*random_dare_instance(*instance)))
        tau, stop = 1e-12, 1e-10
        compressions, original = [], dare.compress_factor

        def recorded(factor, tau, sigma_max=None, left=None):
            if left is None:  # a stack compression, not a sweep's cut
                compressions.append(factor.r)
            return original(factor, tau, sigma_max, left)

        monkeypatch.setattr(dare, "compress_factor", recorded)
        # fta_dare_solve's restarts, each factor as it leaves its restart
        rounds = dare._dare_rounds(P, t, tau, stop, 6)
        chain = None
        for k in range(6):
            before = len(compressions)
            factor, fields = next(rounds)
            # each link stacks the raw sweep rows, as fta_dare_arbitrary returns them
            chain = compress_factor(fta_dare_sweep(P, t) if chain is None
                                    else fta_dare_arbitrary(P, chain.S, t), tau)
            X = chain.gram()
            assert np.linalg.norm(factor.gram() - X) <= 1e-12 * np.linalg.norm(X)
            if k == 0 or len(compressions) > before:  # restart 1's cut compresses
                assert fields["rank"] == chain.r
            if fields["nres"] <= stop:
                break
        assert k >= 1


def heat_problem(n):
    """Explicit Euler step of the 1-D heat equation, A = I + 0.25 L; m = l = 1."""
    lap = scipy.sparse.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                             [-1, 0, 1], format="csr")
    rng = np.random.default_rng(0)
    return RiccatiProblem(scipy.sparse.identity(n, format="csr") + 0.25 * lap,
                          rng.standard_normal((n, 1)), rng.standard_normal((1, n)))


class TestInitialTermStreams:
    """A restart propagates Gamma through A^k with one live g x n block."""

    def test_peak_memory_does_not_grow_with_t(self):
        n, g = 3000, 12
        P = heat_problem(n)
        Gamma = np.random.default_rng(1).standard_normal((g, n))
        block = g * n * 8
        peaks = {}
        for t in (8, 32, 64):
            base = dare._sweep_base(P, t)
            tracemalloc.start()
            try:
                dare._initial_term(P, base, Gamma, t)
                peaks[t] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 5 * block, peaks
        assert max(peaks.values()) - min(peaks.values()) <= block, peaks

    def test_guard_reports_depth_inside_propagation(self):
        # Gamma A^2 = 3e151 trips the 1e150 guard at the second application
        P = scalar_problem(a=100.0)
        with pytest.raises(StackBlowup, match="depth 2"):
            fta_dare_arbitrary(P, np.array([[3e147]]), 2)

    def test_guard_reports_depth_inside_b_chain(self):
        # A^2 B = 1e151 trips the 1e150 guard at the B chain's second step, while
        # the sweep (CB = 1, CAB = 1e3) and Gamma A^3 = 1e9 stay finite
        P = RiccatiProblem(np.array([[1e3]]), np.array([[1e145]]), np.array([[1e-145]]))
        with pytest.raises(StackBlowup, match="depth 2"):
            fta_dare_arbitrary(P, np.array([[1.0]]), 3)

    @pytest.mark.parametrize("m, g, t", [
        # g = 7, m = 2: chunks of 3 steps; t = 1, 2, step, step + 1, 2 step + 1
        (2, 7, 1), (2, 7, 2), (2, 7, 3), (2, 7, 4), (2, 7, 7),
        # g < m: one step per chunk
        (3, 2, 1), (3, 2, 2), (3, 2, 5)])
    def test_chunked_products_match_per_step_reference(self, m, g, t):
        A, B, C = random_dare_instance(4, 40, m, 2)
        P = RiccatiProblem(A, B, C)
        Gamma = 0.3 * np.random.default_rng(5).standard_normal((g, 40))
        base = dare._sweep_base(P, t)
        # the per-step form: Gamma A^k propagated densely, then (Gamma A^k) B
        GA = [Gamma]
        for _ in range(t):
            GA.append(GA[-1] @ A)
        gb = [Gk @ B for Gk in GA[:t]]
        if t == 1:
            XiG = np.zeros((0, g))
        else:
            M = np.vstack([gb[k].T for k in range(t - 1, 0, -1)])
            XiG = base.inv.apply(bt_apply(base.T, M))
        LG = np.linalg.cholesky(np.eye(g) + sum(b @ b.T for b in gb) - XiG.T @ XiG)
        ref = scipy.linalg.solve_triangular(LG, GA[t] - XiG.T @ base.factor.S[P.l:],
                                            lower=True)
        rows = dare._initial_term(P, base, Gamma, t)
        assert np.linalg.norm(rows - ref) <= 1e-12 * np.linalg.norm(ref)


class TestRestartLifetimes:
    """A suspended restart generator keeps its locals: none may be a spent stack."""

    def test_only_factor_and_residual_factor_outlive_a_restart(self, monkeypatch):
        stacks, factors, stack_alive, factor_alive, makes_S = [], [], [], [], []
        compress, nres = dare.compress_factor, residuals.nres_factor

        def recorded_compress(factor, tau, sigma_max=None, left=None):
            gc.collect()
            factor_alive.append([ref() is not None for ref in factors])
            if left is not None:  # a sweep's cut: its input is the spent stack's rows
                stacks.append(weakref.ref(factor.S))
            out = compress(factor, tau, sigma_max, left)
            factors.append(weakref.ref(out.S))
            makes_S.append(left is None)  # a cut's rows are stacked, a copy
            return out

        def checked_nres(C_k, P):
            gc.collect()
            stack_alive.append(stacks[-1]() is not None)
            return nres(C_k, P)

        monkeypatch.setattr(dare, "compress_factor", recorded_compress)
        monkeypatch.setattr(residuals, "nres_factor", checked_nres)
        with pytest.raises(NoConvergence) as exc:
            fta_dare_solve(heat_problem(400), t_per_restart=8, stop=0.0, max_restarts=4)
        assert len(exc.value.history) == 4
        # each stack dies at its cut, and each cut's rows once they are stacked:
        # at a compression, only the factor S may be alive, and only if it is
        # itself an earlier compression's output, not a stack of new rows
        assert stack_alive == [False] * 4
        assert len(factor_alive) > 4
        for k, alive in enumerate(factor_alive):
            assert alive == [False] * (k - 1) + [makes_S[k - 1]] * (k > 0)
        assert any(makes_S)


class TestDefectRestart:
    """Restarts as defect sweeps of the closed loop, against the dense DRE."""

    @pytest.mark.parametrize("t", [1, 4, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_restarts_match_dense_dre(self, seed, t, monkeypatch):
        A, B, C = random_dare_instance(seed, 60, 3, 2)
        P = RiccatiProblem(A, B, C)
        residual_factors = []
        coupled = dare._coupled_rows

        def recorded(*args):
            residual_factors.append(coupled(*args))
            return residual_factors[-1]
        monkeypatch.setattr(dare, "_coupled_rows", recorded)
        rounds = dare._dare_rounds(P, t, 0.0, 0.0, 6)
        cc = np.linalg.norm(C.T @ C)
        X = np.zeros((60, 60))
        for k in range(1, 7):
            factor, fields = next(rounds)
            X = dre_dense(A, B, C, X, t)  # X_{kt}
            assert np.linalg.norm(factor.gram() - X) <= 1e-12 * np.linalg.norm(X)
            # the dense X_{kt+1} - X_{kt} cancels to about eps ||X||: its own floor
            R = dre_dense(A, B, C, X, 1) - X
            floor = 100.0 * np.finfo(float).eps * np.linalg.norm(X)
            D = residual_factors[-1]
            assert D.shape == (P.l, P.n)
            assert np.linalg.norm(D.T @ D - R) <= 1e-8 * np.linalg.norm(R) + floor
            assert abs(fields["nres_factor"] * cc - np.linalg.norm(R)) \
                <= 1e-8 * np.linalg.norm(R) + floor
        assert len(residual_factors) == 6

    @pytest.mark.parametrize("seed", range(3))
    def test_closed_loop_identity(self, seed):
        # F(X + Delta) - F(X) = A_c' Delta (I + B_c B_c' Delta)^{-1} A_c
        A, B, C = random_dare_instance(seed, 30, 3, 2)
        P = RiccatiProblem(A, B, C)
        rng = np.random.default_rng(seed)
        S, G = rng.standard_normal((5, 30)), rng.standard_normal((4, 30))
        X, Delta = S.T @ S, G.T @ G
        B_c, rapply = dare._closed_loop(P, S)
        A_c = rapply(np.eye(30))
        lhs = dre_dense(A, B, C, X + Delta, 1) - dre_dense(A, B, C, X, 1)
        rhs = A_c.T @ Delta @ np.linalg.solve(np.eye(30) + B_c @ B_c.T @ Delta, A_c)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)

    def test_zero_factor_gives_the_open_loop(self):
        # restart 1 (S = 0) runs the plain sweep of A, B and C, bit for bit
        P = RiccatiProblem(*random_dare_instance(0, 30, 3, 2))
        B_c, rapply = dare._closed_loop(P, np.zeros((0, 30)))
        W = np.random.default_rng(0).standard_normal((2, 30))
        assert np.array_equal(B_c, P.B)
        assert np.array_equal(rapply(W), rowmul(W, P.A))
