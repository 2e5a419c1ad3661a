"""Discrete-time Riccati sweeps, restarts, and compression."""

import numpy as np
import pytest

from fftriccati.dare import (LowRankFactor, RiccatiProblem, build_krylov_stack,
                             compress_factor, fta_dare_arbitrary,
                             fta_dare_solve, fta_dare_sweep)
from fftriccati.errors import (DimensionMismatch, NoConvergence, StackBlowup)
from fftriccati.oracles import (dare_ground_truth, dre_dense,
                                min_eig_difference, random_dare_instance)
from fftriccati.residuals import nres_dare

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0


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
        with pytest.raises(DimensionMismatch):
            build_krylov_stack(scalar_problem(), 0)


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
            assert min_eig_difference(prev, cur) >= -1e-10 * bound
            prev = cur

    def test_bounded_by_fixed_point(self):
        A, B, C = random_dare_instance(3, 12, 1, 1)
        P = RiccatiProblem(A, B, C)
        Xstar = dare_ground_truth(A, B, C)
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

    def test_matches_dense_dre_from_gamma(self):
        A, B, C = random_dare_instance(5, 16, 2, 2)
        P = RiccatiProblem(A, B, C)
        rng = np.random.default_rng(50)
        G = rng.standard_normal((3, 16)) / 4.0
        dense = dre_dense(A, B, C, G.T @ G, 4)
        S = fta_dare_arbitrary(P, G, 4)
        assert np.linalg.norm(S.gram() - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_gamma_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            fta_dare_arbitrary(scalar_problem(), np.ones((1, 2)), 2)


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
        assert min_eig_difference(out, S) >= -1e-12 * np.linalg.norm(S.gram())

    def test_zero_factor(self):
        out = compress_factor(LowRankFactor(np.zeros((3, 5))), 1e-12)
        assert out.r == 0 and out.n == 5

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            compress_factor(LowRankFactor(np.eye(2)), 1.5)

    @pytest.mark.parametrize("rows, cols", [(400, 3000), (120, 50)])
    def test_graded_stack(self, rows, cols):
        # singular values from 1 down to 1e-14, random singular vectors
        rng = np.random.default_rng(rows + cols)
        k = min(rows, cols)
        U, _ = np.linalg.qr(rng.standard_normal((rows, k)))
        V, _ = np.linalg.qr(rng.standard_normal((cols, k)))
        S = LowRankFactor((U * np.logspace(0, -14, k)) @ V.T)
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


class TestSolve:
    def test_max_restarts_must_be_positive(self):
        with pytest.raises(ValueError, match="max_restarts"):
            fta_dare_solve(scalar_problem(0.5), max_restarts=0)

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
        Xstar = dare_ground_truth(A, B, C)
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
        _, history = fta_dare_solve(P, t_per_restart=8, stop=1e-10)
        for i, rec in enumerate(history, start=1):
            assert rec.round == i
            assert rec.t == 8
            assert rec.gamma == 0.0
            assert rec.ms >= 0.0
            assert rec.rank >= 0
        # nres recomputable from the returned factor
        factor, history = fta_dare_solve(P, t_per_restart=8, stop=1e-10)
        assert abs(history[-1].nres - nres_dare(factor, P).nres) <= 1e-12
