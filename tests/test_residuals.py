"""Low-rank residual norms against dense evaluation."""

import numpy as np
import pytest
import scipy.linalg

from fftriccati.dare import LowRankFactor, RiccatiProblem
from fftriccati.errors import DimensionMismatch, ZeroRhs
from fftriccati.oracles import (min_eig_difference, random_care_instance,
                                random_dare_instance)
from fftriccati.residuals import ResidualReport, nres_care, nres_dare


def dense_care_resid(P, X):
    return P.A.T @ X + X @ P.A - X @ P.B @ P.B.T @ X + P.C.T @ P.C


def dense_dare_resid(P, X):
    n = P.n
    mid = np.linalg.solve(np.eye(n) + P.B @ P.B.T @ X, P.A)
    return -X + P.A.T @ X @ mid + P.C.T @ P.C


def psd_factor(X):
    """S with S'S = X, keeping the positive eigenvalues of symmetric X."""
    w, V = np.linalg.eigh(0.5 * (X + X.T))
    keep = w > 0
    return np.sqrt(w[keep])[:, None] * V[:, keep].T


class TestCare:
    def test_zero_factor_gives_one(self):
        A, B, C = random_care_instance(0, 8, 1, 2)
        P = RiccatiProblem(A, B, C)
        rep = nres_care(LowRankFactor(np.zeros((0, 8))), P)
        assert rep.nres == pytest.approx(1.0, abs=1e-14)
        assert rep.gram_dim == 2

    def test_scalar_closed_form(self):
        # a=-1, b=c=1 at x=0.4: residual -0.8 - 0.16 + 1 = 0.04
        P = RiccatiProblem(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        rep = nres_care(LowRankFactor(np.array([[np.sqrt(0.4)]])), P)
        assert rep.absolute_frobenius == pytest.approx(0.04, abs=1e-14)
        assert rep.nres == pytest.approx(0.04, abs=1e-14)

    def test_matches_dense_evaluation(self):
        for seed, n, r in ((1, 12, 3), (2, 24, 5), (3, 48, 8)):
            A, B, C = random_care_instance(seed, n, 2, 2)
            P = RiccatiProblem(A, B, C)
            rng = np.random.default_rng(100 + seed)
            S = rng.standard_normal((r, n)) / np.sqrt(n)
            rep = nres_care(LowRankFactor(S), P)
            dense = np.linalg.norm(dense_care_resid(P, S.T @ S))
            denom = np.linalg.norm(C.T @ C)
            assert abs(rep.absolute_frobenius - dense) <= 1e-11 * max(1.0, dense)
            assert abs(rep.nres - dense / denom) <= 1e-11

    @pytest.mark.parametrize("n", [50, 200])
    def test_exact_at_dense_solution(self, n):
        # the true nres is ~1e-14, far below the ~1e-8 a Gram trace can resolve
        rng = np.random.default_rng(n)
        A = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)  # 1-D Laplacian
        B = rng.standard_normal((n, 2))
        C = rng.standard_normal((2, n))
        P = RiccatiProblem(A, B, C)
        S = psd_factor(scipy.linalg.solve_continuous_are(A, B, C.T @ C, np.eye(2)))
        rep = nres_care(LowRankFactor(S), P)
        dense = np.linalg.norm(dense_care_resid(P, S.T @ S)) / np.linalg.norm(C.T @ C)
        assert rep.nres > 0.0
        assert abs(rep.nres - dense) <= 1e-12

    def test_zero_c_raises(self):
        P = RiccatiProblem(-np.eye(2), np.ones((2, 1)), np.zeros((1, 2)))
        with pytest.raises(ZeroRhs):
            nres_care(LowRankFactor(np.zeros((0, 2))), P)

    def test_wrong_width_rejected(self):
        A, B, C = random_care_instance(4, 6, 1, 1)
        P = RiccatiProblem(A, B, C)
        with pytest.raises(DimensionMismatch):
            nres_care(LowRankFactor(np.ones((2, 5))), P)

    def test_accepts_plain_arrays(self):
        A, B, C = random_care_instance(5, 6, 1, 1)
        P = RiccatiProblem(A, B, C)
        S = np.zeros((1, 6))
        rep = nres_care(S, P)
        assert rep.nres == pytest.approx(1.0, abs=1e-14)


class TestDare:
    def test_zero_factor_gives_one(self):
        A, B, C = random_dare_instance(0, 8, 1, 2)
        P = RiccatiProblem(A, B, C)
        rep = nres_dare(LowRankFactor(np.zeros((0, 8))), P)
        assert rep.nres == pytest.approx(1.0, abs=1e-14)

    def test_scalar_second_iterate(self):
        # a=b=c=1 at x=1.5: -1.5 + 1.5/2.5 + 1 = 0.1
        P = RiccatiProblem(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        rep = nres_dare(LowRankFactor(np.array([[np.sqrt(1.5)]])), P)
        assert rep.absolute_frobenius == pytest.approx(0.1, abs=1e-13)
        assert rep.nres == pytest.approx(0.1, abs=1e-13)

    def test_matches_dense_evaluation(self):
        for seed, n, r in ((1, 12, 3), (2, 24, 6), (3, 48, 10)):
            A, B, C = random_dare_instance(seed, n, 2, 2)
            P = RiccatiProblem(A, B, C)
            rng = np.random.default_rng(200 + seed)
            S = rng.standard_normal((r, n)) / np.sqrt(n)
            rep = nres_dare(LowRankFactor(S), P)
            dense = np.linalg.norm(dense_dare_resid(P, S.T @ S))
            denom = np.linalg.norm(C.T @ C)
            assert abs(rep.absolute_frobenius - dense) <= 1e-11 * max(1.0, dense)
            assert abs(rep.nres - dense / denom) <= 1e-11

    @pytest.mark.parametrize("n", [30, 60])
    def test_exact_at_dense_solution(self, n):
        A, B, C = random_dare_instance(n, n, 2, 2)
        P = RiccatiProblem(A, B, C)
        S = psd_factor(scipy.linalg.solve_discrete_are(A, B, C.T @ C, np.eye(2)))
        rep = nres_dare(LowRankFactor(S), P)
        dense = np.linalg.norm(dense_dare_resid(P, S.T @ S)) / np.linalg.norm(C.T @ C)
        assert rep.nres > 0.0
        assert abs(rep.nres - dense) <= 1e-12

    def test_zero_c_raises(self):
        P = RiccatiProblem(0.5 * np.eye(2), np.ones((2, 1)), np.zeros((1, 2)))
        with pytest.raises(ZeroRhs):
            nres_dare(LowRankFactor(np.zeros((0, 2))), P)

    def test_report_fields(self):
        A, B, C = random_dare_instance(4, 6, 1, 1)
        P = RiccatiProblem(A, B, C)
        rep = nres_dare(LowRankFactor(np.ones((2, 6)) * 0.1), P)
        assert isinstance(rep, ResidualReport)
        assert rep.gram_dim == 1 + 2 * 2
        assert rep.nres >= 0.0 and np.isfinite(rep.absolute_frobenius)


class TestMinEigDifference:
    def test_equal_factors(self):
        S = np.array([[1.0, 2.0]])
        assert min_eig_difference(S, S) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_gap(self):
        a = np.array([[1.0]])
        b = np.array([[2.0]])
        assert min_eig_difference(a, b) == pytest.approx(3.0, abs=1e-12)
        assert min_eig_difference(b, a) == pytest.approx(-3.0, abs=1e-12)

    def test_matches_dense_eig(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((3, 10))
        B = rng.standard_normal((5, 10))
        got = min_eig_difference(A, B)
        want = np.linalg.eigvalsh(B.T @ B - A.T @ A).min()
        assert abs(got - want) <= 1e-10

    def test_rank_deficient_row_space_caps_at_zero(self):
        # joint row space does not span R^n: the difference has a kernel
        A = np.zeros((0, 5))
        B = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        assert min_eig_difference(A, B) == pytest.approx(0.0, abs=1e-14)

    def test_both_empty(self):
        assert min_eig_difference(np.zeros((0, 4)), np.zeros((0, 4))) == 0.0

    def test_mismatched_widths(self):
        with pytest.raises(DimensionMismatch):
            min_eig_difference(np.ones((1, 3)), np.ones((1, 4)))
