"""Low-rank residual norms against dense evaluation."""

import numpy as np
import pytest
import scipy.linalg

from fftriccati.care import cayley_transform, fta_care_sweep, residual_factor
from fftriccati.dare import LowRankFactor, RiccatiProblem
from fftriccati.errors import DimensionMismatch, ZeroRhs
from fftriccati.residuals import nres_care, nres_dare, nres_factor

from oracles import dense_care_residual, random_care_instance, random_dare_instance


def dense_dare_resid(P, X):
    n, A = P.n, P.A.toarray()
    mid = np.linalg.solve(np.eye(n) + P.B @ P.B.T @ X, A)
    return -X + A.T @ X @ mid + P.C.T @ P.C


def psd_factor(X):
    """S with S'S = X, keeping the positive eigenvalues of symmetric X."""
    w, V = np.linalg.eigh(0.5 * (X + X.T))
    keep = w > 0
    return np.sqrt(w[keep])[:, None] * V[:, keep].T


class TestCare:
    def test_zero_factor_gives_one(self):
        A, B, C = random_care_instance(0, 8, 1, 2)
        P = RiccatiProblem(A, B, C)
        assert nres_care(LowRankFactor(np.zeros((0, 8))), P) == pytest.approx(1.0, abs=1e-14)

    def test_scalar_closed_form(self):
        # a=-1, b=c=1 at x=0.4: residual -0.8 - 0.16 + 1 = 0.04
        P = RiccatiProblem(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        nres = nres_care(LowRankFactor(np.array([[np.sqrt(0.4)]])), P)
        assert nres * np.linalg.norm(P.C.T @ P.C) == pytest.approx(0.04, abs=1e-14)
        assert nres == pytest.approx(0.04, abs=1e-14)

    def test_matches_dense_evaluation(self):
        for seed, n, r in ((1, 12, 3), (2, 24, 5), (3, 48, 8)):
            A, B, C = random_care_instance(seed, n, 2, 2)
            P = RiccatiProblem(A, B, C)
            rng = np.random.default_rng(100 + seed)
            S = rng.standard_normal((r, n)) / np.sqrt(n)
            nres = nres_care(LowRankFactor(S), P)
            dense = np.linalg.norm(dense_care_residual(P, S.T @ S))
            denom = np.linalg.norm(C.T @ C)
            assert abs(nres * denom - dense) <= 1e-11 * max(1.0, dense)
            assert abs(nres - dense / denom) <= 1e-11

    @pytest.mark.parametrize("n", [50, 200])
    def test_exact_at_dense_solution(self, n):
        # the true nres is ~1e-14, far below the ~1e-8 a Gram trace can resolve
        rng = np.random.default_rng(n)
        A = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)  # 1-D Laplacian
        B = rng.standard_normal((n, 2))
        C = rng.standard_normal((2, n))
        P = RiccatiProblem(A, B, C)
        S = psd_factor(scipy.linalg.solve_continuous_are(A, B, C.T @ C, np.eye(2)))
        nres = nres_care(LowRankFactor(S), P)
        dense = np.linalg.norm(dense_care_residual(P, S.T @ S)) / np.linalg.norm(C.T @ C)
        assert nres > 0.0
        assert abs(nres - dense) <= 1e-12

    def test_zero_c_raises(self):
        P = RiccatiProblem(-np.eye(2), np.ones((2, 1)), np.zeros((1, 2)))
        with pytest.raises(ZeroRhs):
            nres_care(LowRankFactor(np.zeros((0, 2))), P)

    def test_wrong_width_rejected(self):
        A, B, C = random_care_instance(4, 6, 1, 1)
        P = RiccatiProblem(A, B, C)
        with pytest.raises(DimensionMismatch):
            nres_care(LowRankFactor(np.ones((2, 5))), P)


class TestDare:
    def test_zero_factor_gives_one(self):
        A, B, C = random_dare_instance(0, 8, 1, 2)
        P = RiccatiProblem(A, B, C)
        assert nres_dare(LowRankFactor(np.zeros((0, 8))), P) == pytest.approx(1.0, abs=1e-14)

    def test_scalar_second_iterate(self):
        # a=b=c=1 at x=1.5: -1.5 + 1.5/2.5 + 1 = 0.1
        P = RiccatiProblem(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        nres = nres_dare(LowRankFactor(np.array([[np.sqrt(1.5)]])), P)
        assert nres * np.linalg.norm(P.C.T @ P.C) == pytest.approx(0.1, abs=1e-13)
        assert nres == pytest.approx(0.1, abs=1e-13)

    def test_matches_dense_evaluation(self):
        for seed, n, r in ((1, 12, 3), (2, 24, 6), (3, 48, 10)):
            A, B, C = random_dare_instance(seed, n, 2, 2)
            P = RiccatiProblem(A, B, C)
            rng = np.random.default_rng(200 + seed)
            S = rng.standard_normal((r, n)) / np.sqrt(n)
            nres = nres_dare(LowRankFactor(S), P)
            dense = np.linalg.norm(dense_dare_resid(P, S.T @ S))
            denom = np.linalg.norm(C.T @ C)
            assert abs(nres * denom - dense) <= 1e-11 * max(1.0, dense)
            assert abs(nres - dense / denom) <= 1e-11

    @pytest.mark.parametrize("n", [30, 60])
    def test_exact_at_dense_solution(self, n):
        A, B, C = random_dare_instance(n, n, 2, 2)
        P = RiccatiProblem(A, B, C)
        S = psd_factor(scipy.linalg.solve_discrete_are(A, B, C.T @ C, np.eye(2)))
        nres = nres_dare(LowRankFactor(S), P)
        dense = np.linalg.norm(dense_dare_resid(P, S.T @ S)) / np.linalg.norm(C.T @ C)
        assert nres > 0.0
        assert abs(nres - dense) <= 1e-12

    def test_zero_c_raises(self):
        P = RiccatiProblem(0.5 * np.eye(2), np.ones((2, 1)), np.zeros((1, 2)))
        with pytest.raises(ZeroRhs):
            nres_dare(LowRankFactor(np.zeros((0, 2))), P)

    def test_report_fields(self):
        A, B, C = random_dare_instance(4, 6, 1, 1)
        P = RiccatiProblem(A, B, C)
        nres = nres_dare(LowRankFactor(np.ones((2, 6)) * 0.1), P)
        assert nres >= 0.0 and np.isfinite(nres)


class TestResidualFactor:
    """nres_factor(C_k, P) reads the residual C_k'C_k of a CARE sweep."""

    @pytest.mark.parametrize("problem,gamma,t", [
        (lambda: (np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]])), 1.0, 4),
        (lambda: random_care_instance(3, 40, 2, 2), 1.0, 8)])
    def test_matches_exact_residual_of_uncompressed_sweep(self, problem, gamma, t):
        P = RiccatiProblem(*problem())
        sys = cayley_transform(P, gamma)
        sweep = fta_care_sweep(sys, t)
        exact = nres_care(sweep.factor, P)
        assert nres_factor(residual_factor(sys, sweep, P.C), P) \
            == pytest.approx(exact, rel=1e-9)

    def test_zero_c_raises(self):
        P = RiccatiProblem(-np.eye(2), np.ones((2, 1)), np.zeros((1, 2)))
        with pytest.raises(ZeroRhs):
            nres_factor(np.ones((1, 2)), P)


@pytest.mark.parametrize("nres", [nres_care, nres_dare])
def test_factor_width_checked(nres):
    P = RiccatiProblem(0.5 * np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
    with pytest.raises(DimensionMismatch):
        nres(LowRankFactor(np.ones((2, 4))), P)
