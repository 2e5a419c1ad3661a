"""Continuous-time Riccati solver: Cayley system, sweeps, incorporation."""

import numpy as np
import pytest
import scipy.linalg

from fftriccati.care import (CayleySystem, cayley_transform, default_gamma0,
                             fta_care_solve, fta_care_sweep, residual_factor)
from fftriccati.dare import LowRankFactor, RiccatiProblem
from fftriccati.errors import DimensionMismatch, NoConvergence
from fftriccati.oracles import (care_ground_truth, dre_dense, radi_delta_check,
                                random_care_instance, sda_care_init)
from fftriccati.residuals import nres_care

SQRT2M1 = np.sqrt(2.0) - 1.0
ANTISTABLE_ROOT = (1.0 + np.sqrt(5.0)) / 4.0  # positive root of 1 + 2x - 4x^2 = 0


def scalar_problem(a=-1.0, b=1.0, c=1.0):
    return RiccatiProblem(np.array([[a]]), np.array([[b]]), np.array([[c]]))


def dense_care_residual(P, X):
    A = np.asarray(P.A, dtype=float)
    return A.T @ X + X @ A - X @ P.B @ P.B.T @ X + P.C.T @ P.C


def separated_antistable(seed, n, m):
    """Anti-stable instance with well-separated positive spectrum."""
    rng = np.random.default_rng(seed)
    D = np.diag(np.linspace(0.5, 2.0, n))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ D @ Q.T
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((m, n))
    return A, B, C


class TestCayley:
    def test_scalar_values(self):
        sys = cayley_transform(scalar_problem(), 1.0)
        assert sys.gamma == 1.0
        np.testing.assert_allclose(sys.Ygamma, [[-0.5]], atol=1e-14)
        np.testing.assert_allclose(sys.Btilde, [[-np.sqrt(2) / 2]], atol=1e-12)
        np.testing.assert_allclose(sys.Ctilde, [[-np.sqrt(2) / 2]], atol=1e-12)
        # Atilde = I + 2 (A - I)^{-1} = 0 for A = -1
        np.testing.assert_allclose(sys.atilde_rapply(np.array([[1.0]])),
                                   [[0.0]], atol=1e-14)

    def test_zero_b(self):
        P = RiccatiProblem(np.array([[-1.0]]), np.array([[0.0]]), np.array([[1.0]]))
        sys = cayley_transform(P, 1.0)
        np.testing.assert_allclose(sys.Btilde, [[0.0]])
        np.testing.assert_allclose(sys.Ygamma, [[0.0]])

    def test_matches_dense_shifted_inverse(self):
        A, B, C = random_care_instance(0, 12, 2, 2)
        P = RiccatiProblem(A, B, C)
        sys = cayley_transform(P, 0.7)
        Ainv = np.linalg.inv(A - 0.7 * np.eye(12))
        s = np.sqrt(1.4)
        assert np.linalg.norm(sys.Btilde - s * Ainv @ B) <= 1e-11
        assert np.linalg.norm(sys.Ctilde - s * C @ Ainv) <= 1e-11
        assert np.linalg.norm(sys.Ygamma - C @ Ainv @ B) <= 1e-11
        W = np.random.default_rng(1).standard_normal((3, 12))
        expect = W @ (np.eye(12) + 1.4 * Ainv)
        assert np.linalg.norm(sys.atilde_rapply(W) - expect) <= 1e-11

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            cayley_transform(scalar_problem(), 0.0)

    def test_sparse_matches_dense(self):
        import scipy.sparse
        A, B, C = random_care_instance(2, 10, 1, 1)
        Pd = RiccatiProblem(A, B, C)
        Ps = RiccatiProblem(scipy.sparse.csr_matrix(A), B, C)
        sd = cayley_transform(Pd, 1.3)
        ss = cayley_transform(Ps, 1.3)
        assert np.linalg.norm(sd.Btilde - ss.Btilde) <= 1e-11
        assert np.linalg.norm(sd.Ctilde - ss.Ctilde) <= 1e-11


class TestSweep:
    def test_scalar_first_iterate(self):
        sys = cayley_transform(scalar_problem(), 1.0)
        sweep = fta_care_sweep(sys, 1)
        np.testing.assert_allclose(sweep.factor.gram(), [[0.4]], atol=1e-12)

    def test_t1_general_closed_form(self):
        A, B, C = random_care_instance(3, 10, 2, 2)
        P = RiccatiProblem(A, B, C)
        sys = cayley_transform(P, 1.0)
        sweep = fta_care_sweep(sys, 1)
        Y = sys.Ygamma
        dense = sys.Ctilde.T @ np.linalg.solve(np.eye(2) + Y @ Y.T, sys.Ctilde)
        assert np.linalg.norm(sweep.factor.gram() - dense) <= 1e-11

    def test_matches_dense_cayley_dre(self):
        A, B, C = random_care_instance(4, 24, 2, 2)
        P = RiccatiProblem(A, B, C)
        gamma = 1.0
        sys = cayley_transform(P, gamma)
        st = sda_care_init(A, B, C, gamma)
        for t in (2, 4, 8, 16):
            sweep = fta_care_sweep(sys, t)
            X = np.zeros((24, 24))
            for _ in range(t):
                X = st.Hk + st.Ak.T @ np.linalg.solve(
                    np.eye(24) + X @ st.Gk, X) @ st.Ak
                X = 0.5 * (X + X.T)
            assert np.linalg.norm(sweep.factor.gram() - X) \
                <= 1e-9 * max(1.0, np.linalg.norm(X))

    def test_factor_has_t_l_rows(self):
        A, B, C = random_care_instance(6, 40, 2, 2)
        sys = cayley_transform(RiccatiProblem(A, B, C), 1.0)
        for t in (1, 4, 8):
            assert fta_care_sweep(sys, t).factor.r == t * 2

    def test_t_validated(self):
        sys = cayley_transform(scalar_problem(), 1.0)
        with pytest.raises(DimensionMismatch):
            fta_care_sweep(sys, 0)


class TestResidualFactor:
    def test_no_sweep_returns_input(self):
        C = np.array([[1.0, 2.0]])
        sys = None
        np.testing.assert_allclose(residual_factor(sys, None, C), C)

    def test_scalar_chain(self):
        sys = cayley_transform(scalar_problem(), 1.0)
        sweep = fta_care_sweep(sys, 1)
        C1 = residual_factor(sys, sweep, np.array([[1.0]]))
        np.testing.assert_allclose(C1, [[0.2]], atol=1e-12)
        # residual at X1 = 0.4: -0.8 - 0.16 + 1 = 0.04 = 0.2^2
        assert abs(dense_care_residual(scalar_problem(),
                                       np.array([[0.4]]))[0, 0] - 0.04) <= 1e-12

    def test_factorizes_dense_residual(self):
        A, B, C = random_care_instance(5, 16, 2, 2)
        P = RiccatiProblem(A, B, C)
        sys = cayley_transform(P, 1.0)
        sweep = fta_care_sweep(sys, 4)
        Ct = residual_factor(sys, sweep, C)
        resid = dense_care_residual(P, sweep.factor.gram())
        assert np.linalg.norm(resid - Ct.T @ Ct) \
            <= 1e-9 * max(1.0, np.linalg.norm(resid))


class TestStepIdentity:
    def test_scalar_first_step(self):
        P = scalar_problem()
        delta = radi_delta_check(P, LowRankFactor(np.zeros((0, 1))),
                                 np.array([[1.0]]), 1.0)
        np.testing.assert_allclose(delta, [[0.4]], atol=1e-12)

    def test_zero_residual_factor(self):
        P = scalar_problem()
        delta = radi_delta_check(P, LowRankFactor(np.zeros((0, 1))),
                                 np.array([[0.0]]), 1.0)
        np.testing.assert_allclose(delta, [[0.0]])

    def test_consecutive_iterates(self):
        A, B, C = random_care_instance(6, 16, 2, 2)
        P = RiccatiProblem(A, B, C)
        gamma = 1.0
        sys = cayley_transform(P, gamma)
        sweep = fta_care_sweep(sys, 4)
        nxt = fta_care_sweep(sys, 5)
        Ct = residual_factor(sys, sweep, C)
        delta = radi_delta_check(P, sweep.factor, Ct, gamma)
        step = nxt.factor.gram() - sweep.factor.gram()
        assert np.linalg.norm(step - delta) \
            <= 1e-9 * max(1.0, np.linalg.norm(nxt.factor.gram()))

    def test_size_guard(self):
        A = -np.eye(100)
        P = RiccatiProblem(A, np.ones((100, 1)), np.ones((1, 100)))
        with pytest.raises(DimensionMismatch):
            radi_delta_check(P, LowRankFactor(np.zeros((0, 100))),
                             np.ones((1, 100)), 1.0)


class TestSolve:
    def test_scalar_stable_limit(self):
        result = fta_care_solve(scalar_problem(), gamma0=1.0, t_per_round=8,
                                stop=1e-12)
        x = result.factor.gram()[0, 0]
        assert abs(x - SQRT2M1) <= 1e-10
        assert result.converged

    def test_scalar_antistable_limit(self):
        # positive root of the residual polynomial 1 + 2x - 4x^2
        P = scalar_problem(1.0, 2.0, 1.0)
        result = fta_care_solve(P, gamma0=3.0, t_per_round=8, stop=1e-12)
        x = result.factor.gram()[0, 0]
        assert abs(x - ANTISTABLE_ROOT) <= 1e-10
        assert abs(dense_care_residual(P, np.array([[x]]))[0, 0]) <= 1e-10

    def test_zero_c(self):
        P = RiccatiProblem(-np.eye(3), np.ones((3, 1)), np.zeros((1, 3)))
        result = fta_care_solve(P)
        assert result.factor.r == 0
        assert result.converged
        assert "ZeroRhs" in result.note

    def test_random_stable_matches_doubling_fixed_point(self):
        A, B, C = random_care_instance(7, 16, 2, 2)
        P = RiccatiProblem(A, B, C)
        result = fta_care_solve(P, gamma0=1.0, t_per_round=16, stop=1e-11)
        Xstar = care_ground_truth(A, B, C, 1.0)
        assert np.linalg.norm(result.factor.gram() - Xstar) \
            <= 1e-9 * max(1.0, np.linalg.norm(Xstar))

    def test_antistable_matrix_converges_with_large_shift(self):
        # all eigenvalues in the right half-plane; shift above the spectrum.
        # ||X|| is about 1e3 (n = 4) and 5.8e4 (n = 8) against ||C'C|| of
        # order 10, so double precision cannot bring the relative residual
        # near 1e-8: the exact residual levels off at 1.3e-8 and 1.2e-6, and
        # even the dense solve_continuous_are answer has nres 2.5e-7 at n = 8.
        # stop = 1e-5 is attainable; the forward error below is the real check.
        for seed, n, m in ((5, 4, 2), (5, 8, 3)):
            A, B, C = separated_antistable(seed, n, m)
            P = RiccatiProblem(A, B, C)
            result = fta_care_solve(P, gamma0=8.0, t_per_round=16, stop=1e-5)
            X = scipy.linalg.solve_continuous_are(A, B, C.T @ C, np.eye(m))
            assert np.linalg.norm(result.factor.gram() - X) \
                <= 1e-6 * np.linalg.norm(X)
            # the computed factor stabilizes the closed loop
            cl = A - B @ (B.T @ result.factor.gram())
            assert np.linalg.eigvals(cl).real.max() < 0.0

    def test_result_unpacks_as_pair(self):
        factor, history = fta_care_solve(scalar_problem(), gamma0=1.0,
                                         t_per_round=8, stop=1e-10)
        assert factor.r >= 1 and len(history) >= 1

    def test_shift_schedule_recorded(self):
        with pytest.raises(NoConvergence) as exc:
            fta_care_solve(scalar_problem(), gamma0=1.0, t_per_round=2,
                           shift_decay=1.5, stop=1e-14, max_rounds=10)
        gammas = [rec.gamma for rec in exc.value.history]
        for prev, cur in zip(gammas, gammas[1:]):
            np.testing.assert_allclose(cur, prev / 1.5, rtol=1e-12)

    def test_no_convergence_carries_state(self):
        A, B, C = random_care_instance(8, 12, 1, 1)
        P = RiccatiProblem(A, B, C)
        with pytest.raises(NoConvergence) as exc:
            fta_care_solve(P, gamma0=1.0, t_per_round=1, stop=1e-13, max_rounds=2)
        assert exc.value.factor is not None
        assert len(exc.value.history) == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            fta_care_solve(scalar_problem(), gamma0=-1.0)
        with pytest.raises(ValueError):
            fta_care_solve(scalar_problem(), gamma0=1.0, shift_decay=0.5)
        with pytest.raises(ValueError, match="max_rounds"):
            fta_care_solve(scalar_problem(), gamma0=1.0, max_rounds=0)

    def test_emitted_nres_recomputable(self):
        A, B, C = random_care_instance(9, 12, 2, 2)
        P = RiccatiProblem(A, B, C)
        result = fta_care_solve(P, gamma0=1.0, t_per_round=8, stop=1e-10)
        rep = nres_care(result.factor, P)
        assert abs(result.history[-1].nres - rep.nres) <= 1e-12

    def test_default_gamma0_heuristic(self):
        A = np.diag([-1.0, -2.0, -3.0])
        assert default_gamma0(A) == pytest.approx(0.1 * 3.0 / 3.0)
        assert default_gamma0(np.zeros((2, 2))) == 1e-6
