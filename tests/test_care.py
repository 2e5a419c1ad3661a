"""Continuous-time Riccati solver: Cayley system, sweeps, incorporation."""

import gc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from fftriccati import care
from fftriccati.care import (cayley_transform, default_gamma0, fta_care_solve,
                             fta_care_sweep, residual_factor)
from fftriccati.dare import LowRankFactor, RiccatiProblem
from fftriccati.errors import (DimensionMismatch, FftRiccatiError, NoConvergence,
                               SingularShift)
from fftriccati.residuals import nres_care
from fftriccati.toeplitz_inverse import StructuredInverse

from oracles import (dense_care_residual, radi_delta_check, random_care_instance,
                     sda_care_init)

SQRT2M1 = np.sqrt(2.0) - 1.0
ANTISTABLE_ROOT = (1.0 + np.sqrt(5.0)) / 4.0  # positive root of 1 + 2x - 4x^2 = 0


def scalar_problem(a=-1.0, b=1.0, c=1.0):
    return RiccatiProblem(np.array([[a]]), np.array([[b]]), np.array([[c]]))


def laplacian_problem(n, m, l, seed=0):
    """Stable 1-D Laplacian with Gaussian B and C."""
    A = scipy.sparse.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                           [-1, 0, 1], format="csr")
    rng = np.random.default_rng(seed)
    return RiccatiProblem(A, rng.standard_normal((n, m)), rng.standard_normal((l, n)))


def antistable_problem(n=50):
    """-L (the antistable 1-D Laplacian) with m = l = 2 Gaussian inputs."""
    P = laplacian_problem(n, 2, 2)
    return RiccatiProblem(-P.A, P.B, P.C)


# lambda_10 of -L at n = 50 (ascending, from 0): A - gamma I is singular to rounding
NEAR_EIGENVALUE = 0.44183885094865916


def assert_compressed(S, tau=1e-12):
    """Rows orthogonal to rounding, sorted by norm, each above tau * sigma_max."""
    norms = np.linalg.norm(S, axis=1)
    assert np.all(np.diff(norms) <= 1e-12 * norms[0])
    assert np.all(norms > tau * norms[0])
    np.testing.assert_allclose(S @ S.T, np.diag(norms ** 2), rtol=0,
                               atol=1e-12 * norms[0] ** 2)


def separated_antistable(seed, n, m):
    """Anti-stable instance with well-separated positive spectrum."""
    rng = np.random.default_rng(seed)
    D = np.diag(np.linspace(0.5, 2.0, n))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ D @ Q.T
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((m, n))
    return A, B, C


def radi_nres_factors(A, B, C, gamma0, t, shift_decay, rounds, tau=1e-12):
    """Low-rank RADI (Benner, Bujanovic, Kuerschner & Saak 2018) on the solver's
    schedule: t steps at each shift gamma0 / shift_decay^k, with X = S'S cut by
    an SVD at tau * sigma_max after each round.  Returns every round's
    ||C_k C_k'||_F / ||CC'||_F.  SciPy and NumPy only, no package code."""
    n, m = B.shape
    S, K, Ck, out = np.zeros((0, n)), np.zeros((n, m)), C, []
    for k in range(rounds):
        gamma = gamma0 / shift_decay ** k
        lu = scipy.sparse.linalg.splu((A - gamma * scipy.sparse.identity(n)).tocsc())
        MB = lu.solve(B)  # (A - gamma I)^{-1} B, for the update of the gain K = S'SB
        rows = [S]
        for _ in range(t):
            Z = lu.solve(np.vstack([Ck, K.T]).T, trans="T").T  # [C_k; K'](A - gamma I)^{-1}
            ZC, ZK = Z[:len(Ck)], Z[len(Ck):]
            # W = C_k (A - BK' - gamma I)^{-1} by Sherman-Morrison-Woodbury
            W = ZC + (ZC @ B) @ np.linalg.solve(np.eye(m) - K.T @ MB, ZK)
            WB = W @ B
            L = np.linalg.cholesky(np.eye(len(Ck)) + WB @ WB.T)  # Y = LL'
            rows.append(np.sqrt(2.0 * gamma) * scipy.linalg.solve_triangular(L, W, lower=True))
            K = K + rows[-1].T @ (rows[-1] @ B)
            Ck = Ck + 2.0 * gamma * scipy.linalg.cho_solve((L, True), W)
        _, sv, Vt = np.linalg.svd(np.vstack(rows), full_matrices=False)
        keep = sv > tau * sv[0]
        S = sv[keep, None] * Vt[keep]
        K = S.T @ (S @ B)
        out.append(np.linalg.norm(Ck @ Ck.T) / np.linalg.norm(C @ C.T))
    return out


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

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            cayley_transform(scalar_problem(), gamma)

    def test_singular_capacitance_is_singular_shift(self):
        # A - gamma I = -2 I and V'(A - gamma I)^{-1} U = 1: I - V'M^{-1}U = 0
        U, V = np.array([[1.0], [0.0]]), np.array([[-2.0], [0.0]])
        with pytest.raises(SingularShift, match="capacitance"):
            care.ShiftedSolver(-np.eye(2), 1.0, U, V)

    def test_sparse_matches_dense(self):
        A, B, C = random_care_instance(2, 10, 1, 1)
        Pd = RiccatiProblem(A, B, C)
        Ps = RiccatiProblem(scipy.sparse.csr_matrix(A), B, C)
        sd = cayley_transform(Pd, 1.3)
        ss = cayley_transform(Ps, 1.3)
        assert np.linalg.norm(sd.Btilde - ss.Btilde) <= 1e-11
        assert np.linalg.norm(sd.Ctilde - ss.Ctilde) <= 1e-11


class TestOneStorage:
    """A is stored as CSR and every shifted solve is one SuperLU factorization
    under ``linops.check_pivots``."""

    @pytest.mark.parametrize("storage", [lambda A: A, scipy.sparse.csr_matrix.toarray],
                             ids=["csr", "dense"])
    def test_near_singular_shift_is_singular_shift(self, storage):
        A = storage(antistable_problem().A)
        with pytest.raises(SingularShift, match="A - gamma I is numerically singular"):
            care.ShiftedSolver(A, NEAR_EIGENVALUE)

    @pytest.mark.parametrize("storage", [scipy.sparse.csr_matrix, np.asarray],
                             ids=["csr", "dense"])
    def test_exactly_singular_shift_is_singular_shift(self, storage):
        with pytest.raises(SingularShift, match="cannot factor A - gamma I") as exc:
            care.ShiftedSolver(storage(np.diag([1.0, 2.0, 3.0])), 1.0)
        assert isinstance(exc.value.__cause__, RuntimeError)

    def test_near_singular_shift_retried_alike_in_both_storages(self, monkeypatch):
        P = antistable_problem()
        gammas = []
        original = care.cayley_transform

        def recording(Q, gamma, *args):
            gammas.append(gamma)
            return original(Q, gamma, *args)

        def outcome(A):
            gammas.clear()
            try:
                res = fta_care_solve(RiccatiProblem(A, P.B, P.C), gamma0=NEAR_EIGENVALUE,
                                     t_per_round=8)
                return gammas[:2], res.converged, res.factor.S.tobytes()
            except FftRiccatiError as exc:
                return gammas[:2], type(exc), str(exc)

        monkeypatch.setattr(care, "cayley_transform", recording)
        csr = outcome(P.A)
        assert csr[0] == [NEAR_EIGENVALUE, 1.5 * NEAR_EIGENVALUE]
        assert outcome(P.A.toarray()) == csr

    def test_storages_solve_alike_at_a_safe_shift(self):
        A, _, _ = random_care_instance(2, 10, 1, 1)
        U = np.random.default_rng(3).standard_normal((10, 2))
        V = 0.1 * np.random.default_rng(4).standard_normal((10, 2))
        X = np.random.default_rng(5).standard_normal((10, 3))
        dense = care.ShiftedSolver(A, 1.3, U, V)
        sparse = care.ShiftedSolver(scipy.sparse.csr_matrix(A), 1.3, U, V)
        M = A - U @ V.T - 1.3 * np.eye(10)
        for a, b, ref in ((dense.solve(X), sparse.solve(X), np.linalg.solve(M, X)),
                          (dense.rsolve(X.T), sparse.rsolve(X.T),
                           np.linalg.solve(M.T, X).T)):
            np.testing.assert_array_equal(a, b)  # one factorization for both
            np.testing.assert_allclose(a, ref, rtol=0, atol=1e-12)

    def test_nan_in_pcg_is_a_numerical_failure(self):
        # the shift at lambda_max of -L drives the Gram systems to overflow (the
        # warnings are expected); PCG's NaN residual must not reach
        # solve_triangular as an input error
        with np.errstate(all="ignore"), pytest.raises(FftRiccatiError):
            fta_care_solve(antistable_problem(), gamma0=3.996206657474088,
                           t_per_round=8, max_rounds=3)


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
        for t in (0, 2.5, True):
            with pytest.raises(ValueError, match="t must be an integer >= 1"):
                fta_care_sweep(sys, t)


class TestResidualFactor:
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
        Xstar = scipy.linalg.solve_continuous_are(A, B, C.T @ C, np.eye(2))
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

    @pytest.mark.xfail(raises=NoConvergence, strict=True,
                       reason="fixed decaying shift stalls at nres 1.2e-2 "
                              "(ROADMAP item 3, adaptive shifts)")
    def test_laplacian_two_inputs_reaches_stabilizing_solution(self):
        P = laplacian_problem(300, 2, 2)
        result = fta_care_solve(P, gamma0=1.5, t_per_round=16, stop=1e-6)
        assert result.converged
        A = P.A.toarray()
        X = scipy.linalg.solve_continuous_are(A, P.B, P.C.T @ P.C, np.eye(2))
        assert np.linalg.norm(result.factor.gram() - X) <= 1e-6 * np.linalg.norm(X)

    @pytest.mark.xfail(raises=NoConvergence, strict=True,
                       reason="levels off at nres 1.29e-8 where the dense "
                              "answer reaches 2.1e-10 (ROADMAP item 2)")
    def test_antistable_reaches_dense_residual_level(self):
        A, B, C = separated_antistable(5, 4, 2)
        result = fta_care_solve(RiccatiProblem(A, B, C), gamma0=8.0,
                                t_per_round=16, stop=1e-8)
        assert result.converged

    def test_laplacian_3000_keeps_rounds_rank_and_residual(self):
        # care-lap10k's settings at n = 3000.  Rounds and residual are those
        # of one compression of the full stack per round; compressing only
        # when the stack doubles (4 compressions, not 15) must not move them.
        # Fewer compression passes drop fewer directions just above
        # tau * sigma_max, so the rank is 143 where every round gave 141
        P = laplacian_problem(3000, 4, 4)
        result = fta_care_solve(P, gamma0=1.5, t_per_round=32, stop=1e-6)
        assert result.converged
        assert (len(result.history), result.factor.r) == (15, 143)
        assert nres_care(result.factor, P) \
            == pytest.approx(9.679939973909288e-7, rel=1e-3)

    def test_laplacian_3000_rounds_match_low_rank_radi(self):
        # the paper's claim that a sweep produces the same sequence as RADI,
        # checked over the whole loop at an n with no dense reference
        P = laplacian_problem(3000, 4, 4)
        history = fta_care_solve(P, gamma0=1.5, t_per_round=32, stop=1e-6).history
        radi = radi_nres_factors(P.A, P.B, P.C, 1.5, 32, 1.01, len(history))
        assert [rec.nres_factor for rec in history] == pytest.approx(radi, rel=1e-8)

    def test_compresses_when_stack_doubles(self, monkeypatch):
        # rows_in 128, 207, 254 and 262 at n = 3000: 4 compressions in 15 rounds
        calls = []
        original = care.compress_factor

        def counted(factor, tau, sigma_max=None, left=None):
            if sigma_max is None:  # a stack compression, not a new-row cut
                calls.append(factor.r)
            return original(factor, tau, sigma_max, left)

        monkeypatch.setattr(care, "compress_factor", counted)
        P = laplacian_problem(3000, 4, 4)
        history = fta_care_solve(P, gamma0=1.5, t_per_round=32, stop=1e-6).history
        assert 3 * len(calls) <= len(history)

    def test_new_rows_cut_once_per_round_after_the_first(self, monkeypatch):
        # round 1 has no accumulated factor; every later round cuts its sweep
        # rows against sigma_max of the last compressed one
        floors = []
        original = care.compress_factor

        def counted(factor, tau, sigma_max=None, left=None):
            if sigma_max is not None:
                floors.append(sigma_max)
            return original(factor, tau, sigma_max, left)

        monkeypatch.setattr(care, "compress_factor", counted)
        P = laplacian_problem(3000, 4, 4)
        history = fta_care_solve(P, gamma0=1.5, t_per_round=32, stop=1e-6).history
        assert len(floors) == len(history) - 1

    @pytest.mark.parametrize("gamma0", [np.nan, -1.0, 0.0, np.inf])
    def test_bad_gamma0_rejected_with_zero_c(self, gamma0):
        # C = 0 would converge at once; the shift is still checked first
        P = RiccatiProblem(-np.eye(3), np.ones((3, 1)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="gamma0 must be positive and finite"):
            fta_care_solve(P, gamma0=gamma0)

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
        with pytest.raises(ValueError, match="max_rounds must be an integer"):
            fta_care_solve(scalar_problem(c=0.0), gamma0=1.0, max_rounds=2.5)
        with pytest.raises(ValueError, match="max_rounds must be an integer"):
            fta_care_solve(scalar_problem(c=0.0), gamma0=1.0, max_rounds=True)

    @pytest.mark.parametrize("stop", [-1.0, np.nan])
    def test_stop_must_be_nonnegative(self, stop):
        with pytest.raises(ValueError, match="stop"):
            fta_care_solve(scalar_problem(), gamma0=1.0, stop=stop)

    @pytest.mark.parametrize("key", ["gamma0", "shift_decay"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_or_decay_rejected_before_any_lu(self, monkeypatch,
                                                              key, value):
        def no_lu(*args):
            raise AssertionError("A - gamma I factored")

        monkeypatch.setattr(care, "ShiftedSolver", no_lu)
        kwargs = {"gamma0": 1.0, "shift_decay": 1.01, key: value}
        with pytest.raises(ValueError, match="gamma|shift_decay"):
            fta_care_solve(scalar_problem(), **kwargs)

    def test_singular_shift_retried_once_at_nudged_gamma(self, monkeypatch):
        gammas = []
        original = care.cayley_transform

        def first_fails(P, gamma, *args):
            gammas.append(gamma)
            if len(gammas) == 1:
                raise SingularShift("first shift singular")
            return original(P, gamma, *args)

        monkeypatch.setattr(care, "cayley_transform", first_fails)
        res = fta_care_solve(scalar_problem(), gamma0=0.8, t_per_round=8, stop=1e-10)
        assert res.converged and gammas[:2] == [0.8, 0.8 * 1.5]
        assert [rec.gamma for rec in res.history] == gammas[1:]

        def always_fails(P, gamma, *args):
            raise SingularShift("every shift singular")

        monkeypatch.setattr(care, "cayley_transform", always_fails)
        with pytest.raises(SingularShift, match="every"):
            fta_care_solve(scalar_problem(), gamma0=0.8)

    def test_emitted_nres_recomputable(self):
        A, B, C = random_care_instance(9, 12, 2, 2)
        P = RiccatiProblem(A, B, C)
        result = fta_care_solve(P, gamma0=1.0, t_per_round=8, stop=1e-10)
        assert abs(result.history[-1].nres - nres_care(result.factor, P)) <= 1e-12

    def test_default_gamma0_heuristic(self):
        A = np.diag([-1.0, -2.0, -3.0])
        assert default_gamma0(A) == pytest.approx(0.1 * 3.0 / 3.0)
        assert default_gamma0(np.zeros((2, 2))) == 1e-6

    def test_sweep_product_never_formed(self, monkeypatch):
        # rounds cut R Vt from Vt and R: the inverse only meets l- or m-wide blocks
        widths, original = [], StructuredInverse.apply

        def recorded(self, V):
            widths.append(V.shape[1])
            return original(self, V)

        monkeypatch.setattr(StructuredInverse, "apply", recorded)
        P = laplacian_problem(200, 2, 2)
        result = fta_care_solve(P, gamma0=1.5, t_per_round=16, stop=1e-8)
        assert result.converged and len(result.history) > 2
        assert widths and max(widths) < P.n


class TestStopTest:
    """Rounds stop on the residual factor's norm; the exact residual decides."""

    @pytest.mark.parametrize("tau", [1e-12, 1e-6, 1e-3])
    def test_converged_factor_meets_stop(self, tau):
        P = laplacian_problem(100, 1, 1)
        result = fta_care_solve(P, gamma0=1.5, t_per_round=16, tau=tau, stop=1e-4)
        assert result.converged
        exact = nres_care(result.factor, P)
        assert exact <= 1e-4
        assert result.history[-1].nres == exact
        assert all(rec.nres_factor is not None for rec in result.history)

    def test_large_tau_widens_gap(self):
        P = laplacian_problem(100, 1, 1)
        gaps = []
        for tau in (1e-12, 1e-3):
            last = fta_care_solve(P, gamma0=1.5, t_per_round=16, tau=tau,
                                  stop=1e-4).history[-1]
            gaps.append(abs(last.nres - last.nres_factor))
        assert gaps[1] > 1e3 * gaps[0]

    def test_exact_check_above_stop_continues(self):
        # compressed at tau = 1e-3, round 7 has cheap 4.02e-5 < exact 4.11e-5;
        # a stop between them must be rejected by the exact value
        P = laplacian_problem(100, 1, 1)
        first = fta_care_solve(P, gamma0=1.5, t_per_round=16, tau=1e-3,
                               stop=1e-4).history[-1]
        assert first.nres_factor < first.nres
        stop = np.sqrt(first.nres * first.nres_factor)
        result = fta_care_solve(P, gamma0=1.5, t_per_round=16, tau=1e-3, stop=stop)
        rejected = result.history[first.round - 1]
        assert rejected.nres_factor <= stop < rejected.nres
        assert result.converged and len(result.history) > first.round
        assert nres_care(result.factor, P) <= stop

    def test_exact_check_reads_compressed_factor(self, monkeypatch):
        # the stop round of test_exact_check_above_stop_continues: the exact
        # check rejects it, and the run goes on from the factor it checked
        P = laplacian_problem(100, 1, 1)
        first = fta_care_solve(P, gamma0=1.5, t_per_round=16, tau=1e-3,
                               stop=1e-4).history[-1]
        stop = np.sqrt(first.nres * first.nres_factor)
        checked = []
        original = care.nres_care

        def checking(factor, P):
            assert_compressed(factor.S, 1e-3)
            checked.append(factor.r)
            return original(factor, P)

        monkeypatch.setattr(care, "nres_care", checking)
        history = fta_care_solve(P, gamma0=1.5, t_per_round=16, tau=1e-3,
                                 stop=stop).history
        rejected, after = history[first.round - 1], history[first.round]
        assert checked[0] == rejected.rank < rejected.rows_in
        assert rejected.rank <= after.rows_in < rejected.rank + 16

    def test_exits_return_compressed_factor(self):
        # round 2 stacks 59 rows on round 1's 32, short of doubling: only the
        # cap compresses them.  The converged run compresses before its check
        P = laplacian_problem(200, 2, 2)
        with pytest.raises(NoConvergence) as exc:
            fta_care_solve(P, gamma0=1.5, t_per_round=16, stop=1e-8, max_rounds=2)
        assert exc.value.history[-1].rows_in == 59
        converged = fta_care_solve(P, gamma0=1.5, t_per_round=16, stop=1e-8)
        for factor, history in ((exc.value.factor, exc.value.history), converged):
            assert_compressed(factor.S)
            assert history[-1].rank == factor.r

    def test_factor_norm_tracks_exact_on_laplacian(self):
        P = laplacian_problem(200, 2, 2)
        result = fta_care_solve(P, gamma0=1.5, t_per_round=16, stop=1e-8)
        last = result.history[-1]
        assert result.converged
        assert abs(last.nres - last.nres_factor) <= 1e-3 * last.nres

    def test_rows_in_counts_truncated_sweep_rows(self):
        # round 1 compresses the sweep alone; later rounds stack only the
        # sweep rows above tau * sigma_max of the accumulated factor
        P = laplacian_problem(200, 2, 2)
        history = fta_care_solve(P, gamma0=1.5, t_per_round=16, stop=1e-8).history
        assert history[0].rows_in == 16 * 2
        for prev, rec in zip(history, history[1:]):
            assert prev.rank <= rec.rows_in < prev.rank + 16 * 2

    def test_sweep_below_floor_leaves_factor_uncompressed(self, monkeypatch):
        # scalar A = -1 at gamma = 1 (Atilde = 0): by round 3 the residual
        # factor is about 1e-18, so its sweep rows lie far below tau * sigma_max
        calls = []
        original = care.compress_factor

        def counted(factor, tau, sigma_max=None, left=None):
            if sigma_max is None:  # a stack compression, not a new-row cut
                calls.append(factor.r)
            return original(factor, tau, sigma_max, left)

        monkeypatch.setattr(care, "compress_factor", counted)
        factors = []
        for rounds in (2, 3):
            with pytest.raises(NoConvergence) as exc:
                fta_care_solve(scalar_problem(), gamma0=1.0, t_per_round=8,
                               stop=0.0, max_rounds=rounds)
            factors.append(exc.value.factor.S)
        last = exc.value.history[-1]
        assert last.rows_in == last.rank == 1
        assert calls == [8, 2, 8, 2]
        assert np.array_equal(factors[0], factors[1])

    def test_capped_run_reports_exact_residual(self):
        P = laplacian_problem(200, 2, 2)
        with pytest.raises(NoConvergence) as exc:
            fta_care_solve(P, gamma0=1.5, t_per_round=16, stop=1e-8, max_rounds=3)
        last = exc.value.history[-1]
        exact = nres_care(exc.value.factor, P)
        assert abs(last.nres - exact) <= 1e-12
        assert last.nres_factor is not None
        assert "%.3e" % exact in str(exc.value)


class TestRoundLifetimes:
    """A suspended round generator keeps its locals: none may be a spent sweep."""

    def test_sweep_rows_released_before_next_cayley_transform(self, monkeypatch):
        refs, alive = [], []
        sweep, transform = care._care_sweep, care.cayley_transform

        def recorded_sweep(*args):
            out = sweep(*args)
            refs.append(weakref.ref(out.rows))
            return out

        def checked_transform(*args):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            return transform(*args)

        monkeypatch.setattr(care, "_care_sweep", recorded_sweep)
        monkeypatch.setattr(care, "cayley_transform", checked_transform)
        with pytest.raises(NoConvergence) as exc:
            fta_care_solve(laplacian_problem(400, 2, 2), gamma0=1.5, t_per_round=8,
                           stop=0.0, max_rounds=4)
        assert len(exc.value.history) == 4
        assert alive == [[], [False], [False, False], [False, False, False]]
