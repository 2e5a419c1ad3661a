"""Dense reference implementations: recursions, seeds, and generators."""

import numpy as np
import pytest
import scipy.linalg

from fftriccati.errors import DimensionMismatch, SingularIterate, SingularShift
from fftriccati.oracles import (dre_dense, random_care_instance,
                                random_dare_instance, random_orthogonal,
                                sda_care_init, sda_dare_init, sda_dense,
                                sda_step)


class TestDreDense:
    def test_zero_steps_returns_start(self):
        X0 = np.diag([1.0, 2.0])
        out = dre_dense(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), X0, 0)
        np.testing.assert_allclose(out, X0)

    def test_scalar_two_steps(self):
        out = dre_dense(np.array([[1.0]]), np.array([[1.0]]),
                        np.array([[1.0]]), np.zeros((1, 1)), 2)
        np.testing.assert_allclose(out, [[1.5]], atol=1e-14)

    def test_fixed_point_is_stationary(self):
        A, B, C = random_dare_instance(0, 10, 1, 1)
        Xstar = scipy.linalg.solve_discrete_are(A, B, C.T @ C, np.eye(1))
        out = dre_dense(A, B, C, Xstar, 1)
        assert np.linalg.norm(out - Xstar) <= 1e-11 * np.linalg.norm(Xstar)

    def test_monotone_from_zero(self):
        A, B, C = random_dare_instance(1, 8, 1, 1)
        prev = np.zeros((8, 8))
        for t in range(1, 6):
            cur = dre_dense(A, B, C, np.zeros((8, 8)), t)
            assert np.linalg.eigvalsh(cur - prev).min() >= -1e-11
            prev = cur

    def test_size_guard(self):
        n = 300
        with pytest.raises(DimensionMismatch):
            dre_dense(np.eye(n), np.ones((n, 1)), np.ones((1, n)),
                      np.zeros((n, n)), 1)

    def test_singular_inner_matrix_is_singular_iterate(self):
        # X0 = -1, B = 1: I + BB'X0 is exactly zero; no LinAlgWarning escapes
        with pytest.raises(SingularIterate, match="I \\+ BB'X"):
            dre_dense(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]),
                      np.array([[-1.0]]), 1)


class TestSda:
    def test_zero_doublings(self):
        st = sda_dare_init(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        out = sda_dense(st, 0)
        np.testing.assert_allclose(out.Hk, [[1.0]])

    def test_scalar_first_doubling(self):
        st = sda_dare_init(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        out = sda_dense(st, 1)
        np.testing.assert_allclose(out.Hk, [[1.5]], atol=1e-14)

    def test_doubling_matches_dre(self):
        # k doublings reproduce 2^k plain recursion steps
        A, B, C = random_dare_instance(2, 12, 2, 2)
        st = sda_dare_init(A, B, C)
        out = sda_dense(st, 3)
        X8 = dre_dense(A, B, C, np.zeros((12, 12)), 8)
        assert np.linalg.norm(out.Hk - X8) <= 1e-11 * np.linalg.norm(X8)

    def test_step_preserves_symmetry(self):
        A, B, C = random_dare_instance(3, 6, 1, 1)
        st = sda_step(sda_dare_init(A, B, C))
        np.testing.assert_allclose(st.Gk, st.Gk.T)
        np.testing.assert_allclose(st.Hk, st.Hk.T)


class TestCareInit:
    def test_scalar_seed(self):
        st = sda_care_init(np.array([[-1.0]]), np.array([[1.0]]),
                           np.array([[1.0]]), 1.0)
        np.testing.assert_allclose(st.Ak, [[0.2]], atol=1e-14)
        np.testing.assert_allclose(st.Gk, [[0.4]], atol=1e-14)
        np.testing.assert_allclose(st.Hk, [[0.4]], atol=1e-14)

    def test_composite_forms(self):
        A, B, C = random_care_instance(4, 12, 2, 2)
        gamma = 0.8
        st = sda_care_init(A, B, C, gamma)
        n = 12
        Ahat = A - gamma * np.eye(n)
        Ainv = np.linalg.inv(Ahat)
        K = Ahat.T + C.T @ C @ Ainv @ B @ B.T
        Kinv = np.linalg.inv(K)
        np.testing.assert_allclose(st.Ak, np.eye(n) + 2 * gamma * Kinv.T,
                                   atol=1e-10)
        G0 = 2 * gamma * Ainv @ B @ B.T @ Kinv
        H0 = 2 * gamma * Kinv @ C.T @ C @ Ainv
        np.testing.assert_allclose(st.Gk, 0.5 * (G0 + G0.T), atol=1e-10)
        np.testing.assert_allclose(st.Hk, 0.5 * (H0 + H0.T), atol=1e-10)

    def test_zero_b_gives_zero_g(self):
        st = sda_care_init(np.array([[-2.0]]), np.array([[0.0]]),
                           np.array([[1.0]]), 1.0)
        np.testing.assert_allclose(st.Gk, [[0.0]])

    def test_gamma_on_spectrum_raises(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SingularShift):
                sda_care_init(np.array([[1.0]]), np.array([[1.0]]),
                              np.array([[1.0]]), 1.0)

    def test_singular_shift_raises_without_warning(self):
        with pytest.raises(SingularShift, match="A - gamma I"):
            sda_care_init(np.eye(3), np.ones((3, 1)), np.ones((1, 3)), gamma=1.0)

    def test_numerically_singular_k_gamma_raises(self):
        # A - I = [[0.5, 0], [1, 1]] is well conditioned, but with B = 1e4 e1
        # and C = 1e4 e2, K = [[0.5, 1], [-2e16, 1]]: its second pivot is
        # about 1 against max|K| = 2e16
        with pytest.raises(SingularShift, match="K_gamma"):
            sda_care_init(np.array([[1.5, 0.0], [1.0, 2.0]]),
                          np.array([[1e4], [0.0]]), np.array([[0.0, 1e4]]), 1.0)


class TestGenerators:
    def test_orthogonal(self):
        Q = random_orthogonal(np.random.default_rng(0), 9)
        np.testing.assert_allclose(Q @ Q.T, np.eye(9), atol=1e-12)

    def test_dare_instance_is_d_stable_and_seeded(self):
        A, B, C = random_dare_instance(8, 20, 2, 3)
        assert A.shape == (20, 20) and B.shape == (20, 2) and C.shape == (3, 20)
        assert np.max(np.abs(np.linalg.eigvals(A))) < 1.0
        A2, B2, C2 = random_dare_instance(8, 20, 2, 3)
        assert np.array_equal(A, A2) and np.array_equal(B, B2) \
            and np.array_equal(C, C2)

    def test_care_instance_is_c_stable(self):
        A, B, C = random_care_instance(9, 20, 2, 3)
        assert np.max(np.linalg.eigvals(A).real) < 0.0
        assert B.shape == (20, 2) and C.shape == (3, 20)
