"""Dense/sparse helpers: the R-only QR kernel and the guarded Cholesky/LU."""

import numpy as np
import pytest
import scipy.linalg

from fftriccati.errors import NotPositiveDefinite, SingularShift
from fftriccati.linops import chol, lu, qr_r


@pytest.mark.parametrize("m, k", [
    (200, 1), (1, 1), (1, 5), (200, 7), (200, 45), (45, 45), (12, 40), (30, 90),
    (2000, 130),
])
def test_qr_r_matches_numpy(m, k):
    # tall, wide and square K; k = 1, k < 32 and k > 32 (block size 32)
    K = np.random.default_rng([m, k]).standard_normal((m, k))
    R = qr_r(K)
    ref = np.linalg.qr(K, mode="r")
    assert R.shape == ref.shape == (min(m, k), k)
    assert np.array_equal(R, np.triu(R))
    # rows agree up to sign
    signs = np.sign(np.diag(R)) * np.sign(np.diag(ref))
    np.testing.assert_allclose(signs[:, None] * R, ref,
                               atol=1e-13 * np.abs(ref).max())
    G = K.T @ K
    assert np.linalg.norm(R.T @ R - G) <= 1e-13 * np.linalg.norm(G)


def test_qr_r_leaves_input_unchanged():
    K = np.random.default_rng(3).standard_normal((50, 60)).T
    before = K.copy()
    qr_r(K)
    assert np.array_equal(K, before)


def test_chol_names_the_failing_matrix():
    with pytest.raises(NotPositiveDefinite, match="W_test is not positive definite"):
        chol(np.array([[1.0, 2.0], [2.0, 1.0]]), "W_test")


def test_chol_factors_the_symmetric_part():
    M = np.array([[4.0, 1.0], [3.0, 5.0]])
    L = chol(M, "M")
    assert np.array_equal(L, np.tril(L))
    np.testing.assert_allclose(L @ L.T, 0.5 * (M + M.T), rtol=1e-15)


@pytest.mark.parametrize("M, singular", [
    (np.ones((2, 2)), True),                    # exact zero pivot
    (np.diag([1.0, 1e-15]), True),              # below the floor of 1e-14
    (np.diag([1e20, 1e5]), True),               # relative to max|M_ij|
    (np.diag([1.0, 1e-13]), False),
    (np.array([[2.0, 1.0], [1.0, 3.0]]), False),
])
def test_lu_pivot_rule(M, singular):
    if singular:
        with pytest.raises(SingularShift, match="M_test is numerically singular"):
            lu(M, SingularShift, "M_test")
    else:
        factors, ref = lu(M, SingularShift, "M_test"), scipy.linalg.lu_factor(M)
        assert np.array_equal(factors[0], ref[0]) and np.array_equal(factors[1], ref[1])
