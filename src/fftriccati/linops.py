"""Small dense/sparse helpers: products and norms for either kind of A, the
R-only QR of compression and residuals, and the solvers' guarded Cholesky/LU."""

import numpy as np
import scipy.linalg.lapack
import scipy.sparse

from .errors import NotPositiveDefinite


def rowmul(W, A):
    """W @ A for a dense row block W and dense or sparse A, as an ndarray."""
    if scipy.sparse.issparse(A):
        return np.asarray((A.T @ W.T).T)
    return W @ A


def one_norm(A):
    if scipy.sparse.issparse(A):
        return float(abs(A).sum(axis=0).max())
    return float(np.linalg.norm(A, 1))


def to_dense(A):
    if scipy.sparse.issparse(A):
        return A.toarray()
    return np.asarray(A, dtype=float)


def qr_r(K):
    """R of a QR of the nonempty m x k matrix K: min(m, k) x k, upper trapezoidal.

    LAPACK's blocked dgeqrt (recursive panels) leaves R in the upper triangle
    of its output; Q is never formed.  Row signs may differ from
    np.linalg.qr, R'R = K'K holds either way.
    """
    m, k = K.shape
    a, _, info = scipy.linalg.lapack.dgeqrt(min(32, m, k), K)
    if info != 0:
        raise np.linalg.LinAlgError("dgeqrt failed with info = %d" % info)
    return np.triu(a[:min(m, k)])


def chol(M, what):
    """Lower Cholesky factor of M's symmetric part; NotPositiveDefinite names `what`."""
    try:
        return np.linalg.cholesky(0.5 * (M + M.T))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("%s is not positive definite" % what) from exc


def lu(M, error, what):
    """(lu, piv) of dense M for scipy.linalg.lu_solve, from LAPACK's dgetrf
    (which does not warn on an exact zero pivot); raises error if a pivot is
    <= 1e-14 max(1, max|M_ij|)."""
    lu_, piv, _ = scipy.linalg.lapack.dgetrf(M)
    if np.min(np.abs(np.diag(lu_))) <= 1e-14 * max(1.0, np.abs(M).max()):
        raise error("%s is numerically singular" % what)
    return lu_, piv
