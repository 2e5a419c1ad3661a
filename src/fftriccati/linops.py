"""Small helpers: products with the CSR A, dense raw inputs, the R-only QR, the
guarded Cholesky/LU and the one LU-pivot rule ``check_pivots`` of every LU."""

import numpy as np
import scipy.linalg.lapack
import scipy.sparse

from .errors import NotPositiveDefinite


def rowmul(W, A):
    """W @ A for a dense row block W and sparse A, as an ndarray."""
    return np.asarray((A.T @ W.T).T)


def to_dense(A):
    """A raw dense or sparse input as a float ndarray."""
    return np.asarray(A.toarray() if scipy.sparse.issparse(A) else A, dtype=float)


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


def check_pivots(pivots, M, error, what):
    """The one LU-pivot rule: raise error if a pivot of the LU of the dense or
    sparse M is <= 1e-14 max(1, max|M_ij|), or is NaN."""
    if not np.min(np.abs(pivots)) > 1e-14 * max(1.0, abs(M).max()):
        raise error("%s is numerically singular" % what)


def lu(M, error, what):
    """(lu, piv) of dense M for scipy.linalg.lu_solve, from LAPACK's dgetrf
    (which does not warn on an exact zero pivot), under ``check_pivots``."""
    lu_, piv, _ = scipy.linalg.lapack.dgetrf(M)
    check_pivots(np.diag(lu_), M, error, what)
    return lu_, piv
