"""Small dense/sparse helpers: products and norms that accept either kind of A,
and the R-only QR shared by factor compression and the residual norms."""

import numpy as np
import scipy.linalg.lapack
import scipy.sparse


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
