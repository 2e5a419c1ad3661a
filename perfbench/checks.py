"""Answer checks that share no code with the solver's own residual module.

Every function here recomputes a quantity from the problem data and the
returned factor with plain NumPy/SciPy, so a defect in ``residuals.py``,
``toeplitz_inverse.py`` or ``pcg.py`` cannot hide itself.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg


def _rows_times(W, A):
    """W @ A for a dense row block W and sparse or dense A."""
    return np.asarray((A.T @ W.T).T) if scipy.sparse.issparse(A) else W @ A


def _frob_through_qr(K, M):
    """||K' M K||_F from a thin QR of K' = QR, as ||R M R'||_F (no Gram trace)."""
    R = np.linalg.qr(K.T, mode="r")
    return float(np.linalg.norm(R @ M @ R.T))


def true_nres(equation, A, B, C, S):
    """Relative residual ||R(S'S)||_F / ||C'C||_F of the CARE or DARE at X = S'S.

    CARE: A'X + XA - XBB'X + C'C.  DARE: -X + A'X(I + BB'X)^{-1}A + C'C,
    whose middle inverse is A'S'(I + SBB'S')^{-1}SA by push-through.
    Both are K'MK with K = [C; S; SA] and a small symmetric M.
    """
    r, l = S.shape[0], C.shape[0]
    K = np.vstack([C, S, _rows_times(S, A)])
    SB = S @ B
    d = l + 2 * r
    M = np.zeros((d, d))
    M[:l, :l] = np.eye(l)
    if equation == "care":
        M[l:l + r, l:l + r] = -(SB @ SB.T)
        M[l:l + r, l + r:] = np.eye(r)
        M[l + r:, l:l + r] = np.eye(r)
    else:
        M[l:l + r, l:l + r] = -np.eye(r)
        M[l + r:, l + r:] = np.linalg.inv(np.eye(r) + SB @ SB.T)
    cc = float(np.linalg.norm(C @ C.T))
    return _frob_through_qr(K, M) / cc


def care_reference(A, B, C):
    """Dense stabilizing CARE solution X* (small n only)."""
    return scipy.linalg.solve_continuous_are(
        np.asarray(A.todense() if scipy.sparse.issparse(A) else A, dtype=float),
        B, C.T @ C, np.eye(B.shape[1]))


def forward_error(S, X_ref):
    """||S'S - X*||_F / ||X*||_F."""
    return float(np.linalg.norm(S.T @ S - X_ref) / np.linalg.norm(X_ref))


def closed_loop_re(A, B, S):
    """Largest real part of the eigenvalues of A - BB'S'S, computed dense."""
    Ad = np.asarray(A.todense() if scipy.sparse.issparse(A) else A, dtype=float)
    return float(np.max(np.linalg.eigvals(Ad - B @ ((B.T @ S.T) @ S)).real))


def cayley_sweep_gap(A, B, C, gamma, t, S, rng, probes=2):
    """Relative gap between S'S and the sweep's closed form on random probes.

    For Atilde = I + 2g(A - gI)^{-1}, Btilde = sqrt(2g)(A - gI)^{-1}B and
    Ctilde = sqrt(2g)C(A - gI)^{-1}, the t-step iterate from zero is
    X_t = V'(I + TT')^{-1}V with V = [Ctilde Atilde^k]_{k<t} and T the lower
    block-Toeplitz matrix of [C(A - gI)^{-1}B, Ctilde Atilde^k Btilde ...].
    The check rebuilds V and T from its own sparse LU and solves with a dense
    Cholesky of I + TT', so z'Xz is compared without PCG or FFTs.
    """
    n, m, l = A.shape[0], B.shape[1], C.shape[0]
    lu = scipy.sparse.linalg.splu(
        (A - gamma * scipy.sparse.identity(n, format="csr")).tocsc())
    scale = np.sqrt(2.0 * gamma)
    CA = lu.solve(np.ascontiguousarray(C.T), trans="T").T   # C (A - gI)^{-1}
    Bt = scale * lu.solve(B)
    blocks = [scale * CA]
    for _ in range(t - 1):
        W = blocks[-1]
        blocks.append(W + 2.0 * gamma * lu.solve(np.ascontiguousarray(W.T), trans="T").T)
    markov = [CA @ B] + [blk @ Bt for blk in blocks[:t - 1]]
    T = np.zeros((t * l, t * m))
    for i in range(t):
        for j in range(i + 1):
            T[i * l:(i + 1) * l, j * m:(j + 1) * m] = markov[i - j]
    V = np.vstack(blocks)
    chol = scipy.linalg.cho_factor(np.eye(t * l) + T @ T.T)
    Z = rng.standard_normal((n, probes))
    VZ = V @ Z
    expect = np.einsum("ij,ij->j", VZ, scipy.linalg.cho_solve(chol, VZ))
    got = np.sum((S @ Z) ** 2, axis=0)
    return float(np.max(np.abs(got - expect) / np.abs(expect)))
