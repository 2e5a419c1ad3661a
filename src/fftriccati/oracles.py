"""Dense small-scale reference implementations for tests and acceptance.

Everything here uses pivoted dense factorizations only and shares no code
with the structured solver paths, so agreement between the two is a real
cross-check rather than a tautology.  The displacement-rank checks at the
bottom read block-Toeplitz specs through the dense ``densify``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (DimensionMismatch, SingularClosedLoop, SingularIterate,
                     SingularShift)
from .linops import to_dense
from .toeplitz import LOWER, UPPER, BlockToeplitzSpec, densify

_DENSE_GUARD = 256


@dataclass
class SdaState:
    Ak: np.ndarray
    Gk: np.ndarray
    Hk: np.ndarray


def _solve(M, rhs, what):
    try:
        lu = scipy.linalg.lu_factor(M)
    except scipy.linalg.LinAlgError as exc:
        raise SingularIterate("%s is singular" % what) from exc
    x = scipy.linalg.lu_solve(lu, rhs)
    if not np.all(np.isfinite(x)):
        raise SingularIterate("%s is numerically singular" % what)
    return x


def dre_dense(A, B, C, X0, t):
    """t steps of X <- C'C + A'X(I + BB'X)^{-1}A from X0."""
    A, B, C = to_dense(A), np.atleast_2d(B), np.atleast_2d(C)
    n = A.shape[0]
    if n > _DENSE_GUARD:
        raise DimensionMismatch("dense DRE oracle limited to n <= %d" % _DENSE_GUARD)
    X = np.array(X0, dtype=float)
    CC = C.T @ C
    BB = B @ B.T
    for _ in range(t):
        inner = _solve(np.eye(n) + BB @ X, A, "I + BB'X")
        X = CC + A.T @ X @ inner
        X = 0.5 * (X + X.T)
    return X


def sda_step(state):
    A, G, H = state.Ak, state.Gk, state.Hk
    n = A.shape[0]
    inner = _solve(np.eye(n) + G @ H, np.eye(n), "I + GH")
    A1 = A @ inner @ A
    G1 = G + A @ inner @ G @ A.T
    H1 = H + A.T @ H @ inner @ A
    return SdaState(A1, 0.5 * (G1 + G1.T), 0.5 * (H1 + H1.T))


def sda_dense(state0, k):
    """k doublings of the structure-preserving recursion."""
    if state0.Ak.shape[0] > _DENSE_GUARD:
        raise DimensionMismatch("dense SDA oracle limited to n <= %d" % _DENSE_GUARD)
    state = state0
    for _ in range(k):
        state = sda_step(state)
    return state


def sda_dare_init(A, B, C):
    A = to_dense(A)
    B, C = np.atleast_2d(B), np.atleast_2d(C)
    return SdaState(A.copy(), B @ B.T, C.T @ C)


def sda_care_init(A, B, C, gamma):
    """Cayley-induced doubling seed (A0, G0, H0) for a continuous equation."""
    A = to_dense(A)
    B, C = np.atleast_2d(B), np.atleast_2d(C)
    n = A.shape[0]
    Ahat = A - gamma * np.eye(n)
    try:
        lu = scipy.linalg.lu_factor(Ahat)
    except scipy.linalg.LinAlgError as exc:
        raise SingularShift("gamma is an eigenvalue of A") from exc
    Ainv = scipy.linalg.lu_solve(lu, np.eye(n))
    if not np.all(np.isfinite(Ainv)):
        raise SingularShift("shifted matrix numerically singular")
    K = Ahat.T + C.T @ C @ Ainv @ B @ B.T
    try:
        Kinv = scipy.linalg.lu_solve(scipy.linalg.lu_factor(K), np.eye(n))
    except scipy.linalg.LinAlgError as exc:
        raise SingularShift("K_gamma singular") from exc
    A0 = np.eye(n) + 2.0 * gamma * Kinv.T
    G0 = 2.0 * gamma * Ainv @ B @ B.T @ Kinv
    H0 = 2.0 * gamma * Kinv @ C.T @ C @ Ainv
    return SdaState(A0, 0.5 * (G0 + G0.T), 0.5 * (H0 + H0.T))


def care_ground_truth(A, B, C, gamma, max_doublings=60, tol=1e-13):
    """Run doubling from the Cayley seed until the H iterate stalls."""
    state = sda_care_init(A, B, C, gamma)
    for _ in range(max_doublings):
        nxt = sda_step(state)
        if np.linalg.norm(nxt.Hk - state.Hk) <= tol * max(1.0, np.linalg.norm(nxt.Hk)):
            return nxt.Hk
        state = nxt
    return state.Hk


def dare_ground_truth(A, B, C, max_doublings=60, tol=1e-13):
    state = sda_dare_init(A, B, C)
    for _ in range(max_doublings):
        nxt = sda_step(state)
        if np.linalg.norm(nxt.Hk - state.Hk) <= tol * max(1.0, np.linalg.norm(nxt.Hk)):
            return nxt.Hk
        state = nxt
    return state.Hk


def random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def random_dare_instance(seed, n, m, l, radius=0.9):
    """Seeded d-stable instance: spectrum inside the disk of given radius."""
    rng = np.random.default_rng(seed)
    Q = random_orthogonal(rng, n)
    D = np.diag(rng.uniform(-radius, radius, size=n))
    A = Q @ D @ Q.T + 0.05 * rng.standard_normal((n, n)) / np.sqrt(n)
    if np.max(np.abs(np.linalg.eigvals(A))) >= 1.0:
        A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((l, n))
    return A, B, C


def random_care_instance(seed, n, m, l):
    """Seeded c-stable instance: spectrum in the open left half-plane."""
    rng = np.random.default_rng(seed)
    Q = random_orthogonal(rng, n)
    D = np.diag(-rng.uniform(0.5, 2.0, size=n))
    A = Q @ D @ Q.T + 0.1 * rng.standard_normal((n, n)) / np.sqrt(n)
    shift = np.max(np.linalg.eigvals(A).real)
    if shift >= -0.05:
        A -= (shift + 0.1) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((l, n))
    return A, B, C


def radi_delta_check(P, X_factor, Ct, gamma):
    """Dense one-step RADI correction in closed form (n <= 64).

    Delta = 2 gamma (Ct A_g^{-1})' (I + Ct A_g^{-1} BB' A_g^{-T} Ct')^{-1} Ct A_g^{-1}
    with A_g = A - BB'X - gamma I.
    """
    if P.n > 64:
        raise DimensionMismatch("radi_delta_check is a small-instance utility (n <= 64)")
    Ct = np.atleast_2d(np.asarray(Ct, dtype=float))
    X = X_factor.gram() if hasattr(X_factor, "gram") else np.asarray(X_factor, float)
    A = to_dense(P.A)
    At = A - P.B @ (P.B.T @ X) - gamma * np.eye(P.n)
    try:
        CtAinv = np.linalg.solve(At.T, Ct.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularClosedLoop("A - BB'X - gamma I is singular") from exc
    if not np.all(np.isfinite(CtAinv)):
        raise SingularClosedLoop("closed-loop solve produced non-finite values")
    tmp = CtAinv @ P.B
    mid = np.eye(Ct.shape[0]) + tmp @ tmp.T
    return 2.0 * gamma * CtAinv.T @ np.linalg.solve(mid, CtAinv)


def min_eig_difference(S1, S2):
    """Smallest eigenvalue of S2'S2 - S1'S1 via the joint row space."""
    A, B = (S.S if hasattr(S, "S") else np.atleast_2d(np.asarray(S, dtype=float))
            for S in (S1, S2))
    if A.size and B.size and A.shape[1] != B.shape[1]:
        raise DimensionMismatch("factors act on different spaces")
    n = B.shape[1] if B.size else A.shape[1]
    T = np.vstack([np.zeros((0, n)), A.reshape(-1, n), B.reshape(-1, n)])
    if not np.any(T):
        return 0.0
    Q, _ = np.linalg.qr(T.T)
    D = (B @ Q).T @ (B @ Q) - (A @ Q).T @ (A @ Q)
    vals = np.linalg.eigvalsh(0.5 * (D + D.T))
    smallest = float(vals[0]) if vals.size else 0.0
    if Q.shape[1] < n:
        smallest = min(smallest, 0.0)
    return smallest


# ---------------------------------------------------------------------------
# displacement-rank utilities for the structured-inverse factors

PLUS = "plus"
MINUS = "minus"


def displacement_residue(R, p, sign):
    R = np.asarray(R, dtype=float)
    n = R.shape[0]
    if R.ndim != 2 or R.shape[1] != n or n % p:
        raise DimensionMismatch("R must be square with order divisible by p")
    res = R.copy()
    if sign == PLUS:  # R - Z R Z'
        res[p:, p:] -= R[:-p, :-p]
    elif sign == MINUS:  # R - Z' R Z
        res[:-p, :-p] -= R[p:, p:]
    else:
        raise ValueError("sign must be 'plus' or 'minus'")
    return res


def displacement_rank(R, p, sign):
    """Block displacement count: ceil(numerical rank of the residue / p)."""
    res = displacement_residue(R, p, sign)
    sv = np.linalg.svd(res, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    return -(-rank // p)


def gs_reconstruct(R1, R2, sign):
    """Dense Gohberg-Semencul product of two generator columns."""
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    if R1.shape != R2.shape:
        raise DimensionMismatch("generator shapes differ")
    p = R1.shape[1]
    t = R1.shape[0] // p
    spec1 = BlockToeplitzSpec(R1.reshape(t, p, p), LOWER if sign == PLUS else UPPER)
    spec2 = BlockToeplitzSpec(R2.reshape(t, p, p), LOWER if sign == PLUS else UPPER)
    return densify(spec1) @ densify(spec2).T
