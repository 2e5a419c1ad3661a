"""Dense small-scale reference implementations for tests and acceptance.

Everything here uses pivoted dense factorizations only and shares no code
with the structured solver paths, so agreement between the two is a real
cross-check rather than a tautology.  The module lives in ``tests/`` and
the tests import it as ``oracles``: no solver module, CLI path or
benchmark needs a dense n x n reference, so the installed package does not
ship one.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from fftriccati.errors import DimensionMismatch, SingularShift
from fftriccati.linops import lu, to_dense

_DENSE_GUARD = 256


class SingularIterate(Exception):
    """A dense oracle hit a singular linear system mid-iteration."""


@dataclass
class SdaState:
    Ak: np.ndarray
    Gk: np.ndarray
    Hk: np.ndarray


def _solve(M, rhs, what):
    x = scipy.linalg.lu_solve(lu(M, SingularIterate, what), rhs)
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
    Ainv = scipy.linalg.lu_solve(lu(Ahat, SingularShift, "A - gamma I"), np.eye(n))
    if not np.all(np.isfinite(Ainv)):
        raise SingularShift("shifted matrix numerically singular")
    K = Ahat.T + C.T @ C @ Ainv @ B @ B.T
    Kinv = scipy.linalg.lu_solve(lu(K, SingularShift, "K_gamma"), np.eye(n))
    A0 = np.eye(n) + 2.0 * gamma * Kinv.T
    G0 = 2.0 * gamma * Ainv @ B @ B.T @ Kinv
    H0 = 2.0 * gamma * Kinv @ C.T @ C @ Ainv
    return SdaState(A0, 0.5 * (G0 + G0.T), 0.5 * (H0 + H0.T))


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
    X = X_factor.gram()
    A = to_dense(P.A)
    At = A - P.B @ (P.B.T @ X) - gamma * np.eye(P.n)
    CtAinv = scipy.linalg.lu_solve(lu(At, SingularShift, "A - BB'X - gamma I"),
                                   Ct.T, trans=1).T
    tmp = CtAinv @ P.B
    mid = np.eye(Ct.shape[0]) + tmp @ tmp.T
    return 2.0 * gamma * CtAinv.T @ np.linalg.solve(mid, CtAinv)

