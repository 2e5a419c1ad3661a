"""Riccati residual norms evaluated through a thin QR of the low-rank stack.

For X = S'S the residual is K' M K with the stack K = [C; S; SA] and a small
symmetric coupling matrix M. A thin QR K' = QR of the n x (l + 2r) stack
gives ||K' M K||_F = ||R M R'||_F, a norm of an (l + 2r)-square matrix that
is exact to rounding error (a Gram trace would lose half the digits to
cancellation) — no n x n matrix is ever formed.  R comes from
``linops.qr_r`` (blocked LAPACK dgeqrt, Q never formed).

The CARE loop calls ``nres_care`` only to confirm a stop (and once on a
capped run); every round it uses ``_cc_norm`` of its residual factor C_k,
whose C_k'C_k is the residual before compression.  DARE restarts have no
residual factor and call ``nres_dare`` every restart.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotPositiveDefinite, ZeroRhs
from .linops import qr_r, rowmul


@dataclass(frozen=True)
class ResidualReport:
    nres: float
    absolute_frobenius: float
    gram_dim: int


def _factor_rows(S):
    return S.S if hasattr(S, "S") else np.atleast_2d(np.asarray(S, dtype=float))


def _cc_norm(C):
    """||C'C||_F computed as ||CC'||_F on the small side."""
    G = C @ C.T
    return float(np.sqrt(np.sum(G * G)))


def _stack_frobenius(K, M):
    """||K' M K||_F as ||R M R'||_F from a thin QR K' = QR."""
    R = qr_r(K.T)
    return float(np.linalg.norm(R @ M @ R.T))


def nres_care(factor, P):
    """Relative residual of A'X + XA - XBB'X + C'C at X = S'S."""
    S = _factor_rows(factor)
    C = P.C
    if not np.any(C):
        raise ZeroRhs("C = 0: relative residual undefined")
    if S.size and S.shape[1] != P.n:
        raise DimensionMismatch("factor has %d columns, n = %d" % (S.shape[1], P.n))
    if S.shape[0] == 0:
        S = np.zeros((0, P.n))
    r, l = S.shape[0], C.shape[0]
    K = np.vstack([C, S, rowmul(S, P.A)])
    SB = S @ P.B
    d = l + 2 * r
    M = np.zeros((d, d))
    M[:l, :l] = np.eye(l)
    M[l:l + r, l:l + r] = -(SB @ SB.T)
    M[l:l + r, l + r:] = np.eye(r)
    M[l + r:, l:l + r] = np.eye(r)
    frob = _stack_frobenius(K, M)
    return ResidualReport(frob / _cc_norm(C), frob, d)


def nres_dare(factor, P):
    """Relative residual of -X + A'X(I + BB'X)^{-1}A + C'C at X = S'S.

    The middle inverse collapses through the push-through identity to
    (I + (SB)(SB)')^{-1} acting on the small side.
    """
    S = _factor_rows(factor)
    C = P.C
    if not np.any(C):
        raise ZeroRhs("C = 0: relative residual undefined")
    if S.shape[0] == 0 or not S.size:
        S = np.zeros((0, P.n))
    r, l = S.shape[0], C.shape[0]
    K = np.vstack([C, S, rowmul(S, P.A)])
    SB = S @ P.B
    N = np.eye(r) + SB @ SB.T
    try:
        cho = scipy.linalg.cho_factor(N, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("I + (SB)(SB)' failed Cholesky") from exc
    Ninv = scipy.linalg.cho_solve(cho, np.eye(r))
    d = l + 2 * r
    M = np.zeros((d, d))
    M[:l, :l] = np.eye(l)
    M[l:l + r, l:l + r] = -np.eye(r)
    M[l + r:, l + r:] = 0.5 * (Ninv + Ninv.T)
    frob = _stack_frobenius(K, M)
    return ResidualReport(frob / _cc_norm(C), frob, d)

