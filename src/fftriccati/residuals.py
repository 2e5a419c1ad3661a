"""Riccati residual norms evaluated through a thin QR of the low-rank stack.

For X = S'S the residual is K' M K with the stack K = [C; S; SA] and a small
symmetric coupling matrix M. A thin QR K' = QR of the n x (l + 2r) stack
gives ||K' M K||_F = ||R M R'||_F, a norm of an (l + 2r)-square matrix that
is exact to rounding error (a Gram trace would lose half the digits to
cancellation) — no n x n matrix is ever formed.  R comes from
``linops.qr_r`` (blocked LAPACK dgeqrt, Q never formed).

Both loops call ``nres_care`` / ``nres_dare`` only to confirm a stop (and
once on a capped run); every round they call ``nres_factor`` of the residual
factor (CARE: C_k, DARE: D), whose Gram matrix is the residual before
compression.  All three return the residual relative to ||C'C||_F as a float.
"""

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, ZeroRhs
from .linops import chol, qr_r, rowmul


def _cc_norm(C):
    """||C'C||_F computed as ||CC'||_F on the small side."""
    G = C @ C.T
    return float(np.sqrt(np.sum(G * G)))


def _rhs_norm(P):
    """||C'C||_F, the scale of every relative residual."""
    if not np.any(P.C):
        raise ZeroRhs("C = 0: relative residual undefined")
    return _cc_norm(P.C)


def _relative_residual(factor, P, coupling):
    """||K'MK||_F / ||C'C||_F as ||RMR'||_F / ||C'C||_F from a thin QR K' = QR,
    where K = [C; S; SA], M = diag(I, coupling(SB)) and X = S'S."""
    S = factor.S
    cc = _rhs_norm(P)
    if not S.size:
        S = np.zeros((0, P.n))
    elif S.shape[1] != P.n:
        raise DimensionMismatch("factor has %d columns, n = %d" % (S.shape[1], P.n))
    K = np.vstack([P.C, S, rowmul(S, P.A)])
    M = scipy.linalg.block_diag(np.eye(P.l), coupling(S @ P.B))
    R = qr_r(K.T)
    return float(np.linalg.norm(R @ M @ R.T)) / cc


def _care_coupling(SB):
    r = SB.shape[0]
    return np.block([[-(SB @ SB.T), np.eye(r)], [np.eye(r), np.zeros((r, r))]])


def _dare_coupling(SB):
    r = SB.shape[0]
    L = chol(np.eye(r) + SB @ SB.T, "I + (SB)(SB)'")
    Ninv = scipy.linalg.cho_solve((L, True), np.eye(r))
    return np.block([[-np.eye(r), np.zeros((r, r))], [np.zeros((r, r)), 0.5 * (Ninv + Ninv.T)]])


def nres_factor(C_k, P):
    """Relative residual C_k'C_k of a residual factor: ||C_k C_k'||_F / ||C'C||_F."""
    return _cc_norm(C_k) / _rhs_norm(P)


def nres_care(factor, P):
    """Relative residual of A'X + XA - XBB'X + C'C at X = S'S."""
    return _relative_residual(factor, P, _care_coupling)


def nres_dare(factor, P):
    """Relative residual of -X + A'X(I + BB'X)^{-1}A + C'C at X = S'S.

    The middle inverse collapses through the push-through identity to
    (I + (SB)(SB)')^{-1} acting on the small side.
    """
    return _relative_residual(factor, P, _dare_coupling)
