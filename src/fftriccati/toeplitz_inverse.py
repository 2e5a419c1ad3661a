"""Structured inverse of I + T T' for lower block-Toeplitz T = toepL(col).

A pair of small Gram solves (the Q2/Q3 systems) gives two upper
block-Toeplitz factors with

    (I + T T')^{-1} = U1 U1' + U2 U2',

U1 = toepU(Q2 LQ^{-T}) and U2 = toepU([Q3; 0] LW^{-T}), where LQ and LW
are the Cholesky factors of Q2's bottom block Q2b and of W~.  Only the
transposes are formed, as toepU(u)' = toepL(u reversed, blocks transposed).
The inverse is R alone: the dense upper-triangular R, of order dim = t p1,
of a QR of the stacked [U1'; U2'], so that R'R = (I + T T')^{-1}.
Contracting a Krylov stack V with R gives dim rows Xi = R V with
Xi'Xi = V'(I + T T')^{-1} V, one GEMM instead of two FFT products over all
of V's columns.

Both sweeps use the one formula.  Q2 solves the full system for the last
block column of the identity, and Q3 solves its trailing principal
submatrix, the last t - 1 block rows, driven by the strict part of the
column.  The continuous sweep passes its column [Y; D] with the corner
block Y on the diagonal; the discrete sweep passes its inner (t-1)-block
column toepL(V_{t-1}B), whose closed form has no corner block.  Each sweep
returns one ``dare.Sweep`` record: its raw rows, this inverse and T; the
solvers cut its factor diag(I, R) rows without forming it.

Every Gram solve runs PCG to a relative residual of 1e-12 and accepts a
column at the conditioning floor of ``_solve_spd``.  A Gram solve stops at
its first missed column and solves no later one; its ``PcgFailure`` names
that column.  Only R is kept: the Gram solutions and their Cholesky factors
are dropped once it is formed.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, PcgFailure
from .linops import chol
from .pcg import (GramOperator, TrailingGramOperator, choose_preconditioner,
                  pcg_solve)
from .toeplitz import BlockToeplitzSpec, bt_apply
from .toeplitz import bt_apply_transpose  # noqa: F401  (bound here for the layer tracer)

_REL_TOL = 1e-12


def _lower_inv(L):
    return scipy.linalg.solve_triangular(L, np.eye(L.shape[0]), lower=True)


@dataclass
class StructuredInverse:
    R: np.ndarray  # dim x dim upper triangular, R'R = (I + TT')^{-1}, dim = t p1

    @property
    def dim(self):
        return self.R.shape[0]

    def apply(self, V):
        """Normalized contraction Xi = R V with Xi'Xi = V' M^{-1} V."""
        if V.shape[0] != self.dim:
            raise DimensionMismatch(
                "V has %d rows, inverse acts on %d" % (V.shape[0], self.dim))
        return self.R @ V

    def apply_inverse(self, V):
        """M^{-1} V = R'(R V)."""
        return self.R.T @ self.apply(V)


def _solve_spd(op, precond, rhs, kappa_bound):
    """PCG, one column at a time, with a conditioning-aware acceptance floor.

    The attainable CG residual is about eps * kappa; demanding less on a
    badly conditioned Gram system would fail spuriously, so a column counts
    as solved once it reaches max(rel_tol, 100 eps kappa_bound).  The first
    column that misses raises PcgFailure, so no later column is solved.
    PCG treats columns independently: the result equals one call over all.
    """
    floor = max(_REL_TOL, 100.0 * np.finfo(float).eps * kappa_bound)
    X = np.empty(rhs.shape)
    for j in range(rhs.shape[1]):
        # ill-conditioned Gram systems can need ~sqrt(kappa) > dim iterations
        res = pcg_solve(op, precond, rhs[:, j:j + 1], rel_tol=_REL_TOL,
                        max_iter=50 * op.dim)
        rel = float(res.residuals[0])
        if not rel <= floor:  # a NaN residual is a miss too
            raise PcgFailure(
                "PCG missed tolerance on column %d of %d (worst rel. residual %g, floor %g)"
                % (j + 1, rhs.shape[1], rel, floor))
        X[:, j:j + 1] = res.x
    return X


def solve_sweep_systems(T):
    """Build the structured inverse of I + TT' for T = toepL([Y; D]).

    Q2 solves the full t-block system, Q3 the trailing-submatrix system.
    """
    t, p1, p2 = T.t, T.p1, T.p2
    blocks = T.blocks
    Y = blocks[0]
    op = GramOperator(T)
    precond = choose_preconditioner(T)
    rhs_q2 = np.zeros((p1 * t, p1))
    rhs_q2[-p1:] = np.eye(p1)
    kappa = 1.0 + t * float(np.sum(blocks * blocks))
    Q2 = _solve_spd(op, precond, rhs_q2, kappa)
    Q2b = Q2[-p1:]
    rhs_q3 = blocks[1:].reshape(p1 * (t - 1), p2)
    if t == 1:
        Q3 = np.zeros((0, p2))
    else:
        trail = TrailingGramOperator(T)
        trail_pc = choose_preconditioner(BlockToeplitzSpec(blocks[:-1]))
        Q3 = _solve_spd(trail, trail_pc, rhs_q3, kappa)
    W = np.eye(p2) - Q3.T @ rhs_q3
    Wtilde = W + W @ Y.T @ Y @ W

    LQ = chol(Q2b, "Q2b")
    LW = chol(Wtilde, "Wtilde")
    u1_blocks = (Q2.reshape(t, p1, p1)) @ _lower_inv(LQ).T
    u2_col = np.vstack([Q3, np.zeros((p1, p2))])
    u2_blocks = (u2_col.reshape(t, p1, p2)) @ _lower_inv(LW).T
    eye = np.eye(p1 * t)
    R = np.linalg.qr(np.vstack([
        bt_apply(BlockToeplitzSpec(u[::-1].transpose(0, 2, 1)), eye)
        for u in (u1_blocks, u2_blocks)]), mode="r")
    return StructuredInverse(R)
