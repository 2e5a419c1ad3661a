"""Structured inverse of I + T T' for triangular block-Toeplitz T.

A pair of small Gram solves (the Q2/Q3 systems) gives two upper
block-Toeplitz factors with

    (I + T T')^{-1} = U1 U1' + U2 U2',

U1 = toepU([Q2c; Q2b] LQ^{-T}) and U2 = toepU([Q3; 0] LW^{-T}).  The
inverse is carried as one dense upper-triangular R of order dim = t p1, the
R of a QR of the stacked [U1'; U2'], so that R'R = (I + T T')^{-1}.
Contracting a Krylov stack V with R gives dim rows Xi = R V with
Xi'Xi = V'(I + T T')^{-1} V, one GEMM instead of two FFT products over all
of V's columns.

Both sweeps use the one formula.  Q2 solves the full system for the last
block column of the identity, and Q3 solves its trailing principal
submatrix, the last t - 1 block rows, driven by the strict part of the
column.  The continuous sweep passes its column [Y; D] with the corner
block Y on the diagonal; the discrete sweep passes its inner (t-1)-block
column toepL(V_{t-1}B), whose closed form has no corner block.

Every Gram solve runs PCG with the fixed settings in ``_PCG``; the dense
displacement-rank checks of these factors live in ``oracles``.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotPositiveDefinite, PcgFailure
from .pcg import (GramOperator, PcgConfig, TrailingGramOperator,
                  choose_preconditioner, pcg_solve)
from .toeplitz import LOWER, UPPER, BlockToeplitzSpec, bt_apply_transpose
from .toeplitz import bt_apply  # noqa: F401  (bound here for the layer tracer)

_PCG = PcgConfig()  # rel_tol 1e-12, "auto" preconditioner


@dataclass
class SweepArtifacts:
    """Raw small-system solutions and their Cholesky factors.

    Q2c/Q2b split the Q2 solution into its leading blocks and bottom block;
    Q3 is the trailing-system solution, the leading blocks of U2.
    """

    Q2c: np.ndarray
    Q2b: np.ndarray
    Q3: np.ndarray
    W: np.ndarray
    Wtilde: np.ndarray
    LQ: np.ndarray
    LW: np.ndarray


def _chol(M, what):
    sym = 0.5 * (M + M.T)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("%s is not positive definite" % what) from exc


def _lower_inv(L):
    return scipy.linalg.solve_triangular(L, np.eye(L.shape[0]), lower=True)


@dataclass
class StructuredInverse:
    artifacts: SweepArtifacts
    t: int  # block order of the represented system
    p1: int
    R: np.ndarray  # dim x dim upper triangular, R'R = (I + TT')^{-1}

    @property
    def dim(self):
        return self.p1 * self.t

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
    """PCG with a conditioning-aware acceptance floor.

    The attainable CG residual is about eps * kappa; demanding less on a
    badly conditioned Gram system would fail spuriously, so a column counts
    as solved once it reaches max(rel_tol, 100 eps kappa_bound).
    """
    # ill-conditioned Gram systems can need ~sqrt(kappa) > dim iterations
    cfg = replace(_PCG, max_iter=50 * op.dim)
    res = pcg_solve(op, precond, rhs, cfg)
    floor = max(cfg.rel_tol, 100.0 * np.finfo(float).eps * kappa_bound)
    bad = res.residuals > floor
    if np.any(bad):
        raise PcgFailure(
            "PCG missed tolerance on %d of %d columns (worst rel. residual %g, floor %g)"
            % (int(np.sum(bad)), res.x.shape[1], float(res.residuals.max()), floor))
    return res.x


def solve_sweep_systems(T):
    """Build the structured inverse of I + TT' for a lower spec T = toepL([Y; D]).

    Q2 solves the full t-block system, Q3 the trailing-submatrix system.
    """
    if T.orientation != LOWER:
        raise DimensionMismatch("sweep systems expect a lower spec")
    t, p1, p2 = T.t, T.p1, T.p2
    blocks = T.blocks
    Y = blocks[0]
    op = GramOperator(T)
    precond = choose_preconditioner(T, _PCG)
    rhs_q2 = np.zeros((p1 * t, p1))
    rhs_q2[-p1:] = np.eye(p1)
    kappa = 1.0 + t * float(np.sum(blocks * blocks))
    Q2 = _solve_spd(op, precond, rhs_q2, kappa)
    Q2b, Q2c = Q2[-p1:], Q2[:-p1]
    rhs_q3 = blocks[1:].reshape(p1 * (t - 1), p2)
    if t == 1:
        Q3 = np.zeros((0, p2))
    else:
        trail = TrailingGramOperator(T)
        trail_pc = choose_preconditioner(BlockToeplitzSpec(blocks[:-1], LOWER), _PCG)
        Q3 = _solve_spd(trail, trail_pc, rhs_q3, kappa)
    W = np.eye(p2) - Q3.T @ rhs_q3
    Wtilde = W + W @ Y.T @ Y @ W

    LQ = _chol(Q2b, "Q2b")
    LW = _chol(Wtilde, "Wtilde")
    art = SweepArtifacts(Q2c=Q2c, Q2b=0.5 * (Q2b + Q2b.T), Q3=Q3,
                         W=W, Wtilde=0.5 * (Wtilde + Wtilde.T), LQ=LQ, LW=LW)
    u1_blocks = (Q2.reshape(t, p1, p1)) @ _lower_inv(LQ).T
    u2_col = np.vstack([Q3, np.zeros((p1, p2))])
    u2_blocks = (u2_col.reshape(t, p1, p2)) @ _lower_inv(LW).T
    eye = np.eye(p1 * t)
    R = np.linalg.qr(np.vstack([
        bt_apply_transpose(BlockToeplitzSpec(u1_blocks, UPPER), eye),
        bt_apply_transpose(BlockToeplitzSpec(u2_blocks, UPPER), eye)]), mode="r")
    return StructuredInverse(art, t, p1, R)
