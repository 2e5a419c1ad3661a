"""Structured inverse of I + T T' for triangular block-Toeplitz T.

A pair of small Gram solves (the Q2/Q3 systems) gives two upper
block-Toeplitz factors with

    (I + T T')^{-1} = U1 U1' + U2 U2',

U1 = toepU([Q2c; Q2b] LQ^{-T}) and U2 = toepU([Q3...; 0] LW^{-T}).  The
inverse is carried as one dense upper-triangular R of order dim = t p1, the
R of a QR of the stacked [U1'; U2'], so that R'R = (I + T T')^{-1}.
Contracting a Krylov stack V with R gives dim rows Xi = R V with
Xi'Xi = V'(I + T T')^{-1} V, one GEMM instead of two FFT products over all
of V's columns.

Two right-hand-side modes exist: the discrete sweep solves the inner system
whose operator is I + toepL(D) toepL(D)' with D the strict part of the
column, while the continuous sweep keeps the corner block Y on the diagonal
and solves the full system plus its trailing principal submatrix system.

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

DARE_MODE = "dare"
CARE_MODE = "care"
_PCG = PcgConfig()  # rel_tol 1e-12, "auto" preconditioner


@dataclass
class SweepArtifacts:
    """Raw small-system solutions and their Cholesky factors.

    Q2c/Q2b split the Q2 solution into its leading blocks and bottom block;
    Q3t is the top block of the inner Q3 solve (discrete mode only, dropped
    from the applied column), Q3c the blocks that survive into U2.
    """

    Q2c: np.ndarray
    Q2b: np.ndarray
    Q3t: np.ndarray | None
    Q3c: np.ndarray
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
        if self.t == 0:
            return np.zeros((0, V.shape[1] if V.ndim == 2 else 1))
        if V.shape[0] != self.dim:
            raise DimensionMismatch(
                "V has %d rows, inverse acts on %d" % (V.shape[0], self.dim))
        return self.R @ V

    def apply_inverse(self, V):
        """M^{-1} V = R'(R V)."""
        if self.t == 0:
            return np.asarray(V, dtype=float)
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


def solve_sweep_systems(L_col, rhs_mode):
    """Build the structured inverse from a defining column [Y or 0; D].

    rhs_mode "dare" solves the inner (t-1)-block system driven by D alone;
    "care" keeps Y on the diagonal and solves the full t-block system for Q2
    and the trailing-submatrix system for Q3.
    """
    if L_col.orientation != LOWER:
        raise DimensionMismatch("sweep systems expect a lower spec")
    t, p1, p2 = L_col.t, L_col.p1, L_col.p2
    blocks = L_col.blocks

    if rhs_mode == DARE_MODE:
        s = t - 1
        if s == 0:
            art = SweepArtifacts(
                Q2c=np.zeros((0, p1)), Q2b=np.eye(p1), Q3t=None,
                Q3c=np.zeros((0, p2)), W=np.eye(p2), Wtilde=np.eye(p2),
                LQ=np.eye(p1), LW=np.eye(p2))
            return StructuredInverse(art, 0, p1, np.zeros((0, 0)))
        D = blocks[1:]
        Dspec = BlockToeplitzSpec(D, LOWER)
        op = GramOperator(Dspec)
        precond = choose_preconditioner(Dspec, _PCG)
        rhs_q2 = np.zeros((p1 * s, p1))
        rhs_q2[-p1:] = np.eye(p1)
        rhs_q3 = D.reshape(p1 * s, p2)
        kappa = 1.0 + s * float(np.sum(D * D))
        sol = _solve_spd(op, precond, np.hstack([rhs_q2, rhs_q3]), kappa)
        Q2, Q3 = sol[:, :p1], sol[:, p1:]
        Q2b, Q2c = Q2[-p1:], Q2[:-p1]
        Q3t, Q3c = Q3[:p1], Q3[p1:]
        W = np.eye(p2) - Q3.T @ rhs_q3
        Wtilde = W
        u2_col = np.vstack([Q3c, np.zeros((p1, p2))])
        sys_t = s
    elif rhs_mode == CARE_MODE:
        Y = blocks[0]
        op = GramOperator(L_col)
        precond = choose_preconditioner(L_col, _PCG)
        rhs_q2 = np.zeros((p1 * t, p1))
        rhs_q2[-p1:] = np.eye(p1)
        kappa = 1.0 + t * float(np.sum(blocks * blocks))
        Q2 = _solve_spd(op, precond, rhs_q2, kappa)
        Q2b, Q2c = Q2[-p1:], Q2[:-p1]
        if t == 1:
            Q3 = np.zeros((0, p2))
        else:
            trail = TrailingGramOperator(L_col)
            trail_pc = choose_preconditioner(
                BlockToeplitzSpec(blocks[:-1], LOWER), _PCG)
            rhs_q3 = blocks[1:].reshape(p1 * (t - 1), p2)
            Q3 = _solve_spd(trail, trail_pc, rhs_q3, kappa)
        rhs_q3 = blocks[1:].reshape(p1 * (t - 1), p2)
        W = np.eye(p2) - Q3.T @ rhs_q3
        Wtilde = W + W @ Y.T @ Y @ W
        Q3t, Q3c = None, Q3
        u2_col = np.vstack([Q3, np.zeros((p1, p2))])
        sys_t = t
    else:
        raise ValueError("rhs_mode must be 'dare' or 'care'")

    LQ = _chol(Q2b, "Q2b")
    LW = _chol(Wtilde, "Wtilde")
    art = SweepArtifacts(Q2c=Q2c, Q2b=0.5 * (Q2b + Q2b.T), Q3t=Q3t, Q3c=Q3c,
                         W=W, Wtilde=0.5 * (Wtilde + Wtilde.T), LQ=LQ, LW=LW)
    u1_blocks = (Q2.reshape(sys_t, p1, p1)) @ _lower_inv(LQ).T
    u2_blocks = (u2_col.reshape(sys_t, p1, p2)) @ _lower_inv(LW).T
    eye = np.eye(p1 * sys_t)
    R = np.linalg.qr(np.vstack([
        bt_apply_transpose(BlockToeplitzSpec(u1_blocks, UPPER), eye),
        bt_apply_transpose(BlockToeplitzSpec(u2_blocks, UPPER), eye)]), mode="r")
    return StructuredInverse(art, sys_t, p1, R)

