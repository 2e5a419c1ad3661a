"""Low-rank sweeps for the discrete-time algebraic Riccati equation

    -X + A'X(I + BB'X)^{-1}A + C'C = 0.

The fixed-point iterate X_t admits the closed form V_t'(I + T T')^{-1}V_t
with V_t the Krylov stack of C and T a strictly lower block-Toeplitz matrix
built from V_{t-1}B.  One "sweep" evaluates that closed form through the
structured inverse, returning a factor S with S'S = X_t; restarts feed the
compressed factor back in as the initial term of the next sweep.

The problem type, the low-rank factor, the per-round record, the guarded
Krylov-block builder and the factor compression defined here are shared with
the continuous-time solver in ``care``.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (DimensionMismatch, NoConvergence, NotPositiveDefinite,
                     StackBlowup)
from .linops import rowmul
from .toeplitz import LOWER, BlockToeplitzSpec, bt_apply
from .toeplitz_inverse import DARE_MODE, solve_sweep_systems

_BLOWUP_LIMIT = 1e150


@dataclass(frozen=True)
class RiccatiProblem:
    """Coefficients (A, B, C) of a continuous or discrete Riccati equation."""

    A: object  # n x n, dense ndarray or scipy sparse
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        n = self.A.shape[0]
        if self.A.shape[1] != n:
            raise DimensionMismatch("A must be square")
        if B.shape[0] != n:
            raise DimensionMismatch("B must have n rows")
        if C.shape[1] != n:
            raise DimensionMismatch("C must have n columns")
        if B.shape[1] > n or C.shape[0] > n:
            raise DimensionMismatch("need m <= n and l <= n")
        if not (np.all(np.isfinite(B)) and np.all(np.isfinite(C))):
            raise DimensionMismatch("B and C must be finite")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def l(self):
        return self.C.shape[0]


@dataclass(frozen=True)
class LowRankFactor:
    """Tall-thin S with X = S'S >= 0."""

    S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", np.atleast_2d(np.asarray(self.S, dtype=float)))

    @property
    def r(self):
        return self.S.shape[0]

    @property
    def n(self):
        return self.S.shape[1]

    def gram(self):
        return self.S.T @ self.S


@dataclass(frozen=True)
class KrylovStack:
    Vt: np.ndarray  # [C; CA; ...; CA^{t-1}]
    VB: np.ndarray  # V_{t-1} B


@dataclass
class RoundRecord:
    round: int
    t: int
    gamma: float
    nres: float
    rank: int
    ms: float


def _krylov_blocks(W0, rapply, count):
    """[W0, rapply(W0), ...] with count applications, each block overflow-guarded."""
    blocks = [W0]
    for _ in range(count):
        W = rapply(blocks[-1])
        # entrywise bounds: a norm's sum of squares would overflow first; NaN fails both
        if not (W.min(initial=0.0) >= -_BLOWUP_LIMIT and W.max(initial=0.0) <= _BLOWUP_LIMIT):
            raise StackBlowup("Krylov block exceeded the overflow guard at depth %d"
                              % len(blocks))
        blocks.append(W)
    return blocks


def _vb_stack(blocks, B):
    """[W_0 B; ...; W_{t-2} B] for t = len(blocks); zero rows when t = 1."""
    if len(blocks) == 1:
        return np.zeros((0, B.shape[1]))
    return np.vstack([blk @ B for blk in blocks[:-1]])


def build_krylov_stack(P, t):
    """Row-block powers of A applied to C; never forms A^t."""
    if t < 1:
        raise DimensionMismatch("t must be >= 1")
    blocks = _krylov_blocks(P.C, lambda W: rowmul(W, P.A), t - 1)
    return KrylovStack(Vt=np.vstack(blocks), VB=_vb_stack(blocks, P.B))


def _sweep_inverse(P, stack, t):
    col = np.vstack([np.zeros((P.l, P.m)), stack.VB]).reshape(t, P.l, P.m)
    return solve_sweep_systems(BlockToeplitzSpec(col, LOWER), DARE_MODE)


def fta_dare_sweep(P, t):
    """Factor of the DRE iterate X_t from X_0 = 0; S'S = X_t."""
    stack = build_krylov_stack(P, t)
    if t == 1:
        return LowRankFactor(P.C.copy())
    inv = _sweep_inverse(P, stack, t)
    return LowRankFactor(np.vstack([P.C, inv.apply(stack.Vt[P.l:])]))


def fta_dare_arbitrary(P, Gamma, t):
    """Factor of the DRE iterate X_t from X_0 = Gamma'Gamma."""
    Gamma = np.atleast_2d(np.asarray(Gamma, dtype=float))
    if Gamma.size == 0 or not np.any(Gamma):
        return fta_dare_sweep(P, t)
    if Gamma.shape[1] != P.n:
        raise DimensionMismatch("Gamma must have n columns")
    g = Gamma.shape[0]

    stack = build_krylov_stack(P, t)
    # propagate the initial factor through the same powers of A
    gpow = _krylov_blocks(Gamma, lambda W: rowmul(W, P.A), t)
    gb = [Gk @ P.B for Gk in gpow[:t]]

    if t == 1:
        S = np.zeros((0, P.n))
        XiG = np.zeros((0, g))
    else:
        inv = _sweep_inverse(P, stack, t)
        S = inv.apply(stack.Vt[P.l:])
        # coupling columns: toepL(V_{t-1}B) applied to the reversed GB stack
        M = np.vstack([gb[t - 1 - j].T for j in range(t - 1)])
        vb_spec = BlockToeplitzSpec(stack.VB.reshape(t - 1, P.l, P.m), LOWER)
        XiG = inv.apply(bt_apply(vb_spec, M))

    WG = np.eye(g) + sum(gbk @ gbk.T for gbk in gb) - XiG.T @ XiG
    try:
        LG = np.linalg.cholesky(0.5 * (WG + WG.T))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("initial-term coupling matrix W_Gamma") from exc
    SG = scipy.linalg.solve_triangular(LG, gpow[t] - XiG.T @ S, lower=True)
    return LowRankFactor(np.vstack([P.C, S, SG]))


def compress_factor(factor, tau):
    """Rank-truncated factor; discarded singular values are <= tau * sigma_max.

    With S' = QR (R only; Q is never formed) and R' = U diag(sv) W', the
    kept rows U_keep'S = diag(sv) (QW)_keep' are mutually orthogonal with
    norms sv.  The SVD is of the small square R', so the cost is one thin
    QR and one GEMM against S instead of an SVD of the full stack.
    """
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    S = factor.S
    if not np.all(np.isfinite(S)):
        raise StackBlowup("factor to compress has non-finite entries")
    if S.shape[0] == 0 or not np.any(S):
        return LowRankFactor(np.zeros((0, S.shape[1])))
    R = np.linalg.qr(S.T, mode="r")
    u, sv, _ = np.linalg.svd(R.T, full_matrices=False)
    keep = sv > tau * sv[0] if tau > 0 else sv > 0
    return LowRankFactor(u[:, keep].T @ S)


def fta_dare_solve(P, t_per_restart=32, tau=1e-12, stop=1e-10, max_restarts=20):
    """Restarted sweeps until nres_dare <= stop; returns (factor, history)."""
    from .residuals import nres_dare

    if max_restarts < 1:
        raise ValueError("max_restarts must be >= 1")
    if not np.any(P.C):
        return LowRankFactor(np.zeros((0, P.n))), []
    history = []
    factor = None
    for rnd in range(1, max_restarts + 1):
        tic = time.perf_counter()
        if factor is None:
            raw = fta_dare_sweep(P, t_per_restart)
        else:
            raw = fta_dare_arbitrary(P, factor.S, t_per_restart)
        factor = compress_factor(raw, tau)
        rep = nres_dare(factor, P)
        ms = 1000.0 * (time.perf_counter() - tic)
        history.append(RoundRecord(rnd, t_per_restart, 0.0, rep.nres, factor.r, ms))
        if rep.nres <= stop:
            return factor, history
    raise NoConvergence(
        "nres %.3e > %.3e after %d restarts" % (history[-1].nres, stop, max_restarts),
        factor=factor, history=history)
