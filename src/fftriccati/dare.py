"""Low-rank sweeps for the discrete-time algebraic Riccati equation

    -X + A'X(I + BB'X)^{-1}A + C'C = 0.

The fixed-point iterate X_t admits the closed form V_t'(I + T T')^{-1}V_t
with V_t the Krylov stack of C and T a strictly lower block-Toeplitz matrix
built from V_{t-1}B.  One "sweep" evaluates that closed form through the
structured inverse, returning a factor S with S'S = X_t; restarts feed the
compressed factor back in as the initial term of the next sweep.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (DimensionMismatch, NoConvergence, NotPositiveDefinite,
                     StackBlowup)
from .linops import rowmul
from .pcg import PcgConfig
from .toeplitz import LOWER, BlockToeplitzSpec, bt_apply
from .toeplitz_inverse import DARE_MODE, solve_sweep_systems

_BLOWUP_LIMIT = 1e150


@dataclass(frozen=True)
class DareProblem:
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
    Vt: np.ndarray   # [C; CA; ...; CA^{t-1}]
    VtA: np.ndarray  # [CA; ...; CA^t]
    VB: np.ndarray   # V_{t-1} B


@dataclass
class RoundRecord:
    round: int
    t: int
    gamma: float
    nres: float
    rank: int
    ms: float


def build_krylov_stack(P, t):
    """Row-block powers of A applied to C; never forms A^t."""
    if t < 1:
        raise DimensionMismatch("t must be >= 1")
    blocks = [P.C]
    for _ in range(t):
        W = rowmul(blocks[-1], P.A)
        if not np.all(np.isfinite(W)) or np.linalg.norm(W) > _BLOWUP_LIMIT:
            raise StackBlowup(
                "Krylov block norm exceeded %g at depth %d" % (_BLOWUP_LIMIT, len(blocks)))
        blocks.append(W)
    Vt = np.vstack(blocks[:t])
    VtA = np.vstack(blocks[1:t + 1])
    if t > 1:
        VB = np.vstack([blk @ P.B for blk in blocks[:t - 1]])
    else:
        VB = np.zeros((0, P.m))
    return KrylovStack(Vt=Vt, VtA=VtA, VB=VB)


def _sweep_inverse(P, stack, t, cfg):
    col = np.vstack([np.zeros((P.l, P.m)), stack.VB]).reshape(t, P.l, P.m)
    return solve_sweep_systems(BlockToeplitzSpec(col, LOWER), DARE_MODE, cfg)


def fta_dare_sweep(P, t, cfg=None):
    """Factor of the DRE iterate X_t from X_0 = 0; S'S = X_t."""
    cfg = cfg or PcgConfig()
    stack = build_krylov_stack(P, t)
    if t == 1:
        return LowRankFactor(P.C.copy())
    inv = _sweep_inverse(P, stack, t, cfg)
    S1, S2 = inv.apply(stack.Vt[P.l:])
    return LowRankFactor(np.vstack([P.C, S1, S2]))


def fta_dare_arbitrary(P, Gamma, t, cfg=None):
    """Factor of the DRE iterate X_t from X_0 = Gamma'Gamma."""
    cfg = cfg or PcgConfig()
    Gamma = np.atleast_2d(np.asarray(Gamma, dtype=float))
    if Gamma.size == 0 or not np.any(Gamma):
        return fta_dare_sweep(P, t, cfg)
    if Gamma.shape[1] != P.n:
        raise DimensionMismatch("Gamma must have n columns")
    g = Gamma.shape[0]

    stack = build_krylov_stack(P, t)
    # propagate the initial factor through the same powers of A
    gpow = [Gamma]
    for _ in range(t):
        W = rowmul(gpow[-1], P.A)
        if not np.all(np.isfinite(W)) or np.linalg.norm(W) > _BLOWUP_LIMIT:
            raise StackBlowup("initial-factor block norm exceeded the overflow guard")
        gpow.append(W)
    gb = [Gk @ P.B for Gk in gpow[:t]]

    if t == 1:
        S1 = np.zeros((0, P.n))
        S2 = np.zeros((0, P.n))
        Xi1G = np.zeros((0, g))
        Xi2G = np.zeros((0, g))
    else:
        inv = _sweep_inverse(P, stack, t, cfg)
        S1, S2 = inv.apply(stack.Vt[P.l:])
        # coupling columns: toepL(V_{t-1}B) applied to the reversed GB stack
        M = np.vstack([gb[t - 1 - j].T for j in range(t - 1)])
        vb_spec = BlockToeplitzSpec(stack.VB.reshape(t - 1, P.l, P.m), LOWER)
        Xi1G, Xi2G = inv.apply(bt_apply(vb_spec, M))

    WG = np.eye(g) + sum(gbk @ gbk.T for gbk in gb) \
        - Xi1G.T @ Xi1G - Xi2G.T @ Xi2G
    try:
        LG = np.linalg.cholesky(0.5 * (WG + WG.T))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("initial-term coupling matrix W_Gamma") from exc
    XiG = gpow[t] - Xi1G.T @ S1 - Xi2G.T @ S2
    SG = scipy.linalg.solve_triangular(LG, XiG, lower=True)
    return LowRankFactor(np.vstack([P.C, S1, S2, SG]))


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


def fta_dare_solve(P, t_per_restart=32, tau=1e-12, stop=1e-10, max_restarts=20,
                   cfg=None):
    """Restarted sweeps until nres_dare <= stop; returns (factor, history)."""
    from .residuals import nres_dare

    cfg = cfg or PcgConfig()
    if not np.any(P.C):
        return LowRankFactor(np.zeros((0, P.n))), []
    history = []
    factor = None
    for rnd in range(1, max_restarts + 1):
        tic = time.perf_counter()
        if factor is None:
            raw = fta_dare_sweep(P, t_per_restart, cfg)
        else:
            raw = fta_dare_arbitrary(P, factor.S, t_per_restart, cfg)
        factor = compress_factor(raw, tau)
        rep = nres_dare(factor, P)
        ms = 1000.0 * (time.perf_counter() - tic)
        history.append(RoundRecord(rnd, t_per_restart, 0.0, rep.nres, factor.r, ms))
        if rep.nres <= stop:
            return factor, history
    raise NoConvergence(
        "nres %.3e > %.3e after %d restarts" % (history[-1].nres, stop, max_restarts),
        factor=factor, history=history)
