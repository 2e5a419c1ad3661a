"""Low-rank sweeps for the discrete-time algebraic Riccati equation

    -X + A'X(I + BB'X)^{-1}A + C'C = 0.

The fixed-point iterate X_t admits the closed form
X_t = C'C + V'(I + T T')^{-1}V with V = [CA; ...; CA^{t-1}] and T the lower
block-Toeplitz matrix of the t - 1 blocks V_{t-1}B = [CB; ...; CA^{t-2}B].
One "sweep" evaluates that closed form through the structured inverse,
returning a factor S with S'S = X_t.  A start X_0 = Gamma'Gamma only appends
g rows (``fta_dare_arbitrary``); they need Gamma A^k B (k < t), one GEMM per
chunk of the thin chain B, AB, ..., and Gamma A^t, so Gamma is propagated
with one live g x n block.

A solve's restarts are defect sweeps instead (Mehrmann and Tan, IEEE TAC
1988).  The DRE step F satisfies F(X + Delta) - F(X) =
A_c'Delta(I + B_c B_c'Delta)^{-1}A_c with the closed loop A_c = (I + BB'X)^{-1}A
and B_c = B L'^{-1} (LL' = I + B'XB), so from X = S'S a restart sweeps that
closed loop from 0 with the residual F(X) - X = D'D (l rows) as its constant
term, and X + Delta_t = F^t(X).  Its next residual factor is the coupling of
the start D'D, read off the same Krylov stack one block deeper; restart 1
(S = 0, D = C) is the plain sweep.

The problem type, the low-rank factor, the sweep and round records, the
guarded Krylov-block builder, the factor compression and the outer loop
``_drive`` with its ``SolveResult`` defined here are shared with the
continuous-time solver in ``care``; each solver only yields its rounds.
"""

import numbers
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import residuals
from .errors import DimensionMismatch, NoConvergence, StackBlowup
from .linops import chol, qr_r, rowmul, to_dense
from .toeplitz import BlockToeplitzSpec, bt_apply
from .toeplitz_inverse import solve_sweep_systems

_BLOWUP_LIMIT = 1e150


@dataclass(frozen=True)
class RiccatiProblem:
    """Coefficients (A, B, C) of a continuous or discrete Riccati equation, stored
    once: A as CSR (a CSR A is kept as it is), B and C as dense float arrays."""

    A: scipy.sparse.csr_matrix  # n x n
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for name in "ABC":  # the dtype, not the data: a float cast drops imaginary parts
            if np.iscomplexobj(getattr(self, name)):
                raise DimensionMismatch("%s must be real" % name)
        A = (self.A.tocsr() if scipy.sparse.issparse(self.A)
             else scipy.sparse.csr_matrix(np.asarray(self.A, dtype=float)))
        B = np.atleast_2d(to_dense(self.B))
        C = np.atleast_2d(to_dense(self.C))
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionMismatch("A must be square")
        if not np.all(np.isfinite(A.data)):
            raise DimensionMismatch("A must be finite")
        if B.shape[0] != n:
            raise DimensionMismatch("B must have n rows")
        if C.shape[1] != n:
            raise DimensionMismatch("C must have n columns")
        if B.shape[1] == 0:
            raise DimensionMismatch("B must have at least one column")
        if B.shape[1] > n or C.shape[0] > n:
            raise DimensionMismatch("need m <= n and l <= n")
        if not (np.all(np.isfinite(B)) and np.all(np.isfinite(C))):
            raise DimensionMismatch("B and C must be finite")
        object.__setattr__(self, "A", A)
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

    def gram(self):
        return self.S.T @ self.S


@dataclass(frozen=True)
class KrylovStack:
    blocks: list  # C, CA, ..., CA^{t-1} (CARE: Ctilde, Atilde)
    VB: np.ndarray  # V_{t-1} B

    @property
    def Vt(self):
        """[C; CA; ...; CA^{t-1}], stacked after the Gram solves: freeing the blocks
        before them fragments glibc's heap (sweep-deep5k peak RSS 233 -> 280 MB)."""
        return np.vstack(self.blocks)


@dataclass(frozen=True)
class Sweep:
    """One sweep: X_t's factor, T and the structured inverse of I + TT'."""

    factor: LowRankFactor  # CARE: R Vt; DARE: [D; R V], V without its first block
    inv: object  # StructuredInverse; None for the DARE's t = 1 sweep
    T: BlockToeplitzSpec  # None where inv is


@dataclass
class RoundRecord:
    round: int
    t: int
    gamma: float
    nres: float  # the value the stop test used
    rank: int  # CARE: the stack's rows; only some rounds compress it
    ms: float
    nres_factor: float = None  # ||C_k C_k'||_F / ||CC'||_F of the residual factor (DARE: D)
    rows_in: int = None  # the stack's rows before the round's compression, if any


@dataclass
class SolveResult:
    """A solve's factor and per-round records; unpacks as (factor, history)."""

    factor: LowRankFactor
    history: list
    converged: bool = True
    note: str = ""

    def __iter__(self):
        return iter((self.factor, self.history))


def _check_count(value, what):
    """A sweep depth or a round cap must be an integer >= 1; a bool is not one."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError("%s must be an integer >= 1" % what)


def _check_sweep_settings(t, tau):
    """A solve's integer t >= 1 and tau in [0, 1) (NaN fails both), before any work."""
    _check_count(t, "t")
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")


def _drive(P, rounds, stop, max_rounds, unit):
    """The outer loop of both solvers: time and record what the generator
    ``rounds`` yields, (factor, the RoundRecord fields but round and ms), until
    a record's nres is <= stop.  At the cap, NoConvergence carries the last
    factor.  Round k's factor is dropped before round k + 1 runs; across rounds
    the CARE keeps S_acc and C_round, the DARE its factor S and residual factor D."""
    _check_count(max_rounds, "max_" + unit)
    if not stop >= 0:
        raise ValueError("stop must be >= 0")
    if not np.any(P.C):
        return SolveResult(LowRankFactor(np.zeros((0, P.n))), [],
                           note="zero right-hand side (ZeroRhs)")
    history = []
    for rnd in range(1, max_rounds + 1):
        tic = time.perf_counter()
        factor, fields = next(rounds)
        history.append(RoundRecord(rnd, ms=1000.0 * (time.perf_counter() - tic), **fields))
        if history[-1].nres <= stop:
            return SolveResult(factor, history)
        if rnd == max_rounds:
            raise NoConvergence("nres %.3e > %.3e after %d %s" % (
                history[-1].nres, stop, rnd, unit), factor=factor, history=history)
        del factor


def _krylov_blocks(W0, rapply, count):
    """Yield W0, rapply(W0), ... (count applications), each block overflow-guarded.

    Only the current block is held; callers that need the stack take list().
    """
    W = W0
    yield W
    for depth in range(1, count + 1):
        W = rapply(W)
        # entrywise bounds: a norm's sum of squares would overflow first; NaN fails both
        if not (W.min(initial=0.0) >= -_BLOWUP_LIMIT and W.max(initial=0.0) <= _BLOWUP_LIMIT):
            raise StackBlowup("Krylov block exceeded the overflow guard at depth %d"
                              % depth)
        yield W


def _krylov_stack(W0, rapply, B, t):
    """Blocks W0, W0 R, ..., W0 R^{t-1} with W R = rapply(W), and VB = V_{t-1} B."""
    _check_count(t, "t")
    blocks = list(_krylov_blocks(W0, rapply, t - 1))
    VB = (np.vstack([blk @ B for blk in blocks[:-1]]) if t > 1
          else np.zeros((0, B.shape[1])))
    return KrylovStack(blocks, VB)


def build_krylov_stack(P, t):
    """Row-block powers of A applied to C; never forms A^t."""
    return _krylov_stack(P.C, lambda W: rowmul(W, P.A), P.B, t)


def _sweep(stack, t):
    """The sweep of X_t from 0 on a stack of depth >= t from D = stack.blocks[0]:
    rows [D; R V] with V = [DA; ...; DA^{t-1}] and inner T = toepL(V_{t-1}B);
    None for T and the inverse at t = 1."""
    D = stack.blocks[0]
    if t == 1:
        return Sweep(LowRankFactor(D.copy()), None, None)
    T = BlockToeplitzSpec(stack.VB[:(t - 1) * D.shape[0]].reshape(t - 1, D.shape[0], -1))
    inv = solve_sweep_systems(T)
    return Sweep(LowRankFactor(np.vstack([D, inv.apply(np.vstack(stack.blocks[1:t]))])),
                 inv, T)


def _sweep_base(P, t):
    """The sweep of X_t from 0 for the problem's own A, B and C."""
    return _sweep(build_krylov_stack(P, t), t)


def _coupled_rows(sweep, GB, GAt):
    """Rows S_G with S_G'S_G = X_t(G'G) - X_t(0): what a start X_0 = G'G adds to
    the sweep's rows, from GB = [G B, G AB, ..., G A^{t-1}B] and G A^t (which it
    may overwrite).  The coupling reads the sweep's raw rows R V, so a solve may
    stack S_G on compressed ones."""
    g = GB.shape[0]
    Z, XiG = GAt, np.zeros((0, g))
    if sweep.inv is not None:
        # coupling columns: T applied to the GB blocks t-1, ..., 1, stacked as rows
        M = GB.T.reshape(-1, sweep.T.p2, g)[:0:-1].reshape(-1, g)
        XiG = sweep.inv.apply(bt_apply(sweep.T, M))
        Z = GAt - XiG.T @ sweep.factor.S[-sweep.inv.dim:]
    LG = chol(np.eye(g) + GB @ GB.T - XiG.T @ XiG, "initial-term coupling matrix W_Gamma")
    # L_G^{-1} Z as Z' L_G'^{-1}, on Z's transposed view: no copy of Z into F order
    return scipy.linalg.blas.dtrsm(1.0, LG, Z.T, side=1, lower=1, trans_a=1,
                                   overwrite_b=1).T


def _initial_term(P, base, Gamma, t):
    """Rows S_Gamma that the start X_0 = Gamma'Gamma adds to the sweep's rows.

    GB = [Gamma B, Gamma AB, ..., Gamma A^{t-1}B] takes one GEMM per chunk of
    the thin chain B, AB, ...; a chunk spans max(1, g // m) steps, so it is
    never wider than Gamma.  Gamma itself is propagated to Gamma A^t as a
    stream, so one live g x n block and one chunk are held, whatever t.
    """
    g, m = Gamma.shape[0], P.m
    step = max(1, g // m)
    bpow = _krylov_blocks(P.B, lambda W: P.A @ W, t - 1)
    GB = np.hstack([Gamma @ np.hstack([next(bpow) for _ in range(k, min(k + step, t))])
                    for k in range(0, t, step)])
    for GAt in _krylov_blocks(Gamma, lambda W: rowmul(W, P.A), t):
        pass  # keeps only the last block, Gamma A^t
    return _coupled_rows(base, GB, GAt)


def fta_dare_sweep(P, t):
    """Factor of the DRE iterate X_t from X_0 = 0; S'S = X_t."""
    return _sweep_base(P, t).factor


def fta_dare_arbitrary(P, Gamma, t):
    """Factor of the DRE iterate X_t from X_0 = Gamma'Gamma."""
    if np.iscomplexobj(Gamma):
        raise DimensionMismatch("Gamma must be real")
    Gamma = np.atleast_2d(np.asarray(Gamma, dtype=float))
    if Gamma.shape[1] != P.n:
        raise DimensionMismatch("Gamma must have n columns")
    if not np.all(np.isfinite(Gamma)):
        raise DimensionMismatch("Gamma must be finite")
    if not np.any(Gamma):
        return fta_dare_sweep(P, t)
    base = _sweep_base(P, t)
    return LowRankFactor(np.vstack([base.factor.S, _initial_term(P, base, Gamma, t)]))


def compress_factor(factor, tau, sigma_max=None):
    """Rank-truncated factor: the directions of S with singular values above
    tau * sigma_max (default: S's own largest), as U_keep'S.

    The kept rows are mutually orthogonal, sorted by norm, and their norms are
    the kept singular values, so without a sigma_max row 0's norm is sigma_max.
    With S' = QR (R only; Q is never formed) and R' = U diag(sv) W', the rows
    are U_keep'S = diag(sv) (QW)_keep'; the SVD is of the small square R', so
    the cost is one thin QR and one GEMM against S.
    """
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    S = factor.S
    if not np.all(np.isfinite(S)):
        raise StackBlowup("factor to compress has non-finite entries")
    if S.shape[0] == 0 or not np.any(S):
        return LowRankFactor(np.zeros((0, S.shape[1])))
    R = qr_r(S.T)
    u, sv, _ = np.linalg.svd(R.T, full_matrices=False)
    keep = sv > tau * (sv[0] if sigma_max is None else sigma_max)
    return LowRankFactor(u[:, keep].T @ S)


def _closed_loop(P, S):
    """B_c = B L'^{-1} and W -> W A_c for the closed loop of X = S'S, where
    I + (SB)'(SB) = LL' and A_c = (I + BB'X)^{-1}A, so that
    W A_c = W A - (W B_c) L^{-1}(SB)'(SA).  S = 0 gives A and B."""
    SB = S @ P.B
    L = chol(np.eye(P.m) + SB.T @ SB, "I + (SB)'(SB)")
    B_c = scipy.linalg.solve_triangular(L, P.B.T, lower=True).T
    K = scipy.linalg.solve_triangular(L, SB.T @ rowmul(S, P.A), lower=True)
    return B_c, lambda W: rowmul(W, P.A) - (W @ B_c) @ K


def _dare_rounds(P, t, tau, stop, max_restarts):
    """Each restart sweeps the defect DARE of the closed loop of X = S'S from 0:
    constant term D'D = F(X) - X, A_c and B_c of ``_closed_loop`` (Mehrmann and
    Tan), so that X + Delta_t = F^t(X).  The sweep's rows are stacked on S and
    compressed; the next D, with D'D = Delta_{t+1} - Delta_t, is the coupling
    of the start D'D, read off the sweep's stack one block deeper.  Restart 1
    has S = 0 and D = C.  Only S and D outlive a restart."""
    S, D = np.zeros((0, P.n)), P.C
    for rnd in range(1, max_restarts + 1):
        B_c, rapply = _closed_loop(P, S)
        stack = _krylov_stack(D, rapply, B_c, t + 1)
        sweep = _sweep(stack, t)
        GB = stack.VB.reshape(t, P.l, P.m).transpose(1, 0, 2).reshape(P.l, -1)
        D = _coupled_rows(sweep, GB, stack.blocks[t])
        # a suspended generator keeps its locals alive: drop n-wide ones at last use
        del stack, rapply, GB
        raw = np.vstack([S, sweep.factor.S])
        del sweep, S
        S = compress_factor(LowRankFactor(raw), tau).S
        rows_in = raw.shape[0]
        del raw
        cheap = residuals.nres_factor(D, P)
        # D'D misses the compression error: confirm exactly
        check = cheap <= stop or rnd == max_restarts
        nres = residuals.nres_dare(LowRankFactor(S), P) if check else cheap
        yield LowRankFactor(S), dict(t=t, gamma=0.0, nres=nres, rank=S.shape[0],
                                     nres_factor=cheap, rows_in=rows_in)


def fta_dare_solve(P, t_per_restart=32, tau=1e-12, stop=1e-8, max_restarts=40):
    """Restarted defect sweeps until nres_dare <= stop; unpacks as (factor, history).
    tau, stop and the restart cap default to ``fta_care_solve``'s values.  The
    exact ``nres_dare`` runs only where ``nres_factor`` reaches stop, and at the
    cap; each record's ``nres`` is the value its stop test used."""
    _check_sweep_settings(t_per_restart, tau)
    return _drive(P, _dare_rounds(P, t_per_restart, tau, stop, max_restarts), stop,
                  max_restarts, "restarts")
