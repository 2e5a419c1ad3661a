"""Continuous-time Riccati solver: Cayley transform plus incorporation.

    A'X + XA - XBB'X + C'C = 0

A shift gamma > 0 turns the equation into a discrete one through the Cayley
transform of A - gamma*I; one structured sweep then produces a low-rank
iterate X_t together with a residual factor C_t satisfying
residual(X_t) = C_t'C_t.  ``dare._drive`` runs the outer loop shared with
the DARE solver; the rounds here accumulate corrections: each round
solves the residual equation of the closed-loop matrix A - BB'X_acc (applied
through a Sherman-Morrison-Woodbury update of the fixed shifted
factorization), truncates the new rows at tau * sigma_max of the accumulated
factor (from Vt and R, R Vt never formed; from their small Gram matrix where
it resolves that cut, as it does in most rounds after the first), stacks the
rest on it, and decays the shift.  A dropped direction of singular value
sigma is worth sigma^2 of X = S'S, so the default tau = 1e-8 (about sqrt(eps))
drops at most about eps ||X||_2 per truncation, X's own rounding.  The
stack, like the DARE's, is compressed only when its row count doubles since
its last compression, amortising a compression's cost.

Each round's residual comes from that factor: ``nres_factor`` costs O(l^2 n).
It misses only the compression error, so the exact ``nres_care`` (a QR of
the whole low-rank stack) runs, on the freshly compressed stack, only in a
round whose cheap value reaches the stop and in the last round, and decides:
the loop goes on if it is above.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .dare import (LowRankFactor, Sweep, _check_sweep_settings, _drive, _krylov_stack,
                   compress_factor)
from .errors import SingularShift
from .linops import check_pivots, lu
from .residuals import nres_care, nres_factor
from .toeplitz import BlockToeplitzSpec
from .toeplitz_inverse import solve_sweep_systems


class ShiftedSolver:
    """Factorization of A - U V' - gamma I: one SuperLU LU of A - gamma I (A as CSR).

    The optional rank-m feedback term U V' is folded in with the
    Sherman-Morrison-Woodbury identity so closed-loop rounds reuse the base
    factorization of A - gamma I; a zero V is skipped.  Any failure to factor
    either part, a pivot that ``linops.check_pivots`` rejects, or a non-finite
    solve raises SingularShift.
    """

    def __init__(self, A, gamma, U=None, V=None):
        A = scipy.sparse.csr_matrix(A)
        n = A.shape[0]
        M = (A - gamma * scipy.sparse.identity(n, format="csr")).tocsc()
        try:
            self._lu = scipy.sparse.linalg.splu(M)
        except RuntimeError as exc:
            raise SingularShift("cannot factor A - gamma I") from exc
        check_pivots(self._lu.U.diagonal(), M, SingularShift, "A - gamma I")
        self._U = self._V = None
        if U is not None and U.size and V is not None and np.any(V):
            self._U = np.asarray(U, dtype=float)
            self._V = np.asarray(V, dtype=float)
            self._cor = self._lu.solve(self._U)         # M^{-1} U
            self._cor_t = self._base_rsolve(self._V.T).T  # M^{-T} V
            self._sm_lu = lu(np.eye(U.shape[1]) - self._V.T @ self._cor,
                             SingularShift, "feedback capacitance matrix")
        if not np.all(np.isfinite(self.solve(np.ones((n, 1))))):
            raise SingularShift("shifted solve produced non-finite values")

    def _base_rsolve(self, W):
        """W M^{-1} for a row block W."""
        return self._lu.solve(W.T, trans="T").T

    def solve(self, X):
        """(A_eff - gamma I)^{-1} X."""
        # SuperLU.solve copies its right-hand side into Fortran order itself
        Y = self._lu.solve(X)
        if self._U is None:
            return Y
        return Y + self._cor @ scipy.linalg.lu_solve(self._sm_lu, self._V.T @ Y)

    def rsolve(self, W):
        """W (A_eff - gamma I)^{-1}."""
        Z = self._base_rsolve(W)
        if self._U is None:
            return Z
        corr = scipy.linalg.lu_solve(self._sm_lu, (Z @ self._U).T, trans=1).T
        return Z + corr @ self._cor_t.T


@dataclass
class CayleySystem:
    gamma: float
    solver: ShiftedSolver
    Btilde: np.ndarray  # sqrt(2g) (A_eff - gI)^{-1} B
    Ctilde: np.ndarray  # sqrt(2g) C (A_eff - gI)^{-1}
    Ygamma: np.ndarray  # C (A_eff - gI)^{-1} B

    def atilde_rapply(self, W):
        """W Atilde = W + 2 gamma W (A_eff - gamma I)^{-1}."""
        return W + 2.0 * self.gamma * self.solver.rsolve(W)


def cayley_transform(P, gamma, C_current=None, feedback=None):
    """Build the discrete system induced by the shift gamma.

    C_current substitutes the residual factor of an incorporation round;
    feedback = (U, V) folds the closed-loop correction -UV' into A.
    """
    if not 0.0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
    C_cur = P.C if C_current is None else np.atleast_2d(np.asarray(C_current, float))
    U, V = feedback if feedback is not None else (None, None)
    solver = ShiftedSolver(P.A, gamma, U, V)
    scale = np.sqrt(2.0 * gamma)
    tmp = solver.solve(P.B)
    CA = solver.rsolve(C_cur)
    return CayleySystem(gamma=gamma, solver=solver, Btilde=scale * tmp,
                        Ctilde=scale * CA, Ygamma=CA @ P.B)


def _care_sweep(sys, t, form=False):
    """The sweep's rows Vt and inverse, and with form its factor R Vt, formed
    while the Krylov blocks live (freed first, they fragment glibc's heap:
    sweep-deep5k peak RSS 236 -> 263 MB)."""
    stack = _krylov_stack(sys.Ctilde, sys.atilde_rapply, sys.Btilde, t)
    l, m = sys.Ctilde.shape[0], sys.Btilde.shape[1]
    T = BlockToeplitzSpec(np.vstack([sys.Ygamma, stack.VB]).reshape(t, l, m))
    inv = solve_sweep_systems(T)
    sweep = Sweep(stack.Vt, inv, T)
    if form:
        sweep.factor
    return sweep


def fta_care_sweep(sys, t):
    """One structured sweep: the factor R Vt (t l rows) of the Cayley-DRE iterate X_t."""
    return _care_sweep(sys, t, form=True)


def residual_factor(sys, sweep, C_in):
    """C_t with residual(X_t) = C_t'C_t, via the structured-inverse contraction."""
    C_in = np.atleast_2d(np.asarray(C_in, dtype=float))
    l = C_in.shape[0]
    ones = np.tile(np.eye(l), (sweep.inv.dim // l, 1))
    xi = sweep.inv.apply(ones)
    return C_in + np.sqrt(2.0 * sys.gamma) * ((xi.T @ sweep.left) @ sweep.rows)


def default_gamma0(A):
    return max(1e-6, 0.1 * float(abs(A).sum(axis=0).max()) / A.shape[0])


def _care_rounds(P, gamma0, t, shift_decay, tau, stop, max_rounds):
    """Yield each incorporation round's factor and record fields to ``_drive``;
    only S_acc and C_round outlive a round (its sweep dies before the stack)."""
    gamma = float(gamma0) if gamma0 is not None else default_gamma0(P.A)
    S_acc = np.zeros((0, P.n))
    rank = 0  # rows of S_acc at its last compression; rows below it are new
    C_round = P.C.copy()
    for rnd in range(1, max_rounds + 1):
        feedback = (P.B, S_acc.T @ (S_acc @ P.B))  # zero in round 1
        try:
            sys = cayley_transform(P, gamma, C_round, feedback)
        except SingularShift:
            gamma *= 1.5  # single retry with a nudged shift
            sys = cayley_transform(P, gamma, C_round, feedback)
        sweep = _care_sweep(sys, t)
        C_round = residual_factor(sys, sweep, C_round)
        # row 0's norm is sigma_max; round 1's cut, at its own, is its compression
        rows = compress_factor(LowRankFactor(sweep.rows), tau,
                               np.linalg.norm(S_acc[0]) if rank else None, left=sweep.left).S
        rows_in = S_acc.shape[0] + (rows if rank else sweep.rows).shape[0]
        del sweep, sys, feedback
        S_acc = np.vstack([S_acc, rows])
        del rows
        rank = rank or S_acc.shape[0]
        cheap = nres_factor(C_round, P)
        check = cheap <= stop or rnd == max_rounds
        if S_acc.shape[0] > rank and (check or S_acc.shape[0] >= 2 * rank):
            S_acc = compress_factor(LowRankFactor(S_acc), tau).S
            rank = S_acc.shape[0]
        # the factor's norm misses the compression error: confirm exactly
        nres = nres_care(LowRankFactor(S_acc), P) if check else cheap
        yield LowRankFactor(S_acc), dict(t=t, gamma=gamma, nres=nres, rank=S_acc.shape[0],
                                         nres_factor=cheap, rows_in=rows_in)
        gamma /= shift_decay


def fta_care_solve(P, gamma0=None, t_per_round=32, shift_decay=1.01, tau=1e-8,
                   stop=1e-8, max_rounds=40):
    """Incorporation loop: sweep, truncate, stack, compress, decay the shift.

    ``compress_factor`` cuts the sweep's rows R Vt alone, from Vt and R, at
    tau * ||S_acc[0]|| (round 1: at their own sigma_max, a compression) before
    they are stacked.  S_acc[0] is row 0 of the last compressed factor, so its
    norm is that factor's sigma_max, which X only outgrows.  The stack is
    compressed when its rows reach twice the rank of its last compression,
    before an exact residual and before the factor leaves the loop.  A round's
    two truncations move X by at most 2 tau^2 ||X||_2, 2e-16 ||X||_2 at the
    default tau = 1e-8.  ``residual_factor`` takes the rows uncut, and the
    feedback reads the stack as it stands.

    Converged means the exact ``nres_care`` is <= stop; each record's ``nres``
    is the value its stop test used, ``nres_factor`` the residual factor's,
    and ``rank`` the stack's rows (compressed in the last round).
    """
    if not 1.0 <= shift_decay < np.inf:
        raise ValueError("shift_decay must be >= 1 and finite")
    if gamma0 is not None and not 0.0 < gamma0 < np.inf:
        raise ValueError("gamma0 must be positive and finite")
    _check_sweep_settings(t_per_round, tau)
    return _drive(P, _care_rounds(P, gamma0, t_per_round, shift_decay, tau, stop,
                                  max_rounds), stop, max_rounds, "rounds")
