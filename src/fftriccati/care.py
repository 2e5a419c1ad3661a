"""Continuous-time Riccati solver: Cayley transform plus incorporation.

    A'X + XA - XBB'X + C'C = 0

A shift gamma > 0 turns the equation into a discrete one through the Cayley
transform of A - gamma*I; one structured sweep then produces a low-rank
iterate X_t together with a residual factor C_t satisfying
residual(X_t) = C_t'C_t.  The outer loop accumulates corrections: each round
solves the residual equation of the closed-loop matrix A - BB'X_acc (applied
through a Sherman-Morrison-Woodbury update of the fixed shifted
factorization), stacks the new factor, compresses, and decays the shift.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .dare import (LowRankFactor, RoundRecord, _krylov_blocks, _vb_stack,
                   compress_factor)
from .errors import (DimensionMismatch, NoConvergence, SingularClosedLoop,
                     SingularShift)
from .linops import one_norm
from .residuals import nres_care
from .toeplitz import LOWER, BlockToeplitzSpec
from .toeplitz_inverse import CARE_MODE, solve_sweep_systems


class ShiftedSolver:
    """Factorization of A - U V' - gamma I, one LU of the sparse/dense base.

    The optional rank-m feedback term U V' is folded in with the
    Sherman-Morrison-Woodbury identity so closed-loop rounds reuse the base
    factorization of A - gamma I.
    """

    def __init__(self, A, gamma, U=None, V=None):
        n = A.shape[0]
        self.n = n
        if scipy.sparse.issparse(A):
            M = (A - gamma * scipy.sparse.identity(n, format="csr")).tocsc()
            try:
                self._lu = scipy.sparse.linalg.splu(M)
            except RuntimeError as exc:
                raise SingularShift("cannot factor A - gamma I") from exc
            self._sparse = True
        else:
            M = np.asarray(A, dtype=float) - gamma * np.eye(n)
            lu, piv = scipy.linalg.lu_factor(M)
            if np.min(np.abs(np.diag(lu))) <= 1e-14 * max(1.0, np.abs(M).max()):
                raise SingularShift("A - gamma I is numerically singular")
            self._lu = (lu, piv)
            self._sparse = False
        self._U = self._V = None
        if U is not None and U.size and V is not None and np.any(V):
            self._U = np.asarray(U, dtype=float)
            self._V = np.asarray(V, dtype=float)
            self._cor = self._base_solve(self._U)       # M^{-1} U
            self._cor_t = self._base_rsolve(self._V.T).T  # M^{-T} V
            Sm = np.eye(U.shape[1]) - self._V.T @ self._cor
            lu, piv = scipy.linalg.lu_factor(Sm)
            if np.min(np.abs(np.diag(lu))) <= 1e-14 * max(1.0, np.abs(Sm).max()):
                raise SingularClosedLoop("feedback capacitance matrix singular")
            self._sm_lu = (lu, piv)

    def _base_solve(self, X):
        if self._sparse:
            return self._lu.solve(np.ascontiguousarray(X))
        return scipy.linalg.lu_solve(self._lu, X)

    def _base_rsolve(self, W):
        """W M^{-1} for a row block W."""
        if self._sparse:
            return self._lu.solve(np.ascontiguousarray(W.T), trans="T").T
        return scipy.linalg.lu_solve(self._lu, W.T, trans=1).T

    def solve(self, X):
        """(A_eff - gamma I)^{-1} X."""
        Y = self._base_solve(X)
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

    def check(self):
        probe = np.ones((self.n, 1))
        if not np.all(np.isfinite(self.solve(probe))):
            raise SingularShift("shifted solve produced non-finite values")
        return self


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
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    C_cur = P.C if C_current is None else np.atleast_2d(np.asarray(C_current, float))
    U, V = feedback if feedback is not None else (None, None)
    solver = ShiftedSolver(P.A, gamma, U, V).check()
    scale = np.sqrt(2.0 * gamma)
    tmp = solver.solve(P.B)
    CA = solver.rsolve(C_cur)
    return CayleySystem(gamma=gamma, solver=solver, Btilde=scale * tmp,
                        Ctilde=scale * CA, Ygamma=CA @ P.B)


@dataclass
class CareSweep:
    factor: LowRankFactor  # R Vt, t*l rows
    inv: object  # StructuredInverse


def fta_care_sweep(sys, t):
    """One structured sweep: factor of the Cayley-DRE iterate X_t."""
    if t < 1:
        raise DimensionMismatch("t must be >= 1")
    l, m = sys.Ctilde.shape[0], sys.Btilde.shape[1]
    blocks = _krylov_blocks(sys.Ctilde, sys.atilde_rapply, t - 1)
    Vt = np.vstack(blocks)
    col = np.vstack([sys.Ygamma, _vb_stack(blocks, sys.Btilde)]).reshape(t, l, m)
    inv = solve_sweep_systems(BlockToeplitzSpec(col, LOWER), CARE_MODE)
    return CareSweep(LowRankFactor(inv.apply(Vt)), inv)


def residual_factor(sys, sweep, C_in):
    """C_t with residual(X_t) = C_t'C_t, via the structured-inverse contraction."""
    C_in = np.atleast_2d(np.asarray(C_in, dtype=float))
    l = C_in.shape[0]
    if sweep is None:
        return C_in.copy()
    ones = np.tile(np.eye(l), (sweep.inv.t, 1))
    xi = sweep.inv.apply(ones)
    return C_in + np.sqrt(2.0 * sys.gamma) * (xi.T @ sweep.factor.S)


@dataclass
class CareSolveResult:
    factor: LowRankFactor
    history: list
    converged: bool
    note: str = ""

    def __iter__(self):
        return iter((self.factor, self.history))


def default_gamma0(A):
    return max(1e-6, 0.1 * one_norm(A) / A.shape[0])


def fta_care_solve(P, gamma0=None, t_per_round=32, shift_decay=1.01, tau=1e-12,
                   stop=1e-8, max_rounds=40):
    """Incorporation loop: sweep, stack, compress, decay the shift."""
    if shift_decay < 1.0:
        raise ValueError("shift_decay must be >= 1")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if not np.any(P.C):
        return CareSolveResult(LowRankFactor(np.zeros((0, P.n))), [], True,
                               note="zero right-hand side (ZeroRhs)")
    gamma = float(gamma0) if gamma0 is not None else default_gamma0(P.A)
    if gamma <= 0:
        raise ValueError("gamma0 must be positive")

    S_acc = np.zeros((0, P.n))
    C_round = P.C.copy()
    history = []
    for rnd in range(1, max_rounds + 1):
        tic = time.perf_counter()
        if S_acc.shape[0]:
            feedback = (P.B, S_acc.T @ (S_acc @ P.B))
        else:
            feedback = None
        try:
            sys = cayley_transform(P, gamma, C_round, feedback)
        except SingularShift:
            gamma *= 1.5  # single retry with a nudged shift
            sys = cayley_transform(P, gamma, C_round, feedback)
        sweep = fta_care_sweep(sys, t_per_round)
        S_acc = compress_factor(
            LowRankFactor(np.vstack([S_acc, sweep.factor.S])), tau).S
        C_round = residual_factor(sys, sweep, C_round)
        rep = nres_care(LowRankFactor(S_acc), P)
        ms = 1000.0 * (time.perf_counter() - tic)
        history.append(RoundRecord(rnd, t_per_round, gamma, rep.nres,
                                   S_acc.shape[0], ms))
        if rep.nres <= stop:
            return CareSolveResult(LowRankFactor(S_acc), history, True)
        gamma /= shift_decay
    raise NoConvergence(
        "nres %.3e > %.3e after %d rounds" % (history[-1].nres, stop, max_rounds),
        factor=LowRankFactor(S_acc), history=history)

