"""Preconditioned conjugate gradient for the SPD Gram systems I + L L'.

The operators are never materialized: one application costs two FFT
block-Toeplitz products.  A Strang-type block-circulant completion of the
defining column provides the preconditioner; every frequency block of
I + C C^H is Hermitian positive definite, so its construction can only fail
numerically, in which case callers fall back to the identity.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BreakdownNonSpd, DimensionMismatch, SingularPreconditioner
from .toeplitz import bt_apply, bt_apply_transpose


class GramOperator:
    """v -> v + L (L' v) for L = toepL(col)."""

    def __init__(self, L_col):
        self.spec = L_col
        self.dim = L_col.p1 * L_col.t

    def apply(self, X):
        return X + bt_apply(self.spec, bt_apply_transpose(self.spec, X))


class TrailingGramOperator:
    """Trailing principal block submatrix of a Gram operator.

    Acts on the last (t - 1) block rows of I + L L': pad with a leading zero
    block, apply the full operator, and restrict.  Principal submatrices of
    SPD matrices stay SPD.
    """

    def __init__(self, L_col):
        if L_col.t < 2:
            raise DimensionMismatch("trailing system needs t >= 2")
        self.inner = GramOperator(L_col)
        self.p1 = L_col.p1
        self.dim = L_col.p1 * (L_col.t - 1)

    def apply(self, X):
        padded = np.vstack([np.zeros((self.p1, X.shape[1])), X])
        return self.inner.apply(padded)[self.p1:]


class IdentityPreconditioner:
    def solve(self, X):
        return X


class BlockCirculantPreconditioner:
    """Inverse of I + C C^H for the circulant completion C of toepL(col).

    C is the block circulant generated by the defining column; the block DFT
    diagonalizes it, so application is one FFT pass plus t small Hermitian
    solves prepared at construction.
    """

    def __init__(self, L_col):
        t, p = L_col.t, L_col.p1
        self.t, self.p = t, p
        chat = np.fft.fft(L_col.blocks, axis=0)  # (t, p1, p2) complex
        eye = np.eye(p)
        inv = np.empty((t, p, p), dtype=complex)
        for k in range(t):
            blk = eye + chat[k] @ chat[k].conj().T
            try:
                inv[k] = np.linalg.inv(blk)
            except np.linalg.LinAlgError as exc:
                raise SingularPreconditioner(
                    "circulant eigenblock %d of %d is singular" % (k, t)) from exc
        if not np.all(np.isfinite(inv)):
            raise SingularPreconditioner("non-finite circulant eigenblock inverse")
        self._inv = inv

    def solve(self, X):
        Xb = X.reshape(self.t, self.p, -1)
        fx = np.fft.fft(Xb, axis=0)
        out = np.fft.ifft(self._inv @ fx, axis=0).real
        return out.reshape(X.shape)


def choose_preconditioner(L_col):
    """Block circulant from 16 blocks on; identity below, or if it is singular."""
    if L_col.t < 16:
        return IdentityPreconditioner()
    try:
        return BlockCirculantPreconditioner(L_col)
    except SingularPreconditioner:
        return IdentityPreconditioner()


@dataclass
class PcgResult:
    x: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray  # achieved relative residual per column
    converged: np.ndarray

    @property
    def all_converged(self):
        return bool(np.all(self.converged))


def pcg_solve(op, precond, RHS, *, rel_tol=1e-12, max_iter=None):
    """Solve op(x) = b column by column with classic preconditioned CG.

    Stops a column once the *recomputed* true residual satisfies
    ||op(x) - b|| <= rel_tol ||b||; the recurrence residual is additionally
    refreshed every 25 iterations to guard drift.  Hitting the iteration cap
    is soft: the best iterate is kept and flagged unconverged.  max_iter
    defaults to 10 sqrt(dim) + 100.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    if max_iter is not None and max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    RHS = np.asarray(RHS, dtype=float)
    if RHS.ndim == 1:
        RHS = RHS[:, None]
    if RHS.shape[0] != op.dim:
        raise DimensionMismatch(
            "RHS has %d rows, operator dimension is %d" % (RHS.shape[0], op.dim))
    max_iter = max_iter or int(10 * np.sqrt(op.dim) + 100)

    q = RHS.shape[1]
    X = np.zeros_like(RHS)
    iters = np.zeros(q, dtype=int)
    rels = np.zeros(q)
    ok = np.zeros(q, dtype=bool)
    for j in range(q):
        b = RHS[:, j:j + 1]
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            ok[j] = True
            continue
        x = np.zeros_like(b)
        r = b.copy()
        z = precond.solve(r)
        p = z.copy()
        rz = float((r.T @ z).item())
        it = 0
        converged = False
        strikes = 0
        last_true = bnorm
        while it < max_iter:
            it += 1
            Ap = op.apply(p)
            pAp = float((p.T @ Ap).item())
            if pAp <= 0.0:
                raise BreakdownNonSpd(
                    "p'Ap = %g <= 0 at iteration %d (operator not SPD)" % (pAp, it))
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            if it % 25 == 0:
                r = b - op.apply(x)
                true_norm = np.linalg.norm(r)
                # long run of refresh windows with no progress at all: stagnated
                if true_norm > 0.999 * last_true:
                    strikes += 1
                    if strikes >= 8:
                        break
                else:
                    strikes = 0
                last_true = min(last_true, true_norm)
            rnorm = np.linalg.norm(r)
            if rnorm <= rel_tol * bnorm:
                r = b - op.apply(x)
                rnorm = np.linalg.norm(r)
                if rnorm <= rel_tol * bnorm:
                    converged = True
                    break
            z = precond.solve(r)
            rz_new = float((r.T @ z).item())
            beta = rz_new / rz
            p = z + beta * p
            rz = rz_new
        X[:, j:j + 1] = x
        iters[j] = it
        rels[j] = np.linalg.norm(b - op.apply(x)) / bnorm
        ok[j] = converged or rels[j] <= rel_tol
    return PcgResult(X, iters, rels, ok)
