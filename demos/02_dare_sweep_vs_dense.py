"""One structured sweep equals t steps of the dense Riccati recursion.

The discrete-time iteration X_{k+1} = C'C + A'X_k (I + BB'X_k)^{-1} A
converges monotonically from zero to the stabilizing solution.  A sweep
computes X_t in one shot as a low-rank factor, without ever forming an
n x n matrix.  This script cross-checks the sweep against the dense
recursion and shows the monotone approach to the fixed point, taken from
SciPy's dense `solve_discrete_are`.
"""

import numpy as np
import scipy.linalg

from fftriccati import RiccatiProblem, fta_dare_solve, fta_dare_sweep


def dare_instance(seed, n, m, l, radius=0.9):
    """Seeded d-stable (A, B, C): spectrum inside the disk of given radius."""
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    D = np.diag(rng.uniform(-radius, radius, size=n))
    A = Q @ D @ Q.T + 0.05 * rng.standard_normal((n, n)) / np.sqrt(n)
    if np.max(np.abs(np.linalg.eigvals(A))) >= 1.0:
        A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((l, n))
    return A, B, C


def main():
    n = 30
    A, B, C = dare_instance(seed=0, n=n, m=2, l=2)
    P = RiccatiProblem(A, B, C)
    Xstar = scipy.linalg.solve_discrete_are(A, B, C.T @ C, np.eye(2))

    print("sweep vs dense recursion, and distance to the fixed point:")
    print("%6s %14s %14s" % ("t", "|sweep-dense|", "|X_t - X*|"))
    # the dense recursion from X_0 = 0, one step per pass
    Xd, CC, BB = np.zeros((n, n)), C.T @ C, B @ B.T
    for t in range(1, 33):
        inner = scipy.linalg.lu_solve(scipy.linalg.lu_factor(np.eye(n) + BB @ Xd), A)
        Xd = CC + A.T @ Xd @ inner
        Xd = 0.5 * (Xd + Xd.T)
        if t & (t - 1) == 0:  # t = 1, 2, 4, ..., 32
            S = fta_dare_sweep(P, t)
            gap = np.linalg.norm(S.gram() - Xd)
            dist = np.linalg.norm(S.gram() - Xstar)
            print("%6d %14.2e %14.2e" % (t, gap, dist))

    # The driver restarts sweeps on the residual equation until the
    # relative residual passes the stopping tolerance.
    factor, history = fta_dare_solve(P, t_per_restart=8, stop=1e-10)
    print("\nfull solve: %d restarts of t=8, final rank %d"
          % (len(history), factor.r))
    for rec in history:
        print("  restart %d: nres = %.3e, rank = %d"
              % (rec.round, rec.nres, rec.rank))
    print("distance to fixed point: %.2e"
          % np.linalg.norm(factor.gram() - Xstar))


if __name__ == "__main__":
    main()
