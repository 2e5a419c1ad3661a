"""One structured sweep equals t steps of the dense Riccati recursion.

The discrete-time iteration X_{k+1} = C'C + A'X_k (I + BB'X_k)^{-1} A
converges monotonically from zero to the stabilizing solution.  A sweep
computes X_t in one shot as a low-rank factor, without ever forming an
n x n matrix.  This script cross-checks the sweep against the dense
recursion and shows the monotone approach to the fixed point.
"""

import numpy as np

from fftriccati import (RiccatiProblem, dare_ground_truth, dre_dense,
                        fta_dare_solve, fta_dare_sweep, random_dare_instance)


def main():
    A, B, C = random_dare_instance(seed=0, n=30, m=2, l=2)
    P = RiccatiProblem(A, B, C)
    Xstar = dare_ground_truth(A, B, C)

    print("sweep vs dense recursion, and distance to the fixed point:")
    print("%6s %14s %14s" % ("t", "|sweep-dense|", "|X_t - X*|"))
    for t in (1, 2, 4, 8, 16, 32):
        S = fta_dare_sweep(P, t)
        Xd = dre_dense(A, B, C, np.zeros((30, 30)), t)
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
