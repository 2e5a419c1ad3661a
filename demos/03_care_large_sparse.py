"""Solving a large sparse continuous-time Riccati equation end to end.

A shifted inverse (Cayley transform) turns the continuous equation into a
discrete one whose iterates the structured sweeps compute directly.  The
solver alternates sweeps with defect-correction restarts on the residual
factor, decaying the shift between rounds.  Here the coefficient matrix is
a 1-D Laplacian of order 10000, so nothing dense of that size ever exists.
"""

import time

import numpy as np
import scipy.sparse

from fftriccati import RiccatiProblem, fta_care_solve


def main():
    n = 10000
    A = scipy.sparse.diags(
        [np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
        [-1, 0, 1], format="csr")
    rng = np.random.default_rng(0)
    B = rng.standard_normal((n, 4))
    C = rng.standard_normal((4, n))

    P = RiccatiProblem(A, B, C)
    tic = time.perf_counter()
    result = fta_care_solve(P, gamma0=1.5, t_per_round=32, stop=1e-8,
                            max_rounds=40)
    elapsed = time.perf_counter() - tic

    print("n = %d, solved in %.1f s over %d rounds" % (n, elapsed,
                                                       len(result.history)))
    print("final rank %d (%.2f%% of n), final nres %.3e"
          % (result.factor.r, 100.0 * result.factor.r / n,
             result.history[-1].nres))
    print("\n%6s %8s %12s %6s %10s" % ("round", "gamma", "nres", "rank", "ms"))
    for rec in result.history:
        print("%6d %8.4f %12.3e %6d %10.1f"
              % (rec.round, rec.gamma, rec.nres, rec.rank, rec.ms))


if __name__ == "__main__":
    main()
