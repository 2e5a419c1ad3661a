"""Workload table and seeded Matrix Market input generation.

Every workload solves a fixed base problem drawn by ``cli.generate_synthetic``
from a base seed.  The run seed then reorders and flips the signs of the
columns of B and the rows of C (B becomes B Q_B, C becomes Q_C C with random
signed permutations Q_B, Q_C).  BB' and C'C do not change, so the Riccati
solution, the round count, the rank and the PCG iteration counts stay the
same while the files the solver reads differ from seed to seed.  Drawing a
fresh B and C per run seed instead would change the workload itself: the
n = 500 CARE takes 21 rounds on base seed 0, 7 rounds on base seed 1 and
never converges on base seed 2.
"""

import numpy as np
import scipy.io
import scipy.sparse

from fftriccati import cli

M = L = 4  # inputs and outputs of every problem

WORKLOADS = {
    # The paper's headline regime; compression, the structured-inverse apply
    # and the shifted solves scale with n and dominate.  Base seed 0 is the
    # problem of acceptance criterion 9.  After the timed solves, the same
    # solver settings run once, untimed, on the n = 500 Laplacian (base seed
    # 0, 21 rounds), where a dense solve_continuous_are reference is
    # affordable: forward error and closed-loop stability come from there.
    "care-lap10k": dict(op="care", kind="laplacian1d_stable", n=10000,
                        base_seeds=(0,), t=32, gamma=1.5, stop=1e-6,
                        reference=dict(n=500, base_seed=0)),
    # The only discrete-time path: sparse Krylov stacks, restarts through
    # fta_dare_arbitrary, DARE-mode Gram systems and nres_dare.  Base seed 2
    # needs 4 restarts; the library reports 0.0 or a few 1e-8 depending on
    # rounding, while the true residual is about 2e-8.
    "dare-heat10k": dict(op="dare", kind="heat", n=10000,
                         base_seeds=(2,), t=32, stop=1e-6),
    # Single deep sweeps on which PCG and the FFT products do most of the
    # work.  Base seeds 0, 1, 3 and 8 cover every outcome at the parent
    # commit (both sweeps pass; both fail twice; t = 64 passes and t = 128
    # fails), so 5 of the 8 sweeps fail in PCG.  Each kept its outcome under
    # ten run-seed permutations.  Base seeds 2, 4 and 6 are left out: one of
    # their sweeps passes or fails with the rounding a permutation changes,
    # which would make the failure share a coin flip.
    "sweep-deep5k": dict(op="sweep", kind="laplacian1d_stable", n=5000,
                         base_seeds=(0, 1, 3, 8), ts=(64, 128), gamma=1.5),
}


def _signed_permutation(rng, k):
    return np.eye(k)[rng.permutation(k)] * rng.choice([-1.0, 1.0], size=k)


def _write_problem(out, kind, n, base, seed):
    """One problem from base seed `base`, permuted by the run seed."""
    a, b, c = cli.generate_synthetic("laplacian1d_stable", n, M, L, base, out)
    if kind == "heat":
        # explicit Euler step of the heat equation: I + 0.25 L
        lap = scipy.io.mmread(a).tocsr()
        scipy.io.mmwrite(a, (scipy.sparse.identity(n, format="csr") + 0.25 * lap).tocoo())
    rng = np.random.default_rng([seed, base])
    scipy.io.mmwrite(b, scipy.io.mmread(b) @ _signed_permutation(rng, M))
    scipy.io.mmwrite(c, _signed_permutation(rng, L) @ scipy.io.mmread(c))
    return {"equation": "dare" if kind == "heat" else "care",
            "a": str(a), "b": str(b), "c": str(c)}


def make_inputs(name, seed, root):
    """Write the workload's problems under root; return their cli configs and
    the config of the reference problem (or None)."""
    spec = WORKLOADS[name]
    configs = [_write_problem(root / ("%s-seed%d-base%d" % (name, seed, base)),
                              spec["kind"], spec["n"], base, seed)
               for base in spec["base_seeds"]]
    ref = spec.get("reference")
    if ref is None:
        return configs, None
    return configs, _write_problem(root / ("%s-seed%d-ref" % (name, seed)),
                                   spec["kind"], ref["n"], ref["base_seed"], seed)
