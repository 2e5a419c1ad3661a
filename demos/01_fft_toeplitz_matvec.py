"""How the FFT block-Toeplitz kernel works, and why it is fast.

A lower block-Toeplitz matrix is fully described by its first block column,
so a product with a block vector is a truncated block convolution.  This
script builds one explicitly, applies it densely and via the FFT path, and
times both as the number of block rows grows.
"""

import time

import numpy as np

from fftriccati import BlockToeplitzSpec, bt_apply, densify


def main():
    rng = np.random.default_rng(0)

    # A small example first: 4 block rows of 2x2 blocks.
    spec = BlockToeplitzSpec(rng.standard_normal((4, 2, 2)))
    X = rng.standard_normal((8, 1))
    dense = densify(spec) @ X
    fast = bt_apply(spec, X)
    print("small example: max |dense - fft| = %.2e"
          % np.abs(dense - fast).max())

    # Now scale the number of block rows.  The dense product costs O(t^2)
    # block multiplies; the FFT path costs O(t log t).
    print("\n%8s %12s %12s %10s" % ("t", "dense (s)", "fft (s)", "max err"))
    for t in (64, 256, 1024, 4096):
        spec = BlockToeplitzSpec(rng.standard_normal((t, 2, 2)))
        X = rng.standard_normal((2 * t, 4))

        tic = time.perf_counter()
        T = densify(spec)
        dense = T @ X
        t_dense = time.perf_counter() - tic

        tic = time.perf_counter()
        fast = bt_apply(spec, X)
        t_fft = time.perf_counter() - tic

        err = np.abs(dense - fast).max() / np.abs(dense).max()
        print("%8d %12.4f %12.4f %10.1e" % (t, t_dense, t_fft, err))


if __name__ == "__main__":
    main()
