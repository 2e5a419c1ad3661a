"""Block-Toeplitz representations and FFT-accelerated application.

A lower (upper) triangular block-Toeplitz matrix is stored by its defining
block column ``A_0 .. A_{t-1}`` of p1 x p2 blocks.  For the lower orientation
the defining column is the first block column::

    toepL(col)[i, j] = col[i - j]   (i >= j, block indices)

For the upper orientation the defining column is the *last* block column, so
the bottom block sits on the diagonal::

    toepU(col)[i, j] = col[t - 1 - (j - i)]   (j >= i)

Products with tall block matrices are block linear convolutions and are
evaluated with zero-padded FFTs of power-of-two length, for every t.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

LOWER = "lower"
UPPER = "upper"

_CHUNK_BUDGET = 1 << 22  # complex workspace entries per FFT batch


@dataclass(frozen=True)
class BlockToeplitzSpec:
    """Defining block column of a triangular block-Toeplitz matrix.

    blocks has shape (t, p1, p2); orientation is LOWER or UPPER.
    """

    blocks: np.ndarray
    orientation: str = LOWER

    def __post_init__(self):
        blocks = np.ascontiguousarray(np.asarray(self.blocks, dtype=float))
        if blocks.ndim != 3:
            raise DimensionMismatch(
                "blocks must be a (t, p1, p2) array, got shape %r" % (blocks.shape,))
        if blocks.shape[0] < 1:
            raise DimensionMismatch("need t >= 1 blocks")
        if self.orientation not in (LOWER, UPPER):
            raise DimensionMismatch("orientation must be %r or %r" % (LOWER, UPPER))
        object.__setattr__(self, "blocks", blocks)

    @property
    def t(self):
        return self.blocks.shape[0]

    @property
    def p1(self):
        return self.blocks.shape[1]

    @property
    def p2(self):
        return self.blocks.shape[2]

    @property
    def shape(self):
        return (self.p1 * self.t, self.p2 * self.t)


def next_pow2(n):
    return 1 << max(0, int(n - 1)).bit_length()


def _as_blocks(X, p, t):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != p * t:
        raise DimensionMismatch(
            "expected %d rows (%d blocks of %d), got shape %r" % (p * t, t, p, X.shape))
    return X.reshape(t, p, X.shape[1])


def _conv_lower(col, Xb):
    """Truncated block convolution: out[k] = sum_{i<=k} col[i] @ Xb[k-i]."""
    t = col.shape[0]
    q = Xb.shape[2]
    length = next_pow2(2 * t - 1)
    fcol = np.fft.rfft(col, length, axis=0)
    nfreq = fcol.shape[0]
    # keep the per-batch complex workspace bounded for wide right-hand sides
    chunk = max(1, _CHUNK_BUDGET // (nfreq * max(col.shape[1], col.shape[2])))
    out = np.empty((t, col.shape[1], q))
    for lo in range(0, q, chunk):
        hi = min(q, lo + chunk)
        fx = np.fft.rfft(Xb[:, :, lo:hi], length, axis=0)
        prod = fcol @ fx
        out[:, :, lo:hi] = np.fft.irfft(prod, length, axis=0)[:t]
    return out


def bt_apply(spec, X):
    """Multiply the represented matrix by a dense p2*t x q matrix."""
    t = spec.t
    Xb = _as_blocks(X, spec.p2, t)
    if spec.orientation == LOWER:
        out = _conv_lower(spec.blocks, Xb)
    else:
        # toepU(col) = J . toepL(reversed col) . J with J the block reversal
        out = _conv_lower(spec.blocks[::-1], Xb[::-1])[::-1]
    return out.reshape(spec.p1 * t, -1)


def transpose_spec(spec):
    """Spec of the transposed matrix: reversed, transposed blocks, flipped orientation."""
    blocks = np.ascontiguousarray(spec.blocks[::-1].transpose(0, 2, 1))
    flipped = UPPER if spec.orientation == LOWER else LOWER
    return BlockToeplitzSpec(blocks, flipped)


def bt_apply_transpose(spec, X):
    """Apply the transpose of the represented matrix to a p1*t x q matrix."""
    return bt_apply(transpose_spec(spec), X)


def densify(spec):
    """Materialize the full p1*t x p2*t matrix (test utility only)."""
    t, p1, p2 = spec.t, spec.p1, spec.p2
    out = np.zeros((p1 * t, p2 * t))
    for i in range(t):
        for j in range(t):
            if spec.orientation == LOWER:
                k = i - j
            else:
                k = t - 1 - (j - i)
                if j < i:
                    continue
            if spec.orientation == LOWER and k < 0:
                continue
            out[i * p1:(i + 1) * p1, j * p2:(j + 1) * p2] = spec.blocks[k]
    return out
