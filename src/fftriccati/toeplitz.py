"""Lower block-Toeplitz matrices and their FFT-accelerated products.

A spec is the first block column ``A_0 .. A_{t-1}`` of p1 x p2 blocks::

    toepL(col)[i, j] = col[i - j]   (i >= j, block indices)

The transpose is applied as J toepL(col') J, with J the block reversal and
col' the column of transposed blocks.  Products with tall block matrices
are block linear convolutions, evaluated with zero-padded FFTs of
power-of-two length for every t.  A spec transforms its column once, on its
first product (and col' once, on its first transposed product); every later
product transforms only its operand.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class BlockToeplitzSpec:
    """toepL(blocks), the lower block-Toeplitz matrix of a (t, p1, p2) column.

    Its spectra are cached: do not change ``blocks`` after the first product.
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.ascontiguousarray(np.asarray(self.blocks, dtype=float))
        if blocks.ndim != 3:
            raise DimensionMismatch(
                "blocks must be a (t, p1, p2) array, got shape %r" % (blocks.shape,))
        if blocks.shape[0] < 1:
            raise DimensionMismatch("need t >= 1 blocks")
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

    @cached_property
    def spectrum(self):
        """The column's rfft at length next_pow2(2t - 1), computed on first use."""
        return np.fft.rfft(self.blocks, next_pow2(2 * self.t - 1), axis=0)

    @cached_property
    def spectrum_transpose(self):
        """rfft of col', the column of transposed blocks, computed on first use."""
        # the contiguous copy fixes the FFT's memory layout, and with it the rounding
        blocks_t = np.ascontiguousarray(self.blocks.transpose(0, 2, 1))
        return np.fft.rfft(blocks_t, next_pow2(2 * self.t - 1), axis=0)


def next_pow2(n):
    return 1 << max(0, int(n - 1)).bit_length()


def _as_blocks(X, p, t):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != p * t:
        raise DimensionMismatch(
            "expected %d rows (%d blocks of %d), got shape %r" % (p * t, t, p, X.shape))
    return X.reshape(t, p, X.shape[1])


def _conv_lower(col_hat, Xb):
    """Truncated block convolution out[k] = sum_{i<=k} col[i] @ Xb[k-i],
    given col's spectrum col_hat at the padded length."""
    t = Xb.shape[0]
    length = next_pow2(2 * t - 1)
    prod = col_hat @ np.fft.rfft(Xb, length, axis=0)
    # a copy: a view of the t blocks would keep all `length` of them alive
    return np.fft.irfft(prod, length, axis=0)[:t].copy()


def bt_apply(spec, X):
    """Multiply toepL(col) by a dense p2*t x q matrix."""
    out = _conv_lower(spec.spectrum, _as_blocks(X, spec.p2, spec.t))
    return out.reshape(spec.p1 * spec.t, -1)


def bt_apply_transpose(spec, X):
    """Multiply toepL(col)' = J toepL(col') J by a dense p1*t x q matrix."""
    Xb = _as_blocks(X, spec.p1, spec.t)
    out = _conv_lower(spec.spectrum_transpose, Xb[::-1])
    return out[::-1].reshape(spec.p2 * spec.t, -1)


def densify(spec):
    """Materialize the full p1*t x p2*t matrix (test utility only)."""
    t, p1, p2 = spec.t, spec.p1, spec.p2
    out = np.zeros((p1 * t, p2 * t))
    for i in range(t):
        for j in range(i + 1):
            out[i * p1:(i + 1) * p1, j * p2:(j + 1) * p2] = spec.blocks[i - j]
    return out
