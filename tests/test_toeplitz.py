"""Block-Toeplitz representation and FFT application tests."""

import numpy as np
import pytest

from fftriccati.errors import DimensionMismatch
from fftriccati.toeplitz import (BlockToeplitzSpec, bt_apply, bt_apply_transpose,
                                 densify, next_pow2)


def random_spec(rng, t, p1, p2):
    return BlockToeplitzSpec(rng.standard_normal((t, p1, p2)))


class TestPlan:
    def test_next_pow2_values(self):
        assert [next_pow2(k) for k in (1, 2, 3, 4, 5, 9)] == [1, 2, 4, 4, 8, 16]


class TestSpec:
    def test_shape_properties(self):
        spec = BlockToeplitzSpec(np.zeros((5, 2, 3)))
        assert (spec.t, spec.p1, spec.p2) == (5, 2, 3)
        assert spec.shape == (10, 15)

    def test_bad_rank_rejected(self):
        with pytest.raises(DimensionMismatch):
            BlockToeplitzSpec(np.zeros((4, 2)))

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            BlockToeplitzSpec(np.zeros((0, 1, 1)))


class TestApply:
    def test_first_column_extraction(self):
        spec = BlockToeplitzSpec(np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1))
        out = bt_apply(spec, np.array([[1.0], [0.0], [0.0]]))
        np.testing.assert_allclose(out.ravel(), [1, 2, 3])

    def test_cumulative_sums(self):
        spec = BlockToeplitzSpec(np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1))
        out = bt_apply(spec, np.ones((3, 1)))
        np.testing.assert_allclose(out.ravel(), [1, 3, 6])

    def test_matches_densified_product(self):
        rng = np.random.default_rng(1)
        spec = random_spec(rng, 8, 2, 3)
        X = rng.standard_normal((3 * 8, 5))
        dense = densify(spec) @ X
        assert np.linalg.norm(bt_apply(spec, X) - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_identity_column_is_identity_map(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((3 * 7, 2))
        blocks = np.zeros((7, 3, 3))
        blocks[0] = np.eye(3)
        np.testing.assert_allclose(bt_apply(BlockToeplitzSpec(blocks), X), X)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        spec = random_spec(rng, 12, 2, 2)
        X = rng.standard_normal((24, 3))
        assert np.array_equal(bt_apply(spec, X), bt_apply(spec, X))

    @pytest.mark.parametrize("apply", [bt_apply, bt_apply_transpose])
    def test_row_count_checked(self, apply):
        # 3 blocks of 2 x 1: bt_apply takes p2 t = 3 rows, the transpose p1 t = 6
        spec = BlockToeplitzSpec(np.zeros((3, 2, 1)))
        good = 3 if apply is bt_apply else 6
        assert apply(spec, np.zeros((good, 1))).shape == (9 - good, 1)
        for rows in (good - 1, good + 1, 9 - good):
            with pytest.raises(DimensionMismatch):
                apply(spec, np.zeros((rows, 1)))

    def test_large_t_uses_fft_path(self):
        # t = 33 pads to an FFT length of 128 (> 2t - 1); still matches the dense product
        rng = np.random.default_rng(5)
        spec = random_spec(rng, 33, 1, 2)
        X = rng.standard_normal((2 * 33, 2))
        dense = densify(spec) @ X
        assert np.linalg.norm(bt_apply(spec, X) - dense) <= 1e-12 * np.linalg.norm(dense)


class TestTranspose:
    def test_scalar_column_readoff(self):
        spec = BlockToeplitzSpec(np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1))
        out = bt_apply_transpose(spec, np.array([[0.0], [0.0], [1.0]]))
        np.testing.assert_allclose(out.ravel(), [3, 2, 1])

    def test_adjoint_identity(self):
        rng = np.random.default_rng(6)
        spec = random_spec(rng, 10, 2, 3)
        x = rng.standard_normal((3 * 10, 1))
        y = rng.standard_normal((2 * 10, 1))
        lhs = float((bt_apply(spec, x).T @ y).item())
        rhs = float((x.T @ bt_apply_transpose(spec, y)).item())
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_matches_densified_transpose(self):
        rng = np.random.default_rng(7)
        spec = random_spec(rng, 16, 2, 1)
        X = rng.standard_normal((2 * 16, 3))
        dense = densify(spec).T @ X
        assert np.linalg.norm(bt_apply_transpose(spec, X) - dense) \
            <= 1e-12 * np.linalg.norm(dense)


def uncached_conv_lower(col, Xb):
    """The block convolution with the column transformed on every call."""
    t = col.shape[0]
    length = next_pow2(2 * t - 1)
    prod = np.fft.rfft(col, length, axis=0) @ np.fft.rfft(Xb, length, axis=0)
    return np.fft.irfft(prod, length, axis=0)[:t]


class TestSpectrumCache:
    @pytest.mark.parametrize("t", [1, 5, 32])
    @pytest.mark.parametrize("q", [1, 3])
    def test_products_equal_uncached_formula_bitwise(self, t, q):
        rng = np.random.default_rng(8)
        spec = random_spec(rng, t, 2, 3)
        X = rng.standard_normal((3 * t, q))
        Y = rng.standard_normal((2 * t, q))
        ref = uncached_conv_lower(spec.blocks, X.reshape(t, 3, q)).reshape(2 * t, q)
        blocks_t = np.ascontiguousarray(spec.blocks.transpose(0, 2, 1))
        ref_t = uncached_conv_lower(blocks_t, Y.reshape(t, 2, q)[::-1])[::-1]
        for _ in range(2):  # first product fills the cache, the second reads it
            assert np.array_equal(bt_apply(spec, X), ref)
            assert np.array_equal(bt_apply_transpose(spec, Y), ref_t.reshape(3 * t, q))

    @pytest.mark.parametrize("apply,rows", [(bt_apply, 3), (bt_apply_transpose, 2)])
    def test_second_product_transforms_only_its_operand(self, monkeypatch, apply, rows):
        rng = np.random.default_rng(9)
        spec = random_spec(rng, 8, 2, 3)
        X = rng.standard_normal((rows * 8, 2))
        apply(spec, X)
        calls = []
        rfft = np.fft.rfft

        def counted(*args, **kwargs):
            calls.append(1)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        apply(spec, X)
        assert len(calls) == 1
