"""Block-Toeplitz representation and FFT application tests."""

import numpy as np
import pytest

from fftriccati.errors import DimensionMismatch
from fftriccati.toeplitz import (LOWER, UPPER, BlockToeplitzSpec, bt_apply,
                                 bt_apply_transpose, bt_compose_lower,
                                 circular_convolve, densify, identity_spec,
                                 next_pow2, transpose_spec)


def random_spec(rng, t, p1, p2, orientation=LOWER):
    return BlockToeplitzSpec(rng.standard_normal((t, p1, p2)), orientation)


class TestConvolve:
    def test_polynomial_product(self):
        np.testing.assert_allclose(circular_convolve([1, 2], [1, 3]), [1, 5, 6])

    def test_identity_kernel(self):
        x = [3.0, -1.0, 2.0, 7.0]
        np.testing.assert_allclose(circular_convolve([1.0], x), x)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(33)
        b = rng.standard_normal(33)
        direct = np.convolve(a, b)
        fast = circular_convolve(a, b)
        assert np.linalg.norm(fast - direct) <= 1e-12 * np.linalg.norm(direct)

    def test_empty_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            circular_convolve([], [1.0])


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

    def test_bad_orientation_rejected(self):
        with pytest.raises(DimensionMismatch):
            BlockToeplitzSpec(np.zeros((1, 1, 1)), "diagonal")

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

    def test_upper_matches_densified_product(self):
        rng = np.random.default_rng(2)
        spec = random_spec(rng, 9, 3, 2, UPPER)
        X = rng.standard_normal((2 * 9, 4))
        dense = densify(spec) @ X
        assert np.linalg.norm(bt_apply(spec, X) - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_identity_column_is_identity_map(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((3 * 7, 2))
        np.testing.assert_allclose(bt_apply(identity_spec(7, 3), X), X)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        spec = random_spec(rng, 12, 2, 2)
        X = rng.standard_normal((24, 3))
        assert np.array_equal(bt_apply(spec, X), bt_apply(spec, X))

    def test_row_count_checked(self):
        spec = BlockToeplitzSpec(np.zeros((3, 2, 2)))
        with pytest.raises(DimensionMismatch):
            bt_apply(spec, np.zeros((5, 1)))

    def test_large_t_uses_fft_path(self):
        # above the dense fallback threshold; still matches densified product
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

    def test_transpose_spec_densifies_to_transpose(self):
        rng = np.random.default_rng(8)
        for orientation in (LOWER, UPPER):
            spec = random_spec(rng, 6, 2, 3, orientation)
            np.testing.assert_allclose(densify(transpose_spec(spec)),
                                       densify(spec).T)


class TestCompose:
    def test_scalar_truncated_convolution(self):
        a = BlockToeplitzSpec(np.array([1.0, 2.0]).reshape(2, 1, 1))
        b = BlockToeplitzSpec(np.array([1.0, 3.0]).reshape(2, 1, 1))
        np.testing.assert_allclose(bt_compose_lower(a, b).blocks.ravel(), [1, 5])

    def test_identity_composition(self):
        rng = np.random.default_rng(9)
        b = random_spec(rng, 5, 3, 2)
        out = bt_compose_lower(identity_spec(5, 3), b)
        np.testing.assert_allclose(out.blocks, b.blocks)

    def test_matches_densified_product_column(self):
        rng = np.random.default_rng(10)
        a = random_spec(rng, 6, 2, 3)
        b = random_spec(rng, 6, 3, 2)
        dense = densify(a) @ densify(b)
        composed = densify(bt_compose_lower(a, b))
        assert np.linalg.norm(composed - dense) <= 1e-12 * np.linalg.norm(dense)
        # block-triangular structure preserved up to roundoff
        assert np.linalg.norm(np.triu(composed, 1) - np.triu(dense, 1)) \
            <= 1e-12 * np.linalg.norm(dense)

    def test_incompatible_specs_rejected(self):
        a = BlockToeplitzSpec(np.zeros((3, 2, 2)))
        with pytest.raises(DimensionMismatch):
            bt_compose_lower(a, BlockToeplitzSpec(np.zeros((4, 2, 2))))
        with pytest.raises(DimensionMismatch):
            bt_compose_lower(a, BlockToeplitzSpec(np.zeros((3, 3, 2))))
        with pytest.raises(DimensionMismatch):
            bt_compose_lower(a, BlockToeplitzSpec(np.zeros((3, 2, 2)), UPPER))
