"""Structured inverse of I + TT' and displacement utilities."""

import numpy as np
import pytest

from fftriccati.errors import DimensionMismatch
from fftriccati.oracles import (MINUS, PLUS, displacement_rank,
                                displacement_residue, gs_reconstruct)
from fftriccati.toeplitz import LOWER, BlockToeplitzSpec, densify
from fftriccati.toeplitz_inverse import (CARE_MODE, DARE_MODE,
                                         solve_sweep_systems)


def dare_col(rng, t, p1, p2):
    col = rng.standard_normal((t, p1, p2))
    col[0] = 0.0  # strictly lower system: zero corner block
    return BlockToeplitzSpec(col, LOWER)


def care_col(rng, t, p1, p2):
    return BlockToeplitzSpec(rng.standard_normal((t, p1, p2)), LOWER)


def dense_gram(spec):
    T = densify(spec)
    return np.eye(T.shape[0]) + T @ T.T


class TestDareMode:
    def test_t1_degenerates_to_identity(self):
        col = BlockToeplitzSpec(np.zeros((1, 2, 3)), LOWER)
        inv = solve_sweep_systems(col, DARE_MODE)
        np.testing.assert_allclose(inv.artifacts.Q2b, np.eye(2))
        np.testing.assert_allclose(inv.artifacts.W, np.eye(3))
        V = np.arange(6.0).reshape(2, 3)
        xi = inv.apply(V)
        assert xi.shape == (0, 3)
        np.testing.assert_allclose(inv.apply_inverse(V), V)

    def test_scalar_t2_artifacts(self):
        # column [0; 1]: inner system I + DD' = 2
        col = BlockToeplitzSpec(np.array([0.0, 1.0]).reshape(2, 1, 1), LOWER)
        inv = solve_sweep_systems(col, DARE_MODE)
        art = inv.artifacts
        np.testing.assert_allclose(art.Q2b, [[0.5]], atol=1e-12)
        assert art.Q2c.shape == (0, 1)
        np.testing.assert_allclose(art.Q3t, [[0.5]], atol=1e-12)
        assert art.Q3c.shape == (0, 1)
        np.testing.assert_allclose(art.W, [[0.5]], atol=1e-12)

    def test_artifacts_satisfy_their_linear_systems(self):
        rng = np.random.default_rng(0)
        col = dare_col(rng, 8, 1, 1)
        inv = solve_sweep_systems(col, DARE_MODE)
        D = col.blocks[1:]
        Dspec = BlockToeplitzSpec(D, LOWER)
        M = dense_gram(Dspec)
        s = 7
        Q2 = np.vstack([inv.artifacts.Q2c, inv.artifacts.Q2b])
        rhs2 = np.zeros((s, 1))
        rhs2[-1] = 1.0
        assert np.linalg.norm(M @ Q2 - rhs2) <= 1e-10
        Q3 = np.vstack([inv.artifacts.Q3t, inv.artifacts.Q3c])
        rhs3 = D.reshape(s, 1)
        assert np.linalg.norm(M @ Q3 - rhs3) <= 1e-10

    def test_inverse_identity_action(self):
        rng = np.random.default_rng(1)
        for t, p1, p2 in ((2, 1, 1), (5, 2, 1), (9, 1, 3), (17, 2, 2), (33, 3, 2)):
            col = dare_col(rng, t, p1, p2)
            inv = solve_sweep_systems(col, DARE_MODE)
            D = BlockToeplitzSpec(col.blocks[1:], LOWER)
            M = dense_gram(D)
            V = rng.standard_normal((p1 * (t - 1), 3))
            out = inv.apply_inverse(V)
            assert np.linalg.norm(M @ out - V) <= 1e-9 * np.linalg.norm(V)

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(2)
        col = dare_col(rng, 12, 2, 1)
        inv = solve_sweep_systems(col, DARE_MODE)
        D = BlockToeplitzSpec(col.blocks[1:], LOWER)
        M = dense_gram(D)
        V = rng.standard_normal((2 * 11, 4))
        xi = inv.apply(V)
        lhs = xi.T @ xi
        rhs = V.T @ np.linalg.solve(M, V)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_zero_input(self):
        rng = np.random.default_rng(3)
        inv = solve_sweep_systems(dare_col(rng, 4, 2, 2), DARE_MODE)
        xi = inv.apply(np.zeros((6, 2)))
        assert np.linalg.norm(xi) == 0.0


class TestCareMode:
    def test_inverse_identity_action_full_system(self):
        rng = np.random.default_rng(4)
        for t, p1, p2 in ((1, 2, 1), (2, 1, 1), (8, 2, 2), (16, 1, 2), (33, 2, 1)):
            col = care_col(rng, t, p1, p2)
            inv = solve_sweep_systems(col, CARE_MODE)
            M = dense_gram(col)
            V = rng.standard_normal((p1 * t, 3))
            out = inv.apply_inverse(V)
            assert np.linalg.norm(M @ out - V) <= 1e-9 * np.linalg.norm(V)

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(5)
        col = care_col(rng, 16, 2, 1)
        inv = solve_sweep_systems(col, CARE_MODE)
        M = dense_gram(col)
        V = rng.standard_normal((32, 5))
        xi = inv.apply(V)
        lhs = xi.T @ xi
        rhs = V.T @ np.linalg.solve(M, V)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_top_block_of_q2_vanishes_for_zero_corner(self):
        # zero corner block reduces the full system to the strictly lower one
        rng = np.random.default_rng(6)
        col = dare_col(rng, 10, 2, 2)
        inv = solve_sweep_systems(col, CARE_MODE)
        Q2 = np.vstack([inv.artifacts.Q2c, inv.artifacts.Q2b])
        assert np.linalg.norm(Q2[:2]) <= 1e-11

    def test_wtilde_matches_dense_definition(self):
        rng = np.random.default_rng(7)
        col = care_col(rng, 6, 1, 2)
        inv = solve_sweep_systems(col, CARE_MODE)
        Y = col.blocks[0]
        W = inv.artifacts.W
        np.testing.assert_allclose(inv.artifacts.Wtilde,
                                   W + W @ Y.T @ Y @ W, atol=1e-10)

    def test_rejects_upper_spec(self):
        spec = BlockToeplitzSpec(np.zeros((2, 1, 1)), "upper")
        with pytest.raises(DimensionMismatch):
            solve_sweep_systems(spec, CARE_MODE)

    def test_rejects_unknown_mode(self):
        col = BlockToeplitzSpec(np.zeros((2, 1, 1)), LOWER)
        with pytest.raises(ValueError):
            solve_sweep_systems(col, "dre")


class TestTriangularFactor:
    @pytest.mark.parametrize("mode", [DARE_MODE, CARE_MODE])
    @pytest.mark.parametrize("t,p1,p2", [(7, 3, 1), (9, 2, 2), (6, 1, 3)])
    def test_gram_is_dense_inverse(self, mode, t, p1, p2):
        rng = np.random.default_rng(12)
        if mode == DARE_MODE:
            col = dare_col(rng, t, p1, p2)
            M = dense_gram(BlockToeplitzSpec(col.blocks[1:], LOWER))
        else:
            col = care_col(rng, t, p1, p2)
            M = dense_gram(col)
        inv = solve_sweep_systems(col, mode)
        assert inv.R.shape == M.shape
        assert np.array_equal(inv.R, np.triu(inv.R))
        Minv = np.linalg.inv(M)
        assert np.linalg.norm(inv.R.T @ inv.R - Minv) <= 1e-10 * np.linalg.norm(Minv)


class TestDisplacement:
    def test_identity_residue(self):
        res = displacement_residue(np.eye(3), 1, PLUS)
        np.testing.assert_allclose(res, np.diag([1.0, 0.0, 0.0]))
        assert displacement_rank(np.eye(3), 1, PLUS) == 1

    def test_lower_product_has_unit_displacement(self):
        col = np.array([1.0, 2.0, 3.0]).reshape(3, 1)
        R = gs_reconstruct(col, col, PLUS)
        np.testing.assert_allclose(R, [[1, 2, 3], [2, 5, 8], [3, 8, 14]])
        res = displacement_residue(R, 1, PLUS)
        np.testing.assert_allclose(res, col @ col.T)
        assert displacement_rank(R, 1, PLUS) == 1

    def test_identity_generator(self):
        e1 = np.array([[1.0], [0.0], [0.0]])
        np.testing.assert_allclose(gs_reconstruct(e1, e1, PLUS), np.eye(3))

    def test_rank_matches_svd_oracle(self):
        rng = np.random.default_rng(9)
        R = rng.standard_normal((8, 8))
        res = displacement_residue(R, 1, PLUS)
        sv = np.linalg.svd(res, compute_uv=False)
        expected = int(np.sum(sv > 1e-10 * sv[0]))
        assert displacement_rank(R, 1, PLUS) == expected

    def test_minus_sign_residue(self):
        rng = np.random.default_rng(10)
        col = rng.standard_normal((4, 2))
        R = gs_reconstruct(col, col, MINUS)
        res = displacement_residue(R, 2, MINUS)
        # upper-times-upper-transpose: shifted difference leaves the outer
        # product of the defining column
        sv = np.linalg.svd(res, compute_uv=False)
        assert int(np.sum(sv > 1e-10 * sv[0])) <= 2

    def test_block_rank_rounds_up(self):
        rng = np.random.default_rng(11)
        col = rng.standard_normal((6, 2))
        R = gs_reconstruct(col, col, PLUS)
        assert displacement_rank(R, 2, PLUS) == 1

    def test_bad_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            displacement_residue(np.zeros((3, 4)), 1, PLUS)
        with pytest.raises(DimensionMismatch):
            displacement_residue(np.zeros((3, 3)), 2, PLUS)
        with pytest.raises(ValueError):
            displacement_residue(np.eye(2), 1, "abs")
        with pytest.raises(DimensionMismatch):
            gs_reconstruct(np.zeros((4, 1)), np.zeros((4, 2)), PLUS)
