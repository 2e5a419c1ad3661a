"""Preconditioned conjugate gradient and preconditioner tests."""

import numpy as np
import pytest

from fftriccati.errors import BreakdownNonSpd, DimensionMismatch
from fftriccati.pcg import (BlockCirculantPreconditioner, GramOperator,
                            IdentityPreconditioner, TrailingGramOperator,
                            choose_preconditioner, pcg_solve)
from fftriccati.toeplitz import BlockToeplitzSpec, densify


class _DenseOp:
    def __init__(self, M):
        self.M = np.asarray(M, dtype=float)
        self.dim = self.M.shape[0]

    def apply(self, X):
        return self.M @ X


class TestSolve:
    def test_settings_validated(self):
        op, b = _DenseOp(np.eye(2)), np.ones((2, 1))
        for bad in (dict(rel_tol=0.0), dict(rel_tol=2.0), dict(max_iter=0)):
            with pytest.raises(ValueError):
                pcg_solve(op, IdentityPreconditioner(), b, **bad)

    def test_identity_operator_one_iteration(self):
        b = np.array([[3.0], [-1.0], [2.0]])
        res = pcg_solve(_DenseOp(np.eye(3)), IdentityPreconditioner(), b)
        np.testing.assert_allclose(res.x, b, atol=1e-14)
        assert res.iterations.max() == 1
        assert res.all_converged

    def test_diagonal_solve(self):
        res = pcg_solve(_DenseOp(np.diag([1.0, 2.0])), IdentityPreconditioner(),
                        np.array([[1.0], [2.0]]))
        np.testing.assert_allclose(res.x.ravel(), [1.0, 1.0], atol=1e-13)

    def test_gram_system_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        spec = BlockToeplitzSpec(rng.standard_normal((16, 3, 2)))
        op = GramOperator(spec)
        assert op.dim == 48
        b = rng.standard_normal((48, 4))
        res = pcg_solve(op, IdentityPreconditioner(), b,
                        rel_tol=1e-13, max_iter=500)
        T = densify(spec)
        dense = np.linalg.solve(np.eye(48) + T @ T.T, b)
        assert np.linalg.norm(res.x - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_exact_termination_within_dimension(self):
        rng = np.random.default_rng(1)
        spec = BlockToeplitzSpec(rng.standard_normal((8, 2, 2)))
        op = GramOperator(spec)  # dim 16, SPD
        b = rng.standard_normal((16, 1))
        res = pcg_solve(op, IdentityPreconditioner(), b,
                        rel_tol=1e-13, max_iter=64)
        assert res.all_converged
        assert res.iterations.max() <= 2 * op.dim

    def test_zero_rhs_column(self):
        res = pcg_solve(_DenseOp(np.eye(2)), IdentityPreconditioner(),
                        np.zeros((2, 1)))
        np.testing.assert_allclose(res.x, 0.0)
        assert res.all_converged

    def test_reported_residual_matches_recomputation(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((10, 10))
        op = _DenseOp(np.eye(10) + M @ M.T)
        b = rng.standard_normal((10, 2))
        res = pcg_solve(op, IdentityPreconditioner(), b,
                        rel_tol=1e-10, max_iter=200)
        for j in range(2):
            rel = np.linalg.norm(b[:, j:j + 1] - op.apply(res.x[:, j:j + 1])) \
                / np.linalg.norm(b[:, j:j + 1])
            assert abs(rel - res.residuals[j]) <= 1e-13

    def test_column_order_independent(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((12, 12))
        op = _DenseOp(np.eye(12) + M @ M.T)
        b = rng.standard_normal((12, 3))
        res = pcg_solve(op, IdentityPreconditioner(), b)
        flipped = pcg_solve(op, IdentityPreconditioner(), b[:, ::-1])
        np.testing.assert_allclose(res.x, flipped.x[:, ::-1])

    def test_non_spd_breakdown(self):
        with pytest.raises(BreakdownNonSpd):
            pcg_solve(_DenseOp(np.diag([1.0, -1.0])), IdentityPreconditioner(),
                      np.array([[0.0], [1.0]]))

    def test_iteration_cap_is_soft(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((30, 30))
        op = _DenseOp(np.eye(30) + M @ M.T)
        b = rng.standard_normal((30, 1))
        res = pcg_solve(op, IdentityPreconditioner(), b,
                        rel_tol=1e-13, max_iter=2)
        assert not res.all_converged
        assert np.all(np.isfinite(res.x))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pcg_solve(_DenseOp(np.eye(3)), IdentityPreconditioner(), np.zeros((4, 1)))


class TestTrailingOperator:
    def test_matches_dense_principal_submatrix(self):
        rng = np.random.default_rng(5)
        spec = BlockToeplitzSpec(rng.standard_normal((6, 2, 3)))
        T = densify(spec)
        full = np.eye(12) + T @ T.T
        trail = TrailingGramOperator(spec)
        assert trail.dim == 10
        X = rng.standard_normal((10, 2))
        np.testing.assert_allclose(trail.apply(X), full[2:, 2:] @ X, atol=1e-12)

    def test_needs_two_blocks(self):
        with pytest.raises(DimensionMismatch):
            TrailingGramOperator(BlockToeplitzSpec(np.zeros((1, 2, 2))))


class TestPreconditioner:
    def test_zero_column_gives_identity_action(self):
        spec = BlockToeplitzSpec(np.zeros((8, 2, 2)))
        pre = BlockCirculantPreconditioner(spec)
        X = np.arange(32.0).reshape(16, 2)
        np.testing.assert_allclose(pre.solve(X), X, atol=1e-12)

    def test_exact_for_identity_kernel(self):
        # scalar blocks [1,0,...]: the circulant completion equals the matrix
        blocks = np.zeros((16, 1, 1))
        blocks[0, 0, 0] = 1.0
        spec = BlockToeplitzSpec(blocks)
        pre = BlockCirculantPreconditioner(spec)
        rng = np.random.default_rng(6)
        b = rng.standard_normal((16, 1))
        res = pcg_solve(GramOperator(spec), pre, b, rel_tol=1e-12)
        assert res.iterations.max() <= 2

    def test_spd_application(self):
        rng = np.random.default_rng(7)
        spec = BlockToeplitzSpec(rng.standard_normal((8, 2, 2)))
        pre = BlockCirculantPreconditioner(spec)
        P = pre.solve(np.eye(16))
        np.testing.assert_allclose(P, P.T, atol=1e-12)
        assert np.linalg.eigvalsh(0.5 * (P + P.T)).min() > 0.0

    def test_reduces_iterations_on_decaying_columns(self):
        # geometrically decaying columns: the regime produced by stable systems
        wins = 0
        decay = (0.6 ** np.arange(32))[:, None, None]
        for seed in range(50):
            rng = np.random.default_rng(seed)
            spec = BlockToeplitzSpec(rng.standard_normal((32, 1, 1)) * decay)
            b = rng.standard_normal((32, 1))
            plain = pcg_solve(GramOperator(spec), IdentityPreconditioner(), b,
                              rel_tol=1e-10, max_iter=400)
            pre = BlockCirculantPreconditioner(spec)
            fast = pcg_solve(GramOperator(spec), pre, b, rel_tol=1e-10, max_iter=400)
            assert fast.all_converged
            if fast.iterations.max() <= plain.iterations.max():
                wins += 1
        assert wins >= 45

    def test_choose_by_size(self):
        rng = np.random.default_rng(8)
        small = BlockToeplitzSpec(rng.standard_normal((8, 1, 1)))
        large = BlockToeplitzSpec(rng.standard_normal((32, 1, 1)))
        assert isinstance(choose_preconditioner(small), IdentityPreconditioner)
        assert isinstance(choose_preconditioner(large), BlockCirculantPreconditioner)
