"""Structured inverse of I + TT'."""

import numpy as np
import pytest

from fftriccati import toeplitz_inverse
from fftriccati.errors import DimensionMismatch, PcgFailure
from fftriccati.pcg import GramOperator, PcgResult, choose_preconditioner, pcg_solve
from fftriccati.toeplitz import BlockToeplitzSpec, densify
from fftriccati.toeplitz_inverse import solve_sweep_systems


def zero_corner_col(rng, t, p1, p2):
    col = rng.standard_normal((t, p1, p2))
    col[0] = 0.0  # strictly lower column: zero corner block
    return BlockToeplitzSpec(col)


def inner_col(rng, t, p1, p2):
    """Inner column of a t-step DARE sweep: t - 1 blocks, nonzero diagonal."""
    return BlockToeplitzSpec(rng.standard_normal((t, p1, p2))[1:])


def care_col(rng, t, p1, p2):
    return BlockToeplitzSpec(rng.standard_normal((t, p1, p2)))


# test ids name the sweep; a zero corner reduces the full system to the strict one
COLUMNS = {"dare": inner_col, "care": care_col, "zero_corner": zero_corner_col}


def dense_gram(spec):
    T = densify(spec)
    return np.eye(T.shape[0]) + T @ T.T


class TestDareMode:
    """The formula on a DARE sweep's inner (t - 1)-block column."""

    def test_inverse_identity_action(self):
        rng = np.random.default_rng(1)
        for t, p1, p2 in ((2, 1, 1), (5, 2, 1), (9, 1, 3), (17, 2, 2), (33, 3, 2)):
            col = inner_col(rng, t, p1, p2)
            inv = solve_sweep_systems(col)
            M = dense_gram(col)
            V = rng.standard_normal((p1 * (t - 1), 3))
            out = inv.apply_inverse(V)
            assert np.linalg.norm(M @ out - V) <= 1e-9 * np.linalg.norm(V)

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(2)
        col = inner_col(rng, 12, 2, 1)
        inv = solve_sweep_systems(col)
        M = dense_gram(col)
        V = rng.standard_normal((2 * 11, 4))
        xi = inv.apply(V)
        lhs = xi.T @ xi
        rhs = V.T @ np.linalg.solve(M, V)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


class TestCareMode:
    """The formula on a CARE column [Y; D]; the test that takes an inner
    column checks the same body on a DARE sweep's column."""

    def test_inverse_identity_action_full_system(self):
        rng = np.random.default_rng(4)
        for t, p1, p2 in ((1, 2, 1), (2, 1, 1), (8, 2, 2), (16, 1, 2), (33, 2, 1)):
            col = care_col(rng, t, p1, p2)
            inv = solve_sweep_systems(col)
            M = dense_gram(col)
            V = rng.standard_normal((p1 * t, 3))
            out = inv.apply_inverse(V)
            assert np.linalg.norm(M @ out - V) <= 1e-9 * np.linalg.norm(V)

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(5)
        col = care_col(rng, 16, 2, 1)
        inv = solve_sweep_systems(col)
        M = dense_gram(col)
        V = rng.standard_normal((32, 5))
        xi = inv.apply(V)
        lhs = xi.T @ xi
        rhs = V.T @ np.linalg.solve(M, V)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_zero_input(self):
        rng = np.random.default_rng(3)
        inv = solve_sweep_systems(inner_col(rng, 4, 2, 2))
        xi = inv.apply(np.zeros((6, 2)))
        assert np.linalg.norm(xi) == 0.0

    @pytest.mark.parametrize("rows", [5, 7])
    def test_apply_checks_row_count(self, rows):
        inv = solve_sweep_systems(inner_col(np.random.default_rng(3), 4, 2, 2))
        with pytest.raises(DimensionMismatch, match="V has %d rows, inverse acts on 6" % rows):
            inv.apply(np.zeros((rows, 2)))


class TestTriangularFactor:
    @pytest.mark.parametrize("kind", list(COLUMNS))
    @pytest.mark.parametrize("t,p1,p2", [(7, 3, 1), (9, 2, 2), (6, 1, 3)])
    def test_gram_is_dense_inverse(self, kind, t, p1, p2):
        rng = np.random.default_rng(12)
        col = COLUMNS[kind](rng, t, p1, p2)
        M = dense_gram(col)
        inv = solve_sweep_systems(col)
        assert inv.R.shape == M.shape
        assert np.array_equal(inv.R, np.triu(inv.R))
        Minv = np.linalg.inv(M)
        assert np.linalg.norm(inv.R.T @ inv.R - Minv) <= 1e-10 * np.linalg.norm(Minv)


def test_nan_pcg_residual_is_pcg_failure(monkeypatch):
    """NaN compares False with the floor; it must count as a missed column."""
    def nan_pcg(op, precond, rhs, rel_tol, max_iter):
        cols = rhs.shape[1]
        return PcgResult(np.full(rhs.shape, np.nan), np.ones(cols, int),
                         np.full(cols, np.nan), np.zeros(cols, bool))

    monkeypatch.setattr(toeplitz_inverse, "pcg_solve", nan_pcg)
    with pytest.raises(PcgFailure, match="worst rel. residual nan"):
        solve_sweep_systems(care_col(np.random.default_rng(0), 4, 2, 2))


def test_gram_solve_stops_at_first_missed_column(monkeypatch):
    calls = []

    def missing_pcg(op, precond, rhs, rel_tol, max_iter):
        cols = rhs.shape[1]
        calls.append(cols)
        return PcgResult(np.zeros(rhs.shape), np.ones(cols, int), np.ones(cols),
                         np.zeros(cols, bool))

    monkeypatch.setattr(toeplitz_inverse, "pcg_solve", missing_pcg)
    with pytest.raises(PcgFailure, match="column 1 of 2 "):
        solve_sweep_systems(care_col(np.random.default_rng(0), 4, 2, 2))
    assert calls == [1]


def test_passing_gram_solve_equals_one_call_over_all_columns():
    """Solving column by column changes no bit of a solve that passes."""
    spec = care_col(np.random.default_rng(7), 16, 2, 2)
    op, precond = GramOperator(spec), choose_preconditioner(spec)
    rhs = np.random.default_rng(8).standard_normal((op.dim, 3))
    kappa = 1.0 + spec.t * float(np.sum(spec.blocks * spec.blocks))
    whole = pcg_solve(op, precond, rhs, rel_tol=1e-12, max_iter=50 * op.dim)
    assert np.array_equal(toeplitz_inverse._solve_spd(op, precond, rhs, kappa), whole.x)
