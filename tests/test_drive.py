"""The outer loop both Riccati solvers share: one result type, one round frame."""

import gc
import weakref

import numpy as np
import pytest

from fftriccati import SolveResult, care, dare
from fftriccati.care import fta_care_solve
from fftriccati.dare import LowRankFactor, RiccatiProblem, _drive, fta_dare_solve
from fftriccati.errors import NoConvergence

from oracles import random_care_instance, random_dare_instance

EQUATIONS = pytest.mark.parametrize("equation", ["care", "dare"])
INSTANCES = {"care": lambda: random_care_instance(8, 12, 1, 1),
             "dare": lambda: random_dare_instance(10, 12, 1, 1)}


def solve(equation, P, t=8, stop=1e-10, cap=20):
    if equation == "care":
        return fta_care_solve(P, gamma0=1.0, t_per_round=t, stop=stop, max_rounds=cap)
    return fta_dare_solve(P, t_per_restart=t, stop=stop, max_restarts=cap)


class TestSolveResult:
    @EQUATIONS
    def test_both_solvers_return_one_type_unpacking_as_pair(self, equation):
        result = solve(equation, RiccatiProblem(*INSTANCES[equation]()))
        assert type(result) is SolveResult
        assert result.converged and result.note == ""
        factor, history = result
        assert factor is result.factor and history is result.history

    @EQUATIONS
    def test_zero_rhs_carries_note(self, equation):
        P = RiccatiProblem(-0.5 * np.eye(3), np.ones((3, 1)), np.zeros((1, 3)))
        result = solve(equation, P)
        assert result.converged and result.factor.r == 0 and result.history == []
        assert result.note == "zero right-hand side (ZeroRhs)"


class TestSettingsCheckedFirst:
    @EQUATIONS
    @pytest.mark.parametrize("zero_c", [False, True], ids=["c", "zero-c"])
    @pytest.mark.parametrize("t,tau", [(8, 2.0), (8, -1.0), (8, float("nan")), (0, 1e-12),
                                       (2.5, 1e-12)],
                             ids=["tau2", "tau-1", "tau-nan", "t0", "t2.5"])
    def test_bad_t_or_tau_raises_before_any_work(self, monkeypatch, equation, zero_c,
                                                 t, tau):
        calls = []
        monkeypatch.setattr(care, "cayley_transform", lambda *a: calls.append(a))
        monkeypatch.setattr(dare, "build_krylov_stack", lambda *a: calls.append(a))
        A, B, C = INSTANCES[equation]()
        P = RiccatiProblem(A, B, 0.0 * C if zero_c else C)
        with pytest.raises(ValueError, match="^(t|tau) must"):
            if equation == "care":
                fta_care_solve(P, gamma0=1.0, t_per_round=t, tau=tau)
            else:
                fta_dare_solve(P, t_per_restart=t, tau=tau)
        assert calls == []


class TestRecords:
    @EQUATIONS
    @pytest.mark.parametrize("capped", [False, True], ids=["converged", "capped"])
    def test_records_numbered_and_timed(self, equation, capped):
        P = RiccatiProblem(*INSTANCES[equation]())
        t = 1 if capped else 8
        if capped:
            with pytest.raises(NoConvergence) as exc:
                solve(equation, P, t=t, stop=1e-14, cap=2)
            history = exc.value.history
        else:
            history = solve(equation, P, t=t).history
        assert [rec.round for rec in history] == list(range(1, len(history) + 1))
        assert len(history) == 2 or not capped
        for rec in history:
            assert rec.ms >= 0.0 and rec.t == t and rec.rank >= 0


class TestDriver:
    def test_round_factor_released_before_next_round(self):
        refs, alive = [], []

        def rounds():
            while True:
                factor = LowRankFactor(np.ones((1, 1)))
                refs.append(weakref.ref(factor))
                yield factor, dict(t=1, gamma=0.0, nres=1.0, rank=1)
                del factor
                gc.collect()
                alive.append(refs[-1]() is not None)

        P = RiccatiProblem(np.array([[0.5]]), np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(NoConvergence) as exc:
            _drive(P, rounds(), 0.5, 3, "rounds")
        assert alive == [False, False]
        assert exc.value.factor is refs[-1]()
        assert [rec.round for rec in exc.value.history] == [1, 2, 3]
