"""Batch command-line front end: generation, runs, artifacts, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from fftriccati.care import fta_care_solve
from fftriccati.cli import generate_synthetic, main
from fftriccati.residuals import nres_care
from fftriccati.dare import LowRankFactor, RiccatiProblem, fta_dare_solve
from oracles import random_dare_instance


def write_matrices(tmp_path, a, b, c):
    paths = {}
    for name, val in (("a", a), ("b", b), ("c", c)):
        p = tmp_path / ("%s.mtx" % name)
        scipy.io.mmwrite(p, np.atleast_2d(val))
        paths[name] = str(p)
    return paths


def write_scalar_care(tmp_path, a=-1.0, b=1.0, c=1.0):
    return write_matrices(tmp_path, a, b, c)


def write_config(tmp_path, body, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(body))
    return str(p)


class TestGen:
    def test_stable_laplacian_structure(self, tmp_path):
        a, b, c = generate_synthetic("laplacian1d_stable", 4, 1, 1, 0, tmp_path)
        A = scipy.io.mmread(a).tocsr()
        assert A.shape == (4, 4) and A.nnz == 10
        dense = A.toarray()
        assert np.all(np.diag(dense) == -2.0)
        assert np.all(np.diag(dense, 1) == 1.0)
        assert np.linalg.eigvalsh(dense).max() < 0.0

    def test_antistable_is_negated_stable(self, tmp_path):
        a1, _, _ = generate_synthetic("laplacian1d_stable", 6, 1, 1, 0,
                                      tmp_path / "s")
        a2, _, _ = generate_synthetic("laplacian1d_antistable", 6, 1, 1, 0,
                                      tmp_path / "u")
        S = scipy.io.mmread(a1).toarray()
        U = scipy.io.mmread(a2).toarray()
        np.testing.assert_allclose(U, -S)

    def test_random_sparse_is_diagonally_stabilized(self, tmp_path):
        a, b, c = generate_synthetic("random_sparse", 50, 2, 3, 1, tmp_path)
        A = scipy.io.mmread(a).tocsr()
        assert np.linalg.eigvals(A.toarray()).real.max() < 0.0
        assert scipy.io.mmread(b).shape == (50, 2)
        assert scipy.io.mmread(c).shape == (3, 50)

    def test_seed_determinism(self, tmp_path):
        _, b1, _ = generate_synthetic("laplacian1d_stable", 8, 2, 2, 7,
                                      tmp_path / "x")
        _, b2, _ = generate_synthetic("laplacian1d_stable", 8, 2, 2, 7,
                                      tmp_path / "y")
        np.testing.assert_array_equal(scipy.io.mmread(b1), scipy.io.mmread(b2))

    def test_bad_kind_and_size(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            generate_synthetic("hilbert", 8, 1, 1, 0, tmp_path)
        with pytest.raises(ValueError):
            generate_synthetic("laplacian1d_stable", 2, 1, 1, 0, tmp_path)
        for m, l in ((0, 1), (1, 0), (-1, 1)):
            with pytest.raises(ValueError, match="m and l must be >= 1"):
                generate_synthetic("laplacian1d_stable", 8, m, l, 0, tmp_path / "x")
            assert not (tmp_path / "x").exists()
        for flag in ("--m", "--l"):
            assert main(["gen", "--kind", "laplacian1d_stable", "--n", "8", flag, "0",
                         "--out-dir", str(tmp_path / "x")]) == 1
            assert capsys.readouterr().err.count("error:") == 1

    def test_gen_via_main(self, tmp_path):
        rc = main(["gen", "--kind", "laplacian1d_stable", "--n", "8",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "a.mtx").exists()


class TestRun:
    def test_scalar_care_converges(self, tmp_path):
        paths = write_scalar_care(tmp_path)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "equation": "care", "a": paths["a"], "b": paths["b"],
            "c": paths["c"], "gamma0": 1.0, "t": 8, "stop_tol": 1e-10,
            "out_dir": str(out)})
        assert main(["run", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["equation"] == "care"
        S = np.atleast_2d(np.asarray(scipy.io.mmread(out / "factor.mtx")))
        x = float((S.T @ S)[0, 0])
        assert abs(x - (np.sqrt(2.0) - 1.0)) <= 1e-8
        # emitted nres is recomputable from the emitted factor
        P = RiccatiProblem(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        assert abs(summary["final_nres"] - nres_care(LowRankFactor(S), P)) <= 1e-12
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "round,t,gamma,nres,rank,ms"
        assert len(trace) == summary["rounds"] + 1

    def test_loose_stop_takes_one_round(self, tmp_path):
        paths = write_scalar_care(tmp_path)
        out = tmp_path / "one"
        cfg = write_config(tmp_path, {
            "equation": "care", "a": paths["a"], "b": paths["b"],
            "c": paths["c"], "gamma0": 1.0, "t": 8, "stop_tol": 1.0,
            "out_dir": str(out)})
        assert main(["run", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rounds"] == 1

    def test_no_convergence_exit_code(self, tmp_path):
        paths = write_scalar_care(tmp_path)
        out = tmp_path / "nc"
        cfg = write_config(tmp_path, {
            "equation": "care", "a": paths["a"], "b": paths["b"],
            "c": paths["c"], "gamma0": 1.0, "t": 1, "stop_tol": 1e-14,
            "max_rounds": 2, "out_dir": str(out)})
        assert main(["run", "--config", cfg]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False
        assert summary["rounds"] == 2
        assert summary["note"]

    def test_no_convergence_final_nres_recomputable(self, tmp_path):
        # tau = 1e-3 compresses hard, so the residual factor's norm misses the
        # truncation: the summary must carry the exact residual of factor.mtx
        a, b, c = generate_synthetic("laplacian1d_stable", 100, 1, 1, 0, tmp_path)
        out = tmp_path / "nc"
        cfg = write_config(tmp_path, {
            "equation": "care", "a": str(a), "b": str(b), "c": str(c),
            "gamma0": 1.5, "t": 16, "tau": 1e-3, "stop_tol": 1e-8,
            "max_rounds": 8, "out_dir": str(out)})
        assert main(["run", "--config", cfg]) == 2
        summary = json.loads((out / "summary.json").read_text())
        S = np.atleast_2d(np.asarray(scipy.io.mmread(out / "factor.mtx")))
        P = RiccatiProblem(scipy.io.mmread(a).tocsr(), scipy.io.mmread(b),
                           scipy.io.mmread(c))
        assert abs(summary["final_nres"] - nres_care(LowRankFactor(S), P)) <= 1e-12

    def test_dare_run_matches_library(self, tmp_path):
        from oracles import random_dare_instance
        from fftriccati.dare import fta_dare_solve
        A, B, C = random_dare_instance(3, 12, 2, 2)
        for name, M in (("a", A), ("b", B), ("c", C)):
            scipy.io.mmwrite(tmp_path / ("%s.mtx" % name), M)
        out = tmp_path / "dare"
        cfg = write_config(tmp_path, {
            "equation": "dare", "a": str(tmp_path / "a.mtx"),
            "b": str(tmp_path / "b.mtx"), "c": str(tmp_path / "c.mtx"),
            "t": 8, "stop_tol": 1e-10, "out_dir": str(out)})
        assert main(["run", "--config", cfg]) == 0
        S = np.atleast_2d(np.asarray(scipy.io.mmread(out / "factor.mtx")))
        factor, _ = fta_dare_solve(RiccatiProblem(A, B, C), t_per_restart=8,
                                   stop=1e-10)
        np.testing.assert_array_equal(S, factor.S)

    @pytest.mark.parametrize("equation", ["care", "dare"])
    def test_unset_keys_take_library_defaults(self, tmp_path, equation):
        # the config sets t and the CARE's shift only: every other setting must be
        # the solver's own default, so the run is the library call bit for bit
        if equation == "care":
            abc = (np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))
            shift = {"gamma0": 1.0}
            result = fta_care_solve(RiccatiProblem(*abc), gamma0=1.0, t_per_round=2)
        else:
            abc, shift = random_dare_instance(0, 12, 2, 2), {}
            result = fta_dare_solve(RiccatiProblem(*abc), t_per_restart=2)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"equation": equation, "t": 2, "out_dir": str(out),
                                      **shift, **write_matrices(tmp_path, *abc)})
        assert main(["run", "--config", cfg]) == 0
        S = np.atleast_2d(np.asarray(scipy.io.mmread(out / "factor.mtx")))
        np.testing.assert_array_equal(S, result.factor.S)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rounds"] == len(result.history)
        assert summary["final_nres"] == result.history[-1].nres

    def test_flag_overrides_config(self, tmp_path):
        paths = write_scalar_care(tmp_path)
        out = tmp_path / "ov"
        cfg = write_config(tmp_path, {
            "equation": "care", "a": paths["a"], "b": paths["b"],
            "c": paths["c"], "gamma0": 1.0, "t": 8, "stop_tol": 1e-14,
            "out_dir": str(out)})
        # config alone cannot converge at 1e-14; the flag loosens it
        assert main(["run", "--config", cfg, "--stop-tol", "1e-8"]) == 0

    def test_deterministic_trace_modulo_timing(self, tmp_path):
        paths = write_scalar_care(tmp_path)
        rows = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            cfg = write_config(tmp_path, {
                "equation": "care", "a": paths["a"], "b": paths["b"],
                "c": paths["c"], "gamma0": 1.0, "t": 8, "stop_tol": 1e-10,
                "out_dir": str(out)}, name="cfg_%s.json" % tag)
            assert main(["run", "--config", cfg]) == 0
            lines = (out / "trace.csv").read_text().strip().splitlines()
            rows.append([",".join(l.split(",")[:-1]) for l in lines])
        assert rows[0] == rows[1]


class TestNumericalFailure:
    def test_stack_blowup_exits_3_with_summary(self, tmp_path):
        # (1e10)^16 trips the guard; n = 2 shows the shape of the missing factor
        paths = write_matrices(tmp_path, 1e10 * np.eye(2), np.ones((2, 1)),
                               np.ones((1, 2)))
        out = tmp_path / "blowup"
        cfg = write_config(tmp_path, {
            "equation": "dare", "a": paths["a"], "b": paths["b"],
            "c": paths["c"], "t": 32, "out_dir": str(out)})
        assert main(["run", "--config", cfg]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False
        assert "StackBlowup" in summary["note"]
        assert summary["rounds"] == 0
        assert summary["final_nres"] is None  # no round: no residual, not 0.0
        S = np.asarray(scipy.io.mmread(out / "factor.mtx"))
        np.testing.assert_array_equal(S, np.zeros((1, 2)))

    @pytest.mark.parametrize("equation", ["care", "dare"])
    def test_zero_rhs_converges_with_zero_nres(self, tmp_path, equation):
        n = 3
        paths = write_matrices(tmp_path, -0.5 * np.eye(n), np.ones((n, 1)),
                               np.zeros((1, n)))
        out = tmp_path / "zero"
        cfg = write_config(tmp_path, {
            "equation": equation, "a": paths["a"], "b": paths["b"],
            "c": paths["c"], "out_dir": str(out),
            **({"gamma0": 1.0} if equation == "care" else {})})
        assert main(["run", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rounds"] == 0
        assert summary["final_nres"] == 0.0
        assert summary["note"] == "zero right-hand side (ZeroRhs)"
        # no factor rows: one zero row, so that S'S is the n x n zero matrix
        S = np.asarray(scipy.io.mmread(out / "factor.mtx"))
        np.testing.assert_array_equal(S, np.zeros((1, n)))


    def test_nan_in_pcg_exits_3_with_summary(self, tmp_path):
        # -L at n = 50 shifted at its lambda_max: the Gram systems overflow
        a, b, c = generate_synthetic("laplacian1d_antistable", 50, 2, 2, 0, tmp_path)
        out = tmp_path / "nan"
        cfg = write_config(tmp_path, {
            "equation": "care", "a": str(a), "b": str(b), "c": str(c),
            "gamma0": 3.996206657474088, "t": 8, "max_rounds": 3, "out_dir": str(out)})
        with np.errstate(all="ignore"):
            assert main(["run", "--config", cfg]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False and summary["rounds"] == 0


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"equation": "care", "solver": "magic"})
        assert main(["run", "--config", cfg]) == 1
        assert "solver" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("threads", 2), ("seed", 0)])
    def test_removed_run_keys_rejected(self, tmp_path, capsys, key, value):
        paths = write_scalar_care(tmp_path)
        cfg = write_config(tmp_path, {
            "equation": "care", "a": paths["a"], "b": paths["b"],
            "c": paths["c"], key: value, "out_dir": str(tmp_path / "out")})
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config keys not recognized" in err and key in err

    @pytest.mark.parametrize("equation", ["care", "dare"])
    def test_zero_max_rounds_rejected(self, tmp_path, capsys, equation):
        paths = write_scalar_care(tmp_path, a=-0.5)
        cfg = write_config(tmp_path, {
            "equation": equation, "a": paths["a"], "b": paths["b"],
            "c": paths["c"], "out_dir": str(tmp_path / "out")})
        assert main(["run", "--config", cfg, "--max-rounds", "0"]) == 1
        assert "error: max_r" in capsys.readouterr().err

    @pytest.mark.parametrize("stop", [-1.0, float("nan")])
    @pytest.mark.parametrize("equation", ["care", "dare"])
    def test_bad_stop_tol_rejected(self, tmp_path, capsys, equation, stop):
        paths = write_scalar_care(tmp_path, a=-0.5)
        cfg = write_config(tmp_path, {
            "equation": equation, "stop_tol": stop, "out_dir": str(tmp_path / "out"),
            **paths})
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: stop")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,word", [("gamma0", "gamma"),
                                          ("shift_decay", "shift_decay")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_shift_or_decay_rejected(self, tmp_path, capsys, key, word,
                                                value):
        # Python's json writes and reads NaN, Infinity and -Infinity
        paths = write_scalar_care(tmp_path)
        cfg = write_config(tmp_path, {
            "equation": "care", key: value, "out_dir": str(tmp_path / "out"),
            **paths})
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + word)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("equation", ["care", "dare"])
    def test_non_finite_a_rejected(self, tmp_path, capsys, equation):
        paths = write_scalar_care(tmp_path, a=np.nan)
        cfg = write_config(tmp_path, {
            "equation": equation, "a": paths["a"], "b": paths["b"],
            "c": paths["c"], "out_dir": str(tmp_path / "out")})
        assert main(["run", "--config", cfg]) == 1
        assert "A must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("body,flags,named", [
        ({"gamma0": float("nan"), "shift_decay": float("inf")}, [],
         "gamma0, shift_decay"),
        ({"gamma0": None}, [], "gamma0"),
        ({}, ["--gamma0", "1.5"], "gamma0")])
    def test_care_only_keys_rejected_on_dare(self, tmp_path, capsys, body, flags, named):
        paths = write_scalar_care(tmp_path, a=0.5)
        cfg = write_config(tmp_path, {
            "equation": "dare", "out_dir": str(tmp_path / "out"), **paths, **body})
        assert main(["run", "--config", cfg] + flags) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith("not used by a DARE run: " + named)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("equation", ["care", "dare"])
    @pytest.mark.parametrize("key,value", [("tau", 2.0), ("t", 0)])
    def test_bad_setting_rejected_with_zero_rhs(self, tmp_path, capsys, equation,
                                                key, value):
        # C = 0 would converge at once; the setting is still checked first
        paths = write_matrices(tmp_path, -0.5 * np.eye(3), np.ones((3, 1)),
                               np.zeros((1, 3)))
        cfg = write_config(tmp_path, {
            "equation": equation, key: value, "out_dir": str(tmp_path / "out"),
            **paths})
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: %s must" % key)
        assert not (tmp_path / "out").exists()

    # an unknown key, a bad equation, a CARE key on a DARE run (the body sets
    # gamma0) and a string t fail in load_config, before any input is read
    @pytest.mark.parametrize("key,value", [
        ("a", "ghost.mtx"), ("tau", 2.0), ("bogus", 1), ("equation", "ode"),
        ("equation", "dare"), ("t", "8")])
    def test_input_error_removes_earlier_artifacts(self, tmp_path, key, value):
        paths = write_scalar_care(tmp_path)
        out = tmp_path / "out"
        body = {"equation": "care", "gamma0": 1.0, "t": 8, "out_dir": str(out), **paths}
        assert main(["run", "--config", write_config(tmp_path, body)]) == 0
        names = ("summary.json", "trace.csv", "factor.mtx")
        assert all((out / name).exists() for name in names)
        body[key] = str(tmp_path / value) if key == "a" else value
        cfg = write_config(tmp_path, body, name="bad.json")
        assert main(["run", "--config", cfg]) == 1
        assert not any((out / name).exists() for name in names)

    def test_unparsable_config_removes_flag_out_dir_artifacts(self, tmp_path, capsys):
        paths = write_scalar_care(tmp_path)
        out = tmp_path / "out"
        body = {"equation": "care", "gamma0": 1.0, "t": 8, **paths}
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
        assert (out / "summary.json").exists()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body)[:-10])  # truncated
        assert main(["run", "--config", str(bad), "--out-dir", str(out)]) == 1
        assert "line" in capsys.readouterr().err
        assert not any((out / name).exists()
                       for name in ("summary.json", "trace.csv", "factor.mtx"))

    @pytest.mark.parametrize("gamma0", [-5.0, 0.0])
    def test_bad_gamma0_rejected_with_zero_rhs(self, tmp_path, capsys, gamma0):
        # C = 0 would converge at once; the shift is still checked first
        paths = write_matrices(tmp_path, -0.5 * np.eye(3), np.ones((3, 1)),
                               np.zeros((1, 3)))
        cfg = write_config(tmp_path, {
            "equation": "care", "gamma0": gamma0, "out_dir": str(tmp_path / "out"),
            **paths})
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: gamma0 must be positive and finite"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("equation", ["care", "dare"])
    def test_complex_matrix_market_rejected(self, tmp_path, capsys, equation):
        # a "coordinate complex" file reads as a complex128 sparse A
        paths = write_matrices(tmp_path, -np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
        scipy.io.mmwrite(paths["a"], scipy.sparse.coo_matrix(-(1.0 + 0.5j) * np.eye(3)))
        cfg = write_config(tmp_path, {
            "equation": equation, "out_dir": str(tmp_path / "out"), **paths})
        assert main(["run", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: A must be real\n"
        assert not (tmp_path / "out").exists()

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [1, 2])
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "JSON object" in err[0]

    @pytest.mark.parametrize("key,value", [
        ("t", None), ("t", 2.7), ("t", "8"), ("max_rounds", True),
        ("max_rounds", 3.0), ("gamma0", "1.5"), ("gamma0", True),
        ("shift_decay", None), ("tau", [1e-12]), ("stop_tol", "1e-8"),
        ("a", 5), ("c", {"path": "c.mtx"}), ("out_dir", None)])
    def test_config_value_types_checked(self, tmp_path, capsys, key, value):
        paths = write_scalar_care(tmp_path)
        body = {"equation": "care", "out_dir": str(tmp_path / "out"), **paths}
        body[key] = value
        assert main(["run", "--config", write_config(tmp_path, body)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: %s must be " % key)
        assert not (tmp_path / "out").exists()

    def test_list_equation_is_input_error(self, tmp_path, capsys):
        paths = write_scalar_care(tmp_path)
        cfg = write_config(tmp_path, {"equation": ["care"], **paths})
        assert main(["run", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: equation must be 'dare' or 'care'\n"

    def test_missing_equation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"a": "a.mtx", "b": "b.mtx", "c": "c.mtx"})
        assert main(["run", "--config", cfg]) == 1
        assert "equation" in capsys.readouterr().err

    def test_missing_matrix_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"equation": "dare", "a": "a.mtx",
                                      "b": "", "c": "c.mtx"})
        assert main(["run", "--config", cfg]) == 1
        assert "'b'" in capsys.readouterr().err

    def test_unreadable_matrix(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "equation": "dare", "a": str(tmp_path / "ghost.mtx"),
            "b": str(tmp_path / "ghost.mtx"), "c": str(tmp_path / "ghost.mtx")})
        assert main(["run", "--config", cfg]) == 1
        assert "error: A:" in capsys.readouterr().err

    def test_malformed_matrix_market(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("this is not matrix market\n")
        cfg = write_config(tmp_path, {"equation": "dare", "a": str(bad),
                                      "b": str(bad), "c": str(bad)})
        assert main(["run", "--config", cfg]) == 1

    @pytest.mark.parametrize("key,header", [
        ("a", "array real general\n0 0"),
        ("c", "array real general\n0 3"),
        ("c", "coordinate real general\n0 3 0"),
        ("b", "array real general\n3 0"),
    ], ids=["a-0x0", "c-array-0x3", "c-coordinate-0x3", "b-3x0"])
    def test_zero_dimension_matrix_rejected(self, tmp_path, key, header):
        # mmread dies of SIGFPE on a 0-row array file: run the CLI in a child
        # process so that such a crash fails this test instead of the suite
        paths = write_matrices(tmp_path, -np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
        Path(paths[key]).write_text("%%%%MatrixMarket matrix %s\n" % header)
        cfg = write_config(tmp_path, dict(paths, equation="care",
                                          out_dir=str(tmp_path / "out")))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-m", "fftriccati.cli", "run",
                               "--config", cfg], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: %s: " % key.upper())
        assert proc.stderr.count("\n") == 1 and "at least one row" in proc.stderr
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_incompatible_shapes(self, tmp_path, capsys):
        scipy.io.mmwrite(tmp_path / "a.mtx", np.eye(3))
        scipy.io.mmwrite(tmp_path / "b.mtx", np.ones((2, 1)))
        scipy.io.mmwrite(tmp_path / "c.mtx", np.ones((1, 3)))
        cfg = write_config(tmp_path, {
            "equation": "dare", "a": str(tmp_path / "a.mtx"),
            "b": str(tmp_path / "b.mtx"), "c": str(tmp_path / "c.mtx")})
        assert main(["run", "--config", cfg]) == 1
