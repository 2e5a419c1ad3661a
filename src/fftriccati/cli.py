"""Batch front end: load Matrix Market problem data, solve, emit artifacts.

A run reads a JSON config (flags override individual keys), executes the
configured DARE/CARE solve, and writes three files into the output
directory: ``factor.mtx`` (the final low-rank factor, array format),
``summary.json`` and ``trace.csv`` with one row per outer round.

Exit codes: 0 converged, 1 input error, 2 no convergence, 3 numerical
failure inside the solve (PCG, overflow guard, Cholesky, shift ...); codes 2
and 3 still write the summary, with the failure named in its note.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

from .care import fta_care_solve
from .dare import RiccatiProblem, fta_dare_solve
from .errors import (DimensionMismatch, FftRiccatiError, NoConvergence,
                     ParseError)

_DEFAULTS = {
    "equation": None,
    "a": None,
    "b": None,
    "c": None,
    "gamma0": None,
    "shift_decay": 1.01,
    "t": 32,
    "tau": 1e-12,
    "stop_tol": 1e-8,
    "max_rounds": 40,
    "out_dir": ".",
}


def _read_matrix(path, what):
    try:
        M = scipy.io.mmread(path)
    except OSError as exc:
        raise ParseError("%s: cannot read %s: %s" % (what, path, exc)) from exc
    except ValueError as exc:
        raise ParseError("%s: malformed Matrix Market file %s: %s"
                         % (what, path, exc)) from exc
    return M


def load_config(args):
    cfg = dict(_DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ParseError("cannot read config %s: %s" % (args.config, exc)) from exc
        except json.JSONDecodeError as exc:
            raise ParseError("config %s: line %d column %d: %s"
                             % (args.config, exc.lineno, exc.colno, exc.msg)) from exc
        unknown = set(user) - set(cfg)
        if unknown:
            raise ParseError("config keys not recognized: %s" % ", ".join(sorted(unknown)))
        cfg.update(user)
    for key in ("equation", "gamma0", "t", "stop_tol", "max_rounds", "out_dir"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["equation"] not in ("dare", "care"):
        raise ParseError("equation must be 'dare' or 'care'")
    for key in ("a", "b", "c"):
        if not cfg[key]:
            raise ParseError("missing input path %r" % key)
    return cfg


def _dense(path, what):
    M = _read_matrix(path, what)
    if scipy.sparse.issparse(M):
        M = M.toarray()
    return np.atleast_2d(np.asarray(M, dtype=float))


def load_problem(cfg):
    A = _read_matrix(cfg["a"], "A")
    A = A.tocsr() if scipy.sparse.issparse(A) else np.asarray(A, dtype=float)
    B = _dense(cfg["b"], "B")
    C = _dense(cfg["c"], "C")
    return RiccatiProblem(A, B, C)


def _write_outputs(out_dir, equation, factor, history, converged, total_ms, note=""):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    S = factor.S if factor is not None and factor.S.size else np.zeros((1, 1))
    scipy.io.mmwrite(out / "factor.mtx", S)
    with open(out / "trace.csv", "w") as fh:
        fh.write("round,t,gamma,nres,rank,ms\n")
        for rec in history:
            fh.write("%d,%d,%r,%r,%d,%r\n"
                     % (rec.round, rec.t, rec.gamma, rec.nres, rec.rank, rec.ms))
    summary = {
        "equation": equation,
        "converged": bool(converged),
        "rounds": len(history),
        "final_nres": history[-1].nres if history else 0.0,
        "final_rank": factor.r if factor is not None else 0,
        "total_time_ms": total_ms,
        "note": note,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def run(cfg):
    """Execute one configured solve; returns the process exit code."""
    problem = load_problem(cfg)
    tic = time.perf_counter()
    note, failure_code = "", 2
    try:
        if cfg["equation"] == "care":
            result = fta_care_solve(
                problem, gamma0=cfg["gamma0"], t_per_round=int(cfg["t"]),
                shift_decay=float(cfg["shift_decay"]), tau=float(cfg["tau"]),
                stop=float(cfg["stop_tol"]), max_rounds=int(cfg["max_rounds"]))
            factor, history, converged = result.factor, result.history, result.converged
            note = result.note
        else:
            factor, history = fta_dare_solve(
                problem, t_per_restart=int(cfg["t"]), tau=float(cfg["tau"]),
                stop=float(cfg["stop_tol"]), max_restarts=int(cfg["max_rounds"]))
            converged = True
    except NoConvergence as exc:
        factor, history, converged = exc.factor, exc.history or [], False
        note = str(exc)
    except DimensionMismatch:
        raise
    except FftRiccatiError as exc:
        factor, history, converged, failure_code = None, [], False, 3
        note = "%s: %s" % (type(exc).__name__, exc)
    total_ms = 1000.0 * (time.perf_counter() - tic)
    _write_outputs(cfg["out_dir"], cfg["equation"], factor, history, converged,
                   total_ms, note)
    return 0 if converged else failure_code


def generate_synthetic(kind, n, m, l, seed, out_dir):
    """Write a synthetic (A, B, C) problem as a.mtx / b.mtx / c.mtx."""
    if n < 4:
        raise ValueError("n must be >= 4")
    rng = np.random.default_rng(seed)
    if kind == "laplacian1d_stable":
        A = scipy.sparse.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                               [-1, 0, 1], format="coo")
    elif kind == "laplacian1d_antistable":
        A = -scipy.sparse.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                                [-1, 0, 1], format="coo")
    elif kind == "random_sparse":
        nnz = 5 * n
        rows = rng.integers(0, n, size=nnz)
        cols = rng.integers(0, n, size=nnz)
        vals = rng.standard_normal(nnz)
        R = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        R.sum_duplicates()
        shift = float(np.abs(R).sum(axis=1).max()) + 1.0
        A = (R - shift * scipy.sparse.identity(n, format="csr")).tocoo()
    else:
        raise ValueError("unknown kind %r" % kind)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((l, n))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scipy.io.mmwrite(out / "a.mtx", A)
    scipy.io.mmwrite(out / "b.mtx", B)
    scipy.io.mmwrite(out / "c.mtx", C)
    return out / "a.mtx", out / "b.mtx", out / "c.mtx"


def _build_parser():
    parser = argparse.ArgumentParser(prog="fftriccati",
                                     description="Low-rank Riccati batch solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a configured problem")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--equation", choices=["dare", "care"])
    p_run.add_argument("--gamma0", type=float)
    p_run.add_argument("--t", type=int)
    p_run.add_argument("--stop-tol", dest="stop_tol", type=float)
    p_run.add_argument("--max-rounds", dest="max_rounds", type=int)
    p_run.add_argument("--out-dir", dest="out_dir")

    p_gen = sub.add_parser("gen", help="write a synthetic problem")
    p_gen.add_argument("--kind", required=True,
                       choices=["laplacian1d_stable", "laplacian1d_antistable",
                                "random_sparse"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, default=1)
    p_gen.add_argument("--l", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-dir", dest="out_dir", default=".")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            generate_synthetic(args.kind, args.n, args.m, args.l, args.seed,
                               args.out_dir)
            return 0
        cfg = load_config(args)
        return run(cfg)
    except (FftRiccatiError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
