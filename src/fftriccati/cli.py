"""Batch front end: load Matrix Market problem data, solve, emit artifacts.

A run reads a JSON config (flags override individual keys), executes the
configured DARE/CARE solve, and writes three files into the output
directory: ``factor.mtx`` (the final low-rank factor S, array format, with
X ~ S'S; a run without factor rows writes one zero row of length n),
``summary.json`` and ``trace.csv`` with one row per outer round.

Exit codes: 0 converged, 1 input error, 2 no convergence, 3 numerical
failure inside the solve (PCG, overflow guard, Cholesky, shift ...); codes 2
and 3 still write the summary, with the failure named in its note.  A failed
run that recorded no round writes ``final_nres: null``; a converged zero-RHS
solve (no round either) writes 0.0.
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
from .dare import RiccatiProblem, SolveResult, fta_dare_solve
from .errors import FftRiccatiError, NoConvergence, ParseError

_NUMBER = (int, float)
# key: (default, accepted types, description); bool is rejected although it is an int
_KEYS = {
    "equation": (None, str, "a string"),
    "a": (None, str, "a string"),
    "b": (None, str, "a string"),
    "c": (None, str, "a string"),
    "gamma0": (None, _NUMBER + (type(None),), "a number or null"),
    "shift_decay": (1.01, _NUMBER, "a number"),
    "t": (32, int, "an integer"),
    "tau": (1e-12, _NUMBER, "a number"),
    "stop_tol": (1e-8, _NUMBER, "a number"),
    "max_rounds": (40, int, "an integer"),
    "out_dir": (".", str, "a string"),
}


def _read_matrix(path, what):
    """The matrix of a Matrix Market file.  A header with a zero dimension is
    refused before ``mmread``, which dies of SIGFPE on a 0-row array file."""
    try:
        rows, cols = scipy.io.mminfo(path)[:2]
        if rows == 0 or cols == 0:
            raise ParseError("%s: %s is %d x %d; it needs at least one row and one column"
                             % (what, path, rows, cols))
        M = scipy.io.mmread(path)
    except OSError as exc:
        raise ParseError("%s: cannot read %s: %s" % (what, path, exc)) from exc
    except ValueError as exc:
        raise ParseError("%s: malformed Matrix Market file %s: %s"
                         % (what, path, exc)) from exc
    return M


def _remove_artifacts(out_dir):
    for name in ("summary.json", "trace.csv", "factor.mtx"):
        Path(out_dir, name).unlink(missing_ok=True)


def load_config(args):
    """The run's config; once its out_dir is known, before any other check,
    an earlier run's artifacts there are deleted, so an input error (exit 1)
    does not leave them looking current.  ``--out-dir`` is known before the
    config file is read, so an unreadable or malformed file is covered too."""
    if args.out_dir is not None:
        _remove_artifacts(args.out_dir)
    cfg = {key: default for key, (default, _, _) in _KEYS.items()}
    user = {}
    if args.config:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ParseError("cannot read config %s: %s" % (args.config, exc)) from exc
        except json.JSONDecodeError as exc:
            raise ParseError("config %s: line %d column %d: %s"
                             % (args.config, exc.lineno, exc.colno, exc.msg)) from exc
        if not isinstance(user, dict):
            raise ParseError("config %s must be a JSON object, got %s"
                             % (args.config, type(user).__name__))
        cfg.update(user)
    named = set(user)  # keys set by the config or a flag
    for key in ("equation", "gamma0", "t", "stop_tol", "max_rounds", "out_dir"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
            named.add(key)
    if isinstance(cfg["out_dir"], str):
        _remove_artifacts(cfg["out_dir"])
    unknown = set(user) - set(_KEYS)
    if unknown:
        raise ParseError("config keys not recognized: %s" % ", ".join(sorted(unknown)))
    if cfg["equation"] not in ("dare", "care"):
        raise ParseError("equation must be 'dare' or 'care'")
    care_only = sorted(named & {"gamma0", "shift_decay"})
    if cfg["equation"] == "dare" and care_only:
        raise ParseError("config keys not used by a DARE run: %s" % ", ".join(care_only))
    for key in ("a", "b", "c"):
        if not cfg[key]:
            raise ParseError("missing input path %r" % key)
    for key, (_, kinds, what) in _KEYS.items():
        val = cfg[key]
        if isinstance(val, bool) or not isinstance(val, kinds):
            raise ParseError("%s must be %s, got %s" % (key, what, json.dumps(val)))
    return cfg


def load_problem(cfg):
    """RiccatiProblem of the config's Matrix Market files; it picks the storage."""
    return RiccatiProblem(*(_read_matrix(cfg[key], key.upper()) for key in "abc"))


def _write_outputs(out_dir, equation, n, result, total_ms):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    factor, history = result
    # one zero row keeps S'S n x n; mmwrite of a 0 x n array is not safe
    S = factor.S if factor is not None and factor.S.size else np.zeros((1, n))
    scipy.io.mmwrite(out / "factor.mtx", S)
    with open(out / "trace.csv", "w") as fh:
        fh.write("round,t,gamma,nres,rank,ms\n")
        for rec in history:
            fh.write("%d,%d,%r,%r,%d,%r\n"
                     % (rec.round, rec.t, rec.gamma, rec.nres, rec.rank, rec.ms))
    summary = {
        "equation": equation,
        "converged": result.converged,
        "rounds": len(history),
        "final_nres": history[-1].nres if history else (0.0 if result.converged else None),
        "final_rank": factor.r if factor is not None else 0,
        "total_time_ms": total_ms,
        "note": result.note,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def run(cfg):
    """Execute one configured solve; returns the process exit code."""
    problem = load_problem(cfg)
    tic = time.perf_counter()
    failure_code = 2
    try:
        if cfg["equation"] == "care":
            result = fta_care_solve(
                problem, gamma0=cfg["gamma0"], t_per_round=int(cfg["t"]),
                shift_decay=float(cfg["shift_decay"]), tau=float(cfg["tau"]),
                stop=float(cfg["stop_tol"]), max_rounds=int(cfg["max_rounds"]))
        else:
            result = fta_dare_solve(
                problem, t_per_restart=int(cfg["t"]), tau=float(cfg["tau"]),
                stop=float(cfg["stop_tol"]), max_restarts=int(cfg["max_rounds"]))
    except NoConvergence as exc:
        result = SolveResult(exc.factor, exc.history or [], False, str(exc))
    except FftRiccatiError as exc:
        result = SolveResult(None, [], False, "%s: %s" % (type(exc).__name__, exc))
        failure_code = 3
    total_ms = 1000.0 * (time.perf_counter() - tic)
    _write_outputs(cfg["out_dir"], cfg["equation"], problem.n, result, total_ms)
    return 0 if result.converged else failure_code


def generate_synthetic(kind, n, m, l, seed, out_dir):
    """Write a synthetic (A, B, C) problem as a.mtx / b.mtx / c.mtx."""
    if n < 4:
        raise ValueError("n must be >= 4")
    if m < 1 or l < 1:
        raise ValueError("m and l must be >= 1")
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
