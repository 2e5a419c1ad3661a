"""Batch front end: load Matrix Market problem data, solve, emit artifacts.

A run reads a JSON config (flags override individual keys), calls the
configured DARE/CARE solver with the keywords ``_KEYS`` maps the set keys to
(an unset key takes the solver's default), and writes three files into the
output directory: ``factor.mtx`` (the final low-rank factor S, array format,
with X ~ S'S; a run without factor rows writes one zero row of length n),
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
from .dare import LowRankFactor, RiccatiProblem, SolveResult, fta_dare_solve
from .errors import FftRiccatiError, NoConvergence, ParseError

_NUMBER = (int, float)
# key: (accepted types, description, fta_care_solve keyword, fta_dare_solve keyword),
# None where a solver has no such setting; bool is rejected although it is an int
_KEYS = {
    "equation": (str, "a string", None, None),
    "a": (str, "a string", None, None),
    "b": (str, "a string", None, None),
    "c": (str, "a string", None, None),
    "gamma0": (_NUMBER + (type(None),), "a number or null", "gamma0", None),
    "shift_decay": (_NUMBER, "a number", "shift_decay", None),
    "t": (int, "an integer", "t_per_round", "t_per_restart"),
    "tau": (_NUMBER, "a number", "tau", "tau"),
    "stop_tol": (_NUMBER, "a number", "stop", "stop"),
    "max_rounds": (int, "an integer", "max_rounds", "max_restarts"),
    "out_dir": (str, "a string", None, None),
}
# equation: (solver, the column of its keywords in _KEYS)
_SOLVERS = {"care": (fta_care_solve, 2), "dare": (fta_dare_solve, 3)}


def _read_matrix(path, what):
    """The matrix of a Matrix Market file.  A header with a zero dimension is
    refused before ``mmread``, which dies of SIGFPE on a 0-row array file."""
    try:
        rows, cols = scipy.io.mminfo(path)[:2]
        if rows == 0 or cols == 0:
            raise ParseError("%s: %s is %d x %d; it needs at least one row and one column"
                             % (what, path, rows, cols))
        return scipy.io.mmread(path)
    except OSError as exc:
        raise ParseError("%s: cannot read %s: %s" % (what, path, exc)) from exc
    except ValueError as exc:
        raise ParseError("%s: malformed Matrix Market file %s: %s"
                         % (what, path, exc)) from exc


def _remove_artifacts(out_dir):
    for name in ("summary.json", "trace.csv", "factor.mtx"):
        Path(out_dir, name).unlink(missing_ok=True)


def load_config(args):
    """The keys the config file or a flag set, and ``out_dir`` (default ".").
    Once out_dir is known, before any other check, an earlier run's artifacts
    there are deleted, so an input error (exit 1) does not leave them looking
    current.  ``--out-dir`` is known before the config file is read, so an
    unreadable or malformed file is covered too."""
    if args.out_dir is not None:
        _remove_artifacts(args.out_dir)
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ParseError("cannot read config %s: %s" % (args.config, exc)) from exc
        except json.JSONDecodeError as exc:
            raise ParseError("config %s: line %d column %d: %s"
                             % (args.config, exc.lineno, exc.colno, exc.msg)) from exc
        if not isinstance(cfg, dict):
            raise ParseError("config %s must be a JSON object, got %s"
                             % (args.config, type(cfg).__name__))
    cfg.update((key, val) for key, val in vars(args).items()
               if key in _KEYS and val is not None)
    out_dir = cfg.setdefault("out_dir", ".")
    if isinstance(out_dir, str):
        _remove_artifacts(out_dir)
    unknown = set(cfg) - set(_KEYS)
    if unknown:
        raise ParseError("config keys not recognized: %s" % ", ".join(sorted(unknown)))
    if cfg.get("equation") not in ("dare", "care"):  # not _SOLVERS: a list is unhashable
        raise ParseError("equation must be 'dare' or 'care'")
    col = _SOLVERS[cfg["equation"]][1]
    # keys another solver takes and this one does not: gamma0, shift_decay on a DARE
    unused = sorted(key for key in cfg if any(_KEYS[key][2:]) and not _KEYS[key][col])
    if unused:
        raise ParseError("config keys not used by a %s run: %s"
                         % (cfg["equation"].upper(), ", ".join(unused)))
    for key in ("a", "b", "c"):
        if not cfg.get(key):
            raise ParseError("missing input path %r" % key)
    for key, (kinds, what, _, _) in _KEYS.items():
        if key in cfg and (isinstance(cfg[key], bool) or not isinstance(cfg[key], kinds)):
            raise ParseError("%s must be %s, got %s" % (key, what, json.dumps(cfg[key])))
    return cfg


def load_problem(cfg):
    """RiccatiProblem of the config's Matrix Market files; it picks the storage."""
    return RiccatiProblem(*(_read_matrix(cfg[key], key.upper()) for key in "abc"))


def _write_outputs(out_dir, equation, n, result, total_ms):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    factor, history = result
    # one zero row keeps S'S n x n; mmwrite of a 0 x n array is not safe
    scipy.io.mmwrite(out / "factor.mtx", factor.S if factor.S.size else np.zeros((1, n)))
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
        "final_rank": factor.r,
        "total_time_ms": total_ms,
        "note": result.note,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(cfg):
    """Execute one configured solve; returns the process exit code."""
    problem = load_problem(cfg)
    solver, col = _SOLVERS[cfg["equation"]]
    settings = {_KEYS[key][col]: val for key, val in cfg.items() if _KEYS[key][col]}
    tic = time.perf_counter()
    code = 0  # a solver returns only a converged result
    try:
        result = solver(problem, **settings)
    except NoConvergence as exc:
        result, code = SolveResult(exc.factor, exc.history, False, str(exc)), 2
    except FftRiccatiError as exc:
        result, code = SolveResult(LowRankFactor(np.zeros((0, problem.n))), [], False,
                                   "%s: %s" % (type(exc).__name__, exc)), 3
    total_ms = 1000.0 * (time.perf_counter() - tic)
    _write_outputs(cfg["out_dir"], cfg["equation"], problem.n, result, total_ms)
    return code


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
