"""Measuring process: load the inputs, time the public solver calls, check them.

Started by run.py with the BLAS thread count already in its environment, so
the process's peak memory is the workload's own.  Reads a job file, prints
one JSON object with every metric it computed.

An operation is one public call: fta_care_solve / fta_dare_solve on the
solve workloads, one fta_care_sweep on sweep-deep5k.  Only the call itself is
timed; checks run after the timer stops.  An operation fails when it raises,
returns unconverged, has a true residual above its stop, or fails its check.
"""

import ctypes
import functools
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from fftriccati import care, cli, dare  # noqa: E402
from fftriccati.errors import FftRiccatiError, NoConvergence  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 15
MAX_ROUNDS = 40      # the CLI's default
SWEEP_GAP_TOL = 1e-6
# span name of one traced operation, by workload kind
ROOT = {"care": "care.fta_care_solve", "dare": "dare.fta_dare_solve",
        "sweep": "care.fta_care_sweep"}


def blas_threads():
    """Thread count reported by the OpenBLAS library this process loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Workload:
    def __init__(self, name, configs, seed):
        self.spec = WORKLOADS[name]
        self.configs = configs
        self.rng = np.random.default_rng([seed, 7])
        self.verdicts = {}
        if self.spec["op"] == "sweep":
            pairs = [(i, t) for i in range(len(configs)) for t in self.spec["ts"]]
            self.sequence = [pairs[k] for k in self.rng.permutation(len(pairs))]
        else:
            self.sequence = [(0, self.spec["t"])]

    # -- set-up ------------------------------------------------------------
    def setup(self):
        """Load every problem (and Cayley-transform it for sweeps); time each."""
        times, self.problems = [], []
        if self.spec["op"] == "sweep":
            for cfg in self.configs:
                tic = time.perf_counter()
                P = cli.load_problem(cfg)
                system = care.cayley_transform(P, self.spec["gamma"])
                times.append(time.perf_counter() - tic)
                self.problems.append((P, system))
        else:
            for _ in range(SETUP_REPEATS):
                tic = time.perf_counter()
                P = cli.load_problem(self.configs[0])
                times.append(time.perf_counter() - tic)
            self.problems.append((P, None))
        return statistics.median(times)

    def warm_up(self):
        """One untimed round (or one t = 64 sweep) on the first problem, so
        imports, FFT plans and first-touch memory are paid before timing."""
        P, system = self.problems[0]
        try:
            if self.spec["op"] == "sweep":
                care.fta_care_sweep(system, min(self.spec["ts"]))
            else:
                self._call(P, None, self.spec["t"], max_rounds=1)
        except FftRiccatiError:
            pass

    # -- one operation -----------------------------------------------------
    def _call(self, P, system, t, max_rounds=MAX_ROUNDS):
        """The public call; returns (factor rows, rounds, reported nres, converged)."""
        op = self.spec["op"]
        if op == "sweep":
            return care.fta_care_sweep(system, t).factor.S, 1, None, True
        try:
            if op == "care":
                res = care.fta_care_solve(P, gamma0=self.spec["gamma"], t_per_round=t,
                                          stop=self.spec["stop"], max_rounds=max_rounds)
                return res.factor.S, len(res.history), res.history[-1].nres, res.converged
            factor, history = dare.fta_dare_solve(P, t_per_restart=t, stop=self.spec["stop"],
                                                  max_restarts=max_rounds)
            return factor.S, len(history), history[-1].nres, True
        except NoConvergence as exc:
            S = exc.factor.S if exc.factor is not None else None
            return S, len(exc.history or []), exc.history[-1].nres if exc.history else None, False

    def run_op(self, index, t, recorder=None):
        P, system = self.problems[index]
        call = self._call
        if recorder is not None and self.spec["op"] != "sweep":
            # a sweep's root span is the wrapped fta_care_sweep itself
            call = functools.partial(recorder.call, ROOT[self.spec["op"]], self._call)
        rec = {"problem": index, "t": t, "error": None}
        tic = time.perf_counter()
        try:
            S, rounds, reported, converged = call(P, system, t)
        except FftRiccatiError as exc:
            S, rounds, reported, converged = None, 1, None, False
            rec["error"] = type(exc).__name__
        rec["seconds"] = time.perf_counter() - tic
        rec.update(rounds=rounds, reported_nres=reported, converged=converged)
        rec.update(self.check(index, t, S, converged))
        return rec

    def check(self, index, t, S, converged):
        """Independent checks; 'wrong' marks an answer claimed good that is not.

        A repeat that returns bit-identical output reuses the first verdict.
        """
        out = {"rank": None, "true_nres": None, "ok": False, "wrong": False}
        if S is None:
            return out
        key = (index, t, converged, hashlib.sha1(np.ascontiguousarray(S).data).hexdigest())
        if key not in self.verdicts:
            self.verdicts[key] = self._check(self.problems[index][0], t, S, converged, out)
        return dict(self.verdicts[key])

    def _check(self, P, t, S, converged, out):
        if not np.all(np.isfinite(S)):
            out["wrong"] = converged
            return out
        eq = "dare" if self.spec["op"] == "dare" else "care"
        out["rank"] = int(S.shape[0])
        out["true_nres"] = checks.true_nres(eq, P.A, P.B, P.C, S)
        good = converged
        if self.spec["op"] == "sweep":
            out["sweep_gap"] = checks.cayley_sweep_gap(
                P.A, P.B, P.C, self.spec["gamma"], t, S, self.rng)
            good = good and out["sweep_gap"] <= SWEEP_GAP_TOL
        else:
            good = good and out["true_nres"] <= self.spec["stop"]
        out["ok"] = good
        out["wrong"] = converged and not good
        return out

    def reference_figures(self, ref):
        """Untimed solve of the reference problem with the workload's settings:
        forward error against the dense X* and closed-loop stability."""
        P = cli.load_problem(ref["config"])
        S = self._call(P, None, self.spec["t"])[0]
        return {"ref.forward_err": checks.forward_error(S, np.load(ref["x_ref"])),
                "ref.closed_loop_re": checks.closed_loop_re(P.A, P.B, S)}

    def run_ops(self, seconds, recorder=None):
        """Whole passes over the sequence while more than half a pass of the
        `seconds` budget of operation time is left (at least one pass).  With
        a recorder, each operation runs once untraced and then once traced,
        so slow drifts of machine speed hit both alike."""
        untraced, traced, busy, passes = [], [], 0.0, 0
        while passes == 0 or seconds - busy > 0.5 * busy / passes:
            passes += 1
            for index, t in self.sequence:
                untraced.append(self.run_op(index, t))
                busy += untraced[-1]["seconds"]
                if recorder is not None:
                    recorder.install()
                    try:
                        traced.append(self.run_op(index, t, recorder))
                    finally:
                        recorder.close()
                    busy += traced[-1]["seconds"]
        return untraced, traced


def _median(values, empty):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else empty


def peak_rss_mb():
    """High-water resident set of this process since it was exec'd.

    getrusage's ru_maxrss would also carry the parent's peak across fork.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def op_seconds(ops):
    """Median over the repeats of one (problem, t), mean over distinct ones."""
    repeats = {}
    for op in ops:
        repeats.setdefault((op["problem"], op["t"]), []).append(op["seconds"])
    return statistics.fmean(statistics.median(v) for v in repeats.values())


def end_to_end(ops, setup_s):
    with_factor = [op for op in ops if op["true_nres"] is not None]
    good = [op for op in ops if op["ok"]]
    return {
        "solve_s": op_seconds(ops),
        "sweeps_per_s": sum(op["rounds"] for op in good) / sum(op["seconds"] for op in ops),
        "rounds": statistics.median(op["rounds"] for op in ops),
        # the zero factor, which is all a failed call leaves, has residual 1
        "true_nres": _median([op["true_nres"] for op in with_factor], 1.0),
        "final_rank": _median([op["rank"] for op in with_factor], 0),
        "ok_share": len(good) / len(ops),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


def outcome_extras(ops):
    """Ungated figures: the defects they show must not be tuned away."""
    return {
        "ops.failed_share": 1.0 - sum(op["ok"] for op in ops) / len(ops),
        "solver.reported_nres": _median([op["reported_nres"] for op in ops], 0.0),
    }


LAYERS = ("care", "dare", "toeplitz_inverse", "pcg", "toeplitz", "residuals")
COUNTED = ("rows_in", "rank_out", "iters", "cols", "cols_unconverged")


def per_layer(recorder, traced_ops, untraced_ops):
    """Per-operation means of calls, busy time, self time and counts."""
    spans, own = recorder.spans, recorder.self_times()
    roots = [i for i, s in enumerate(spans) if s[3] == -1 and s[0] in ROOT.values()]
    inside = set(roots)
    for i, s in enumerate(spans):  # parents precede children
        if s[3] in inside:
            inside.add(i)
    nops = len(roots)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value / nops

    for i in sorted(inside):
        name, start, end, parent, counts = spans[i]
        if i in roots:
            add("trace.op_mean_s", end - start)
        add(name + ".calls", 1)
        add(name + ".busy_s", end - start)
        add(name + ".self_s", own[i])
        add("layer.%s.self_s" % name.split(".")[0], own[i])
        for key in COUNTED:
            if counts and key in counts:
                add("%s.%s" % (name, key), counts[key])
        if name == "toeplitz.bt_apply" and spans[parent][0] == "pcg.pcg_solve":
            add("toeplitz.bt_apply.pcg_busy_s", end - start)
    for layer in LAYERS:
        out.setdefault("layer.%s.self_s" % layer, 0.0)
    traced, untraced = op_seconds(traced_ops), op_seconds(untraced_ops)
    out.update({"trace.solve_s": traced, "trace.untraced_solve_s": untraced,
                "trace.overhead_s": traced - untraced,
                "trace.spans": len(inside) / nops,
                "cli.load_problem.busy_s": statistics.median(
                    end - start for name, start, end, _, _ in spans if name == "cli.load_problem")})
    return out


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    work = Workload(job["workload"], job["configs"], job["seed"])
    recorder = None
    if job["trace"]:
        from tracing import Recorder
        recorder = Recorder()
        recorder.install()
    try:
        setup_s = work.setup()
    finally:
        if recorder is not None:
            recorder.close()
    work.warm_up()
    ops, traced = work.run_ops(job["seconds"], recorder)
    metrics = end_to_end(ops, setup_s)
    metrics.update(outcome_extras(ops))
    if "reference" in job:
        metrics.update(work.reference_figures(job["reference"]))
    if recorder is not None:
        metrics.update(per_layer(recorder, traced, ops))
        with open(job["spans"], "w") as fh:
            for span, own in zip(recorder.spans, recorder.self_times()):
                fh.write(json.dumps({"name": span[0], "start": span[1], "end": span[2],
                                     "parent": span[3], "self": own,
                                     "counts": span[4]}) + "\n")
    print(json.dumps({
        "correct": not any(op["wrong"] for op in ops + traced),
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": metrics,
        "ops": ops,
        "blas_threads": blas_threads(),
    }))


if __name__ == "__main__":
    main(sys.argv[1])
