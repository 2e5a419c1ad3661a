"""Riccati solve benchmark for fftriccati.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Writes seeded Matrix Market inputs, computes
the dense reference where a workload has one (cached per base problem), then
starts perfbench/worker.py with the BLAS thread count set in its environment (never above nproc)
and relays what it measured.  The last stdout line is the JSON result; the
lines before it name every metric with its unit, the failure share, the
solver's own residual next to the recomputed one, and the machine.  With
--trace 1 the result holds the per-layer metrics of a traced run, and the
spans are written to perfbench/.cache/results/.  Workloads, metrics and
bounds are listed in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CACHE = BENCH_DIR / ".cache"
# One BLAS thread: on a shared 2-core Xeon with OpenBLAS 0.3.31 the n = 10000
# CARE solve took 27.7 s at one thread against 34.3 s at two, and repeated
# n = 5000 sweeps varied by about 5 % instead of 15 %.
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150  # leaves room for input generation within 180 s


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]


def environment(root, seed, threads, blas_threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads_requested": threads,
        "blas_threads_effective": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "src_digest": digest(sorted((root / "src" / "fftriccati").glob("*.py"))),
        "seed": seed,
    }


def reference_path(name, cfg):
    """Dense CARE solution X* of the reference problem, computed once and cached.

    X* depends on B and C only through BB' and C'C, which the run seed's
    signed permutations leave unchanged, so every seed shares it.
    """
    import numpy as np

    from fftriccati import cli

    import checks

    path = CACHE / "ref" / ("%s.npy" % name)
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        P = cli.load_problem(cfg)
        tmp = path.with_suffix(".tmp.npy")
        np.save(tmp, checks.care_reference(P.A, P.B, P.C))
        tmp.replace(path)
    return str(path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "fftriccati" / "__init__.py").is_file():
        fail("no src/fftriccati here; run from the repository root")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)

    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ[var] = str(threads)
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    from workloads import make_inputs

    configs, ref_config = make_inputs(args.workload, args.seed, CACHE / "inputs")
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    results = CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "configs": configs,
           "spans": str(results / (tag + ".spans.jsonl"))}
    if ref_config is not None:
        job["reference"] = {"config": ref_config,
                            "x_ref": reference_path(args.workload, ref_config)}
    job_path = CACHE / "inputs" / (tag + ".job.json")
    job_path.write_text(json.dumps(job))

    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("worker exceeded %d s" % WORKER_TIMEOUT_S)
    finally:
        job_path.unlink()
        for cfg in configs + ([ref_config] if ref_config else []):
            shutil.rmtree(Path(cfg["a"]).parent)
    if proc.returncode != 0:
        fail("worker exited with code %d" % proc.returncode)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in raw["metrics"] and not args.trace:
            fail("worker did not report %s" % m["name"])
        # a layer the workload never enters (or a reference problem it does
        # not have) reports zero
        value = float(raw["metrics"].get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    env_record = environment(root, args.seed, threads, raw["blas_threads"])

    print("# workload %s  seed %d  trace %d  operations %d  failed %d"
          % (args.workload, args.seed, args.trace, raw["attempted"], raw["failed"]))
    print("# environment " + json.dumps(env_record, sort_keys=True))
    for op in raw["ops"]:
        print("# op problem=%d t=%d %.4fs rounds=%d rank=%s true_nres=%s reported_nres=%s "
              "ok=%s error=%s" % (op["problem"], op["t"], op["seconds"], op["rounds"],
                                  op["rank"], op["true_nres"], op["reported_nres"],
                                  op["ok"], op["error"]))
    shown = set(metrics)
    for name, m in metrics.items():
        print("%-44s %-14.6g %s" % (name, m["value"], m["unit"]))
    for name in ("ops.failed_share", "solver.reported_nres", "ref.forward_err",
                 "ref.closed_loop_re"):
        if name not in shown and name in raw["metrics"]:
            print("%-44s %-14.6g (reported, not gated)" % (name, raw["metrics"][name]))
    if args.trace:
        layers = sum(v for k, v in raw["metrics"].items() if k.startswith("layer."))
        print("# layer self times sum to %.6f s per operation; traced operations "
              "average %.6f s" % (layers, raw["metrics"]["trace.op_mean_s"]))

    result = {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    (results / (tag + ".json")).write_text(json.dumps(
        dict(result, environment=env_record, all_metrics=raw["metrics"], ops=raw["ops"]),
        indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
