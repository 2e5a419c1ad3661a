"""End-to-end acceptance checks with one printed verdict per criterion."""

import json
import time

import numpy as np
import scipy.io
import scipy.sparse

from fftriccati.care import (cayley_transform, fta_care_solve, fta_care_sweep,
                             residual_factor)
from fftriccati.cli import generate_synthetic, main
from fftriccati.dare import RiccatiProblem, fta_dare_sweep
from fftriccati.toeplitz import BlockToeplitzSpec, bt_apply, densify
from fftriccati.toeplitz_inverse import solve_sweep_systems

from oracles import (dre_dense, radi_delta_check, random_care_instance,
                     random_dare_instance, sda_dare_init, sda_dense)


def report(capsys, num, ok):
    with capsys.disabled():
        print("\nACCEPTANCE %d: %s" % (num, "PASS" if ok else "FAIL"))
    assert ok


def test_criterion_01_dare_sweep_matches_dense_recursion(capsys):
    tic = time.perf_counter()
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(6, 33))
        m = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        A, B, C = random_dare_instance(seed, n, m, l)
        P = RiccatiProblem(A, B, C)
        for t in (1, 2, 4, 8, 16):
            X = fta_dare_sweep(P, t).gram()
            Xd = dre_dense(A, B, C, np.zeros((n, n)), t)
            err = np.linalg.norm(X - Xd) / max(1.0, np.linalg.norm(Xd))
            ok = ok and err <= 1e-9
    ok = ok and (time.perf_counter() - tic) < 10.0
    report(capsys, 1, ok)


def test_criterion_02_doubling_subsequence_identity(capsys):
    ok = True
    A, B, C = random_dare_instance(21, 20, 2, 2)
    P = RiccatiProblem(A, B, C)
    state = sda_dare_init(A, B, C)
    for k in range(5):
        Hk = sda_dense(state, k).Hk
        X = fta_dare_sweep(P, 2 ** k).gram()
        ok = ok and np.linalg.norm(X - Hk) <= 1e-8 * max(1.0, np.linalg.norm(Hk))
    report(capsys, 2, ok)


def test_criterion_03_structured_inverse_identity_action(capsys):
    ok = True
    rng = np.random.default_rng(3)
    for trial in range(20):
        t = int(rng.integers(2, 65))
        p1 = int(rng.integers(1, 4))
        p2 = int(rng.integers(1, 4))
        blocks = rng.standard_normal((t, p1, p2))
        # a DARE sweep's inner column and a CARE column [Y; D]
        for spec in (BlockToeplitzSpec(blocks[1:]),
                     BlockToeplitzSpec(blocks)):
            inv = solve_sweep_systems(spec)
            T = densify(spec)
            M = np.eye(T.shape[0]) + T @ T.T
            V = rng.standard_normal((M.shape[0], 2))
            out = inv.apply_inverse(V)
            err = np.linalg.norm(M @ out - V) / np.linalg.norm(V)
            ok = ok and err <= 1e-9
    report(capsys, 3, ok)


def test_criterion_04_monotone_trajectories(capsys):
    ok = True
    for seed in (0, 1, 2):
        A, B, C = random_dare_instance(seed, 16, 2, 2)
        P = RiccatiProblem(A, B, C)
        prev = fta_dare_sweep(P, 1)
        for t in range(2, 17):
            cur = fta_dare_sweep(P, t)
            gap = np.linalg.eigvalsh(cur.gram() - prev.gram())[0]
            ok = ok and gap >= -1e-10 * np.linalg.norm(cur.gram())
            prev = cur
    for seed in (3, 4):
        A, B, C = random_care_instance(seed, 16, 2, 2)
        sys = cayley_transform(RiccatiProblem(A, B, C), 1.0)
        prev = fta_care_sweep(sys, 1).factor
        for t in range(2, 13):
            cur = fta_care_sweep(sys, t).factor
            gap = np.linalg.eigvalsh(cur.gram() - prev.gram())[0]
            ok = ok and gap >= -1e-10 * np.linalg.norm(cur.gram())
            prev = cur
    report(capsys, 4, ok)


def test_criterion_05_residual_factorization(capsys):
    ok = True
    for seed, n in ((5, 12), (6, 24), (7, 32)):
        A, B, C = random_care_instance(seed, n, 2, 2)
        P = RiccatiProblem(A, B, C)
        sys = cayley_transform(P, 1.0)
        for t in (1, 3, 6):
            sweep = fta_care_sweep(sys, t)
            Ct = residual_factor(sys, sweep, C)
            X = sweep.factor.gram()
            resid = A.T @ X + X @ A - X @ B @ B.T @ X + C.T @ C
            err = np.linalg.norm(resid - Ct.T @ Ct)
            ok = ok and err <= 1e-8 * max(1e-30, np.linalg.norm(resid))
    report(capsys, 5, ok)


def test_criterion_06_step_identity(capsys):
    ok = True
    for seed, n in ((8, 12), (9, 24)):
        A, B, C = random_care_instance(seed, n, 2, 2)
        P = RiccatiProblem(A, B, C)
        sys = cayley_transform(P, 1.0)
        for t in (2, 5):
            sweep = fta_care_sweep(sys, t)
            nxt = fta_care_sweep(sys, t + 1)
            Ct = residual_factor(sys, sweep, C)
            delta = radi_delta_check(P, sweep.factor, Ct, 1.0)
            err = np.linalg.norm(nxt.factor.gram() - sweep.factor.gram() - delta)
            ok = ok and err <= 1e-9 * max(1.0, np.linalg.norm(nxt.factor.gram()))
    report(capsys, 6, ok)


def test_criterion_07_scalar_closed_forms(capsys):
    P = RiccatiProblem(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    result = fta_care_solve(P, gamma0=1.0, t_per_round=8, stop=1e-12)
    ok = abs(result.factor.gram()[0, 0] - (np.sqrt(2.0) - 1.0)) <= 1e-10
    sys = cayley_transform(P, 1.0)
    sweep = fta_care_sweep(sys, 1)
    ok = ok and abs(sweep.factor.gram()[0, 0] - 0.4) <= 1e-12
    C1 = residual_factor(sys, sweep, np.array([[1.0]]))
    ok = ok and abs(abs(C1[0, 0]) - 0.2) <= 1e-12
    report(capsys, 7, ok)


def test_criterion_08_antistable_label_tridiagonal_5000(capsys):
    n = 5000
    A = scipy.sparse.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                           [-1, 0, 1], format="csr")
    rng = np.random.default_rng(1)
    B = rng.standard_normal((n, 4))
    C = rng.standard_normal((4, n))
    P = RiccatiProblem(A, B, C)
    tic = time.perf_counter()
    result = fta_care_solve(P, gamma0=1.5, t_per_round=32, stop=1e-6,
                            max_rounds=40)
    elapsed = time.perf_counter() - tic
    ok = result.converged and result.history[-1].nres <= 1e-6 \
        and len(result.history) <= 40 and elapsed < 120.0
    report(capsys, 8, ok)


def test_criterion_09_stable_laplacian_10000_via_cli(capsys, tmp_path):
    a, b, c = generate_synthetic("laplacian1d_stable", 10000, 4, 4, 0, tmp_path)
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "equation": "care", "a": str(a), "b": str(b), "c": str(c),
        "gamma0": 1.5, "t": 32, "stop_tol": 1e-8, "max_rounds": 40,
        "out_dir": str(out)}))
    tic = time.perf_counter()
    rc = main(["run", "--config", str(cfg)])
    elapsed = time.perf_counter() - tic
    ok = rc == 0 and elapsed < 120.0
    summary = json.loads((out / "summary.json").read_text())
    ok = ok and summary["final_nres"] <= 1e-8
    rows = (out / "trace.csv").read_text().strip().splitlines()[1:]
    nres = [float(r.split(",")[3]) for r in rows]
    for i in range(1, len(nres) - 1):  # strictly decreasing after round 2
        ok = ok and nres[i + 1] < nres[i]
    report(capsys, 9, ok)


def test_criterion_10_sweep_time_scales_subcubically(capsys):
    n = 10000
    A = scipy.sparse.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                           [-1, 0, 1], format="csr")
    rng = np.random.default_rng(0)
    B = rng.standard_normal((n, 4))
    C = rng.standard_normal((4, n))
    sys = cayley_transform(RiccatiProblem(A, B, C), 1.5)
    fta_care_sweep(sys, 8)  # warm caches and FFT plans
    times = {}
    for t in (64, 128):
        best = np.inf
        for _ in range(2):
            tic = time.perf_counter()
            fta_care_sweep(sys, t)
            best = min(best, time.perf_counter() - tic)
        times[t] = best
    report(capsys, 10, times[128] <= 3.0 * times[64])


def test_criterion_11_fft_matvec_randomized(capsys):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        t = int(rng.integers(1, 65))
        p1 = int(rng.integers(1, 4))
        p2 = int(rng.integers(1, 4))
        spec = BlockToeplitzSpec(rng.standard_normal((t, p1, p2)))
        X = rng.standard_normal((p2 * t, int(rng.integers(1, 4))))
        dense = densify(spec) @ X
        err = np.linalg.norm(bt_apply(spec, X) - dense) \
            / max(1e-30, np.linalg.norm(dense))
        worst = max(worst, err)
    report(capsys, 11, worst <= 1e-11)


def test_criterion_12_deterministic_trace(capsys, tmp_path):
    a, b, c = generate_synthetic("laplacian1d_stable", 64, 2, 2, 5, tmp_path)
    traces = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        cfg = tmp_path / ("cfg_%s.json" % tag)
        cfg.write_text(json.dumps({
            "equation": "care", "a": str(a), "b": str(b), "c": str(c),
            "gamma0": 1.0, "t": 16, "stop_tol": 1e-9, "max_rounds": 40,
            "out_dir": str(out)}))
        assert main(["run", "--config", str(cfg)]) == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        traces.append([",".join(l.split(",")[:-1]) for l in lines])
    report(capsys, 12, traces[0] == traces[1])
