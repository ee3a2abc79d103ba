"""Tests of the benchmark itself: oracle, correctness gate, tracing, smoke runs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

lib = run.import_library()
SCRATCH = ROOT / ".bench_build" / "tests"


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("T", [64, 97, 256])
def test_direct_dft_matches_library_transform(T):
    x = np.random.default_rng(T).standard_normal(T)
    J = lib.numerics.dft_canonical(x)
    assert np.max(np.abs(oracle.direct_dft(x) - J)) < 1e-12 * np.max(np.abs(J))
    assert np.max(np.abs(oracle.fft_dft(x) - J)) < 1e-12 * np.max(np.abs(J))
    assert oracle.check_dft_samples(x, oracle.fft_dft(x), [1, T // 2, T]) < 1e-13


@pytest.mark.parametrize("model", ["model1", "model3", "model6"])
def test_oracle_generators_match_library(model):
    T = 256
    config = lib.simulate.GeneratorConfig(T=T, rng=lib.numerics.RngStream(11, 3))
    x = lib.simulate.generate(lib.simulate.model_preset(model, T), config)
    assert np.allclose(oracle.model_series(model, T, 11, 3), x, rtol=1e-12, atol=1e-12)


def test_oracle_statistic_matches_library_within_tolerance():
    for T in (256, 4096):
        x = workloads.analyst_series(T, 2, 0, 0)
        lags = range(1, 11)
        got = lib.stattest.stationarity_test(x, m=10).statistic
        assert oracle.rel_close(got, oracle.statistic(x, lags), oracle.ORACLE_RTOL)


def test_oracle_flags_perturbed_statistic():
    x = oracle.model_series("model3", 256, 4, 0)
    got = lib.stattest.stationarity_test(x, m=10).statistic
    want = oracle.statistic(x, range(1, 11))
    assert oracle.rel_close(got, want, oracle.ORACLE_RTOL)
    assert not oracle.rel_close(got * (1 + 1e-9), want, oracle.ORACLE_RTOL)


def test_noncentrality_oracle_matches_library():
    f_local = lib.simulate.local_spectrum(lib.simulate.model_preset("model6"))
    lags = range(1, 25)
    got = lib.experiments.power_profile(f_local, lags, T=512).B_values
    want = oracle.noncentrality_model6(lags)
    assert np.max(np.abs(got - want)) < 1e-13


# ---------------------------------------------------------------------------
# correctness gate of the workloads
# ---------------------------------------------------------------------------


def test_mc_table_gate_flags_perturbed_statistics():
    w = workloads.McTable(lib, ROOT, seed=5, smoke=True)
    ops = w.run_round(0)
    w.verify(ops, None)
    assert all(op.error is None for op in ops)
    refs = w.reference(ops)

    ops = w.run_round(0)
    ops[3].output["statistics"] = ops[3].output["statistics"] * (1 + 1e-9)
    w.verify(ops, None)
    assert [i for i, op in enumerate(ops) if op.error] == [3]

    ops = w.run_round(0)
    refs["rounds"][0][7]["statistics"][1] *= 1 + 1e-11
    w.verify(ops, refs)
    assert [i for i, op in enumerate(ops) if op.error] == [7]


def test_lag_profile_gate_flags_perturbed_outputs():
    w = workloads.LagProfile(lib, ROOT, seed=5, smoke=True)
    ops = w.run_round(0)
    w.verify(ops, None)
    assert all(op.error is None for op in ops)
    scan, power = w.run_round(0)
    scan.output = scan.output.copy()
    scan.output[4] += 1.0 / w.n
    power.output = power.output * (1 + 1e-8)
    w.verify([scan, power], None)
    assert scan.error and power.error


def test_single_series_gate_flags_perturbed_statistic():
    w = workloads.SingleSeries(lib, ROOT, seed=5, smoke=True)
    w.setup()
    ops = w.run_round(0)
    w.verify(ops, None)
    assert all(op.error is None for op in ops), [op.error for op in ops]
    ops = w.run_round(0)
    payload = json.loads(ops[0].output.stdout)
    payload["result"]["statistic"] *= 1 + 1e-9
    ops[0].output.stdout = json.dumps(payload)
    long = w.CLI_CALLS
    res = ops[long].output
    ops[long].output = dataclasses.replace(res, statistic=res.statistic * (1 + 1e-9))
    w.verify(ops, None)
    assert [i for i, op in enumerate(ops) if op.error] == [0, long]


def test_costs_are_in_calibration_units_of_their_round():
    w = workloads.McTable(lib, ROOT, seed=5, smoke=True)
    # round 1 runs on a host twice as slow: every time doubles, the cost does not
    ops = [workloads.Op("study", 0, 0.2, 3, cal_s=0.01), workloads.Op("study", 0, 0.4, 3, cal_s=0.03),
           workloads.Op("study", 1, 0.4, 3, cal_s=0.04), workloads.Op("study", 1, 0.8, 3, cal_s=0.04)]
    rate, p50, tail, _ = run.figures(w, ops, lambda op, cal: op.seconds / cal)
    assert (rate, p50, tail) == pytest.approx((6 / 30, 30, 30))
    rate, p50, tail, _ = run.figures(w, ops, lambda op, cal: op.seconds)
    assert (rate, p50, tail) == pytest.approx((6 / 0.9, 0.9, 1.2))


def test_tail_percentile_has_ten_beyond():
    values = list(range(100))
    assert run.tail(values) == (89, 90.0, 10)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_trace_self_times_add_up_to_wall_time():
    w = workloads.McTable(lib, ROOT, seed=5, smoke=True)
    w.setup()
    tracer = spans.Tracer()
    untraced, traced = [], []
    for k in range(9):
        t0 = time.perf_counter()
        w.run_round(0)
        untraced.append(time.perf_counter() - t0)
        tracer.install(lib)
        try:
            tracer.new_round(k)
            idx = tracer.begin("bench.round")
            t0 = time.perf_counter()
            w.run_round(0)
            traced.append(time.perf_counter() - t0)
            tracer.end(idx)
        finally:
            tracer.uninstall()
    summary = tracer.summary()
    # self times partition the traced rounds exactly
    assert sum(s["self_s"] for s in summary.values()) == \
        pytest.approx(summary["bench.round"]["total_s"], rel=1e-9)
    assert summary["simulate.generate"]["calls"] == 9 * len(w.cells) * w.n
    # per round, they add up to the untraced wall time of the same work
    # within the tracing overhead measured on the same rounds
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, *_ in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    per_round = [0.0] * 9
    for i, (name, start, end, parent, rnd, *_) in enumerate(tracer.spans):
        per_round[rnd] += end - start - child[i]
    base = float(np.median(untraced))
    overhead = float(np.median(traced)) / base - 1.0
    assert abs(float(np.median(per_round)) - base) <= (abs(overhead) + 0.02) * base
    # the wrappers are gone after uninstall
    assert lib.stattest.smooth_spectral.__module__ == "dftstat.spectral"
    assert "spans" not in repr(lib.experiments.generate.__code__.co_filename)


def test_tracer_tolerates_removed_functions():
    pkg = types.ModuleType("fakestat")
    num = types.ModuleType("fakestat.numerics")

    def dft_canonical(x):
        return x

    dft_canonical.__module__ = "fakestat.numerics"
    num.dft_canonical = dft_canonical
    pkg.numerics = num
    sys.modules.update({"fakestat": pkg, "fakestat.numerics": num})
    try:
        tracer = spans.Tracer()
        tracer.install(pkg)
        assert num.dft_canonical(np.ones(8)).size == 8
        tracer.uninstall()
    finally:
        del sys.modules["fakestat"], sys.modules["fakestat.numerics"]
    assert "simulate.generate" in tracer.absent and "simulate.validate" in tracer.absent
    assert "numerics.dft_canonical" not in tracer.absent
    metrics = spans.per_layer(tracer.summary(), 1, {}, 0.0)
    assert metrics["numerics.dft_canonical.calls"] == (1.0, "count")
    assert metrics["simulate.generate.calls"] == (0.0, "count")
    assert metrics["stattest.covariance.us_per_lag"] == (0.0, "us")
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared == set(metrics)


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------


def _run(args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload,trace", [("mc_table", "0"), ("lag_profile", "1"),
                                            ("single_series", "1")])
def test_smoke_mode_finishes_in_seconds(workload, trace):
    t0 = time.perf_counter()
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    assert set(result["metrics"]) == declared
    assert time.perf_counter() - t0 < 60


def test_exits_nonzero_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(["--workload", "mc_table", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
