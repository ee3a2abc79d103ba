"""The benchmark's three workloads.

Each is a closed loop driven by one client in one process: a round of fixed
work runs, its outputs are kept, and the next round starts when it ends.
The workload seed becomes the Monte Carlo ``master_seed`` (one per round)
and the seed of the generated input series; the library sees only those
inputs.

mc_table
    The paper's size/power table: ``rejection_rate`` on model1, model3 and
    model6 at T in {256, 512} with lags 1..1 and 1..10, N replications per
    cell. The m=1 half loads generation and per-replication overhead, the
    m=10 half the covariances.
lag_profile
    The paper's empirical-versus-predicted per-lag power figure: ``lag_scan``
    of model6 at T=512 over lags 1..120, beside ``power_profile`` of its local
    spectrum over a block of those lags.
single_series
    The analyst's use: two ``python -m dftstat.cli test`` processes on a
    512-point file, then ``stationarity_test(m=10)`` at T=2**18 and at the
    prime T=262139 and ``segmented_test(depth=4)`` at T=2**16.

Each workload reports a throughput of its batch work (``rate``) and the
latency of its user-facing call (``call``), both in units of the calibration
job (``cal``) timed just before each operation; see ``calibrate``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import oracle

REFERENCE_SEED = 0
LEVEL = 0.05

_CAL_SHORT = np.random.default_rng(20091124).standard_normal(512)
_CAL_LONG = np.random.default_rng(20091125).standard_normal(2 ** 15)
CAL_REPEATS = 3


def _calibration_piece() -> float:
    s = 0.0
    for i in range(13):
        d = np.fft.fft(_CAL_SHORT + i)
        s += float(np.abs(d[1:40] * np.conj(d[2:41])).sum())
        for j in range(100):
            s += j * 0.5
    d = np.fft.fft(_CAL_LONG)
    return s + float(np.cumsum(np.abs(d))[-1])


def calibrate() -> float:
    """Seconds of the benchmark's yardstick, the unit ``cal``: fixed work of
    the kinds the library does (interpreted loops, small and mid-size FFTs,
    reductions), about 2 ms on a Xeon vCPU, timed CAL_REPEATS times; the
    median, so one interrupted repeat does not move it.

    The machine this benchmark was built on changes speed by up to 60% within
    seconds, by itself and without visible steal time, and this job and the
    library slow alike, so an operation's time over the median time of this
    job in its round stays steady where seconds do not. It calls nothing in
    dftstat, so no change to the library moves it."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _calibration_piece()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Op:
    kind: str
    round: int
    seconds: float
    units: float
    cal_s: float          # calibrate() just before the operation
    output: object = None
    error: str | None = None
    meta: dict = field(default_factory=dict)


def by_round(ops: list[Op]) -> dict[int, list[Op]]:
    out: dict[int, list[Op]] = {}
    for op in ops:
        out.setdefault(op.round, []).append(op)
    return out


def round_seed(seed: int, k: int) -> int:
    """Monte Carlo master seed of round k."""
    return (seed * 100_003 + k) % 2 ** 64


class Workload:
    name = ""
    rate_kind = ""   # op kind whose units per cal is the workload's rate
    call_kind = ""   # op kind, or "round", whose latency is the call latency
    rate_unit = ""
    call_what = ""

    def __init__(self, lib, root, seed: int, smoke: bool):
        self.lib = lib
        self.root = root
        self.seed = seed
        self.smoke = smoke
        self.tracer = None

    def _run(self, kind, k, units, fn, *args, **kwargs) -> Op:
        cal_s = calibrate()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, the loop goes on
            return Op(kind, k, time.perf_counter() - t0, units, cal_s,
                      error=f"{type(exc).__name__}: {exc}")
        return Op(kind, k, time.perf_counter() - t0, units, cal_s, output=out)

    def use_references(self) -> bool:
        return self.seed == REFERENCE_SEED and not self.smoke

    def setup(self):
        raise NotImplementedError

    def run_round(self, k: int) -> list[Op]:
        raise NotImplementedError

    def verify(self, ops: list[Op], refs: dict | None):
        raise NotImplementedError

    def reference(self, ops: list[Op]) -> dict:
        raise NotImplementedError

    def aliases(self, rate, p50, tail, per) -> list[tuple[str, float, str]]:
        """The end-to-end figures, in unit ``per`` (cal or s), under their
        workload-specific names."""
        raise NotImplementedError


def _fail(op: Op, why: str):
    if op.error is None:
        op.error = why


# ---------------------------------------------------------------------------
# mc_table
# ---------------------------------------------------------------------------


class McTable(Workload):
    name = "mc_table"
    rate_kind = "study"
    call_kind = "round"
    rate_unit = "Monte Carlo replications"
    call_what = "one pass over the 12-cell table"
    MODELS = ("model1", "model3", "model6")
    SAMPLES_PER_STUDY = 2

    def __init__(self, lib, root, seed, smoke):
        super().__init__(lib, root, seed, smoke)
        self.sizes = (64, 128) if smoke else (256, 512)
        self.n = 3 if smoke else 50
        self.cells = [(model, T, m) for model in self.MODELS
                      for T in self.sizes for m in (1, 10)]
        self.working_set_bytes = max(self.sizes) * 16

    def _config(self, cell, k, n):
        model, T, m = cell
        return self.lib.experiments.McConfig(
            model=self.lib.simulate.model_preset(model, T), T=T,
            lags=tuple(range(1, m + 1)), level=LEVEL, replications=n,
            master_seed=round_seed(self.seed, k))

    def setup(self):
        for cell in self.cells:
            self.lib.experiments.rejection_rate(self._config(cell, 0, 2))

    def run_round(self, k):
        ops = []
        for cell in self.cells:
            config = self._config(cell, k, self.n)
            op = self._run("study", k, self.n, self.lib.experiments.rejection_rate, config)
            if op.error is None:
                r = op.output
                op.output = {"statistics": np.array(r.statistics), "threshold": r.threshold,
                             "rejection_rate": r.rejection_rate}
            op.meta["cell"] = cell
            ops.append(op)
        return ops

    def verify(self, ops, refs):
        rounds = (refs or {}).get("rounds", [])
        thresholds = {m: oracle.chisq_isf(LEVEL, 2 * m) for m in (1, 10)}
        rng = np.random.default_rng([self.seed, 1])
        for i, op in enumerate(ops):
            if op.error:
                continue
            model, T, m = op.meta["cell"]
            out = op.output
            stats, thr = out["statistics"], out["threshold"]
            if stats.shape != (self.n,) or not np.all(np.isfinite(stats)):
                _fail(op, "statistics array has the wrong shape or non-finite values")
                continue
            if not oracle.rel_close(thr, thresholds[m], oracle.QUANTILE_RTOL):
                _fail(op, f"threshold {thr!r} != chi-square quantile {thresholds[m]!r}")
            count = int(np.count_nonzero(stats > thr))
            if count != round(out["rejection_rate"] * self.n):
                _fail(op, "rejection rate disagrees with the statistics")
            for rep in rng.choice(self.n, size=min(self.SAMPLES_PER_STUDY, self.n), replace=False):
                x = oracle.model_series(model, T, round_seed(self.seed, op.round), int(rep))
                want = oracle.statistic(x, range(1, m + 1))
                if not oracle.rel_close(stats[rep], want, oracle.ORACLE_RTOL):
                    _fail(op, f"replication {rep}: statistic {stats[rep]!r} != oracle {want!r}")
            if op.round < len(rounds):
                ref = rounds[op.round][i % len(self.cells)]
                if not oracle.rel_close(stats, ref["statistics"], oracle.REFERENCE_RTOL):
                    _fail(op, "statistics differ from the recorded reference")
                if count != ref["rejections"]:
                    _fail(op, f"{count} rejections, reference {ref['rejections']}")
                if not oracle.rel_close(thr, ref["threshold"], oracle.QUANTILE_RTOL):
                    _fail(op, "threshold differs from the recorded reference")

    def reference(self, ops):
        rounds: dict[int, list] = {}
        for op in ops:
            out = op.output
            rounds.setdefault(op.round, []).append({
                "cell": list(op.meta["cell"]),
                "statistics": [float(v) for v in out["statistics"]],
                "rejections": int(np.count_nonzero(out["statistics"] > out["threshold"])),
                "threshold": out["threshold"]})
        return {"rounds": [rounds[k] for k in sorted(rounds)]}

    def aliases(self, rate, p50, tail, per):
        return [(f"mc_reps_per_{per}", rate, f"1/{per}"),
                (f"table_p50_{per}", p50, per)]


# ---------------------------------------------------------------------------
# lag_profile
# ---------------------------------------------------------------------------


class LagProfile(Workload):
    name = "lag_profile"
    rate_kind = "scan"
    call_kind = "power"
    rate_unit = "lag x replications of lag_scan"
    call_what = "one power_profile call over a block of lags"
    MODEL = "model6"
    SCAN_CHECK_EVERY = 4  # rounds whose scan is recomputed in full by the oracle

    def __init__(self, lib, root, seed, smoke):
        super().__init__(lib, root, seed, smoke)
        self.T = 128 if smoke else 512
        self.lags = tuple(range(1, (20 if smoke else 120) + 1))
        self.n = 2 if smoke else 20
        self.block = 2 if smoke else 12
        self.blocks = len(self.lags) // self.block
        self.working_set_bytes = 257 * 513 * 16  # complex quadrature grid

    def _block_lags(self, k):
        b = k % self.blocks
        return self.lags[b * self.block:(b + 1) * self.block]

    def _power(self, lags):
        sim = self.lib.simulate
        f_local = sim.local_spectrum(sim.model_preset(self.MODEL, self.T))
        return self.lib.experiments.power_profile(f_local, lags, T=self.T).B_values

    def setup(self):
        spec = self.lib.simulate.model_preset(self.MODEL, self.T)
        self.lib.experiments.lag_scan(spec, self.T, self.lags, replications=1,
                                      master_seed=round_seed(self.seed, 0))
        self._power(self.lags[:1])

    def run_round(self, k):
        spec = self.lib.simulate.model_preset(self.MODEL, self.T)
        scan = self._run("scan", k, len(self.lags) * self.n, self.lib.experiments.lag_scan,
                         spec, self.T, self.lags, level=LEVEL, replications=self.n,
                         master_seed=round_seed(self.seed, k))
        lags = self._block_lags(k)
        power = self._run("power", k, len(lags), self._power, lags)
        power.meta["lags"] = lags
        return [scan, power]

    def verify(self, ops, refs):
        refs = refs or {}
        B_all = oracle.noncentrality_model6(self.lags)
        scale = float(np.max(np.abs(B_all)))
        ref_B = np.array([complex(re, im) for re, im in refs.get("B", [])])
        thr = oracle.chisq_isf(LEVEL, 2)
        for op in ops:
            if op.error:
                continue
            if op.kind == "power":
                got = np.asarray(op.output)
                idx = [self.lags.index(r) for r in op.meta["lags"]]
                if got.shape != (len(idx),) or not np.all(
                        np.abs(got - B_all[idx]) <= oracle.ORACLE_RTOL * scale):
                    _fail(op, "B(r) differs from the quadrature oracle")
                elif ref_B.size and not np.all(
                        np.abs(got - ref_B[idx]) <= oracle.REFERENCE_RTOL * scale):
                    _fail(op, "B(r) differs from the recorded reference")
                continue
            rates = np.asarray(op.output, dtype=float)
            counts = rates * self.n
            if rates.shape != (len(self.lags),) or not np.allclose(counts, np.round(counts)):
                _fail(op, "scan rates are not counts over the replications")
                continue
            counts = np.round(counts).astype(int)
            if op.round % self.SCAN_CHECK_EVERY == 0:
                lo = np.zeros(len(self.lags), dtype=int)
                hi = np.zeros(len(self.lags), dtype=int)
                for rep in range(self.n):
                    x = oracle.model_series(self.MODEL, self.T, round_seed(self.seed, op.round), rep)
                    s = oracle.single_lag_statistics(x, self.lags)
                    margin = oracle.ORACLE_RTOL * thr
                    lo += s > thr + margin
                    hi += s > thr - margin
                if np.any(counts < lo) or np.any(counts > hi):
                    _fail(op, "scan rejection counts differ from the oracle")
            rounds = refs.get("rounds", [])
            if op.round < len(rounds) and not np.array_equal(rates, rounds[op.round]["rates"]):
                _fail(op, "scan rates differ from the recorded reference")

    def reference(self, ops):
        rounds = [{"rates": [float(v) for v in op.output]} for op in ops if op.kind == "scan"]
        B = self._power(self.lags)
        return {"rounds": rounds, "B": [[float(b.real), float(b.imag)] for b in B]}

    def aliases(self, rate, p50, tail, per):
        return [(f"scan_lag_reps_per_{per}", rate, f"1/{per}"),
                (f"power_lags_per_{per}", self.block / p50 if p50 else 0.0, f"1/{per}")]


# ---------------------------------------------------------------------------
# single_series
# ---------------------------------------------------------------------------


def analyst_series(T: int, seed: int, k: int, which: int) -> np.ndarray:
    """A coloured series with a slowly varying scale, drawn from the seed."""
    e = np.random.default_rng([seed, k, which]).standard_normal(T + 2)
    u = np.arange(1, T + 1) / T
    return (1.0 + 0.5 * np.sin(2.0 * np.pi * u)) * (e[2:] + 0.5 * e[1:-1] + 0.25 * e[:-2])


class SingleSeries(Workload):
    name = "single_series"
    rate_kind = "long"
    call_kind = "cli"
    rate_unit = "series points tested"
    call_what = "one `python -m dftstat.cli test` process"
    CLI_T = 512
    CLI_M = 4
    CLI_CALLS = 2  # per round: one CLI process is 2 s, so one a round gives too few samples
    LONG_M = 10
    DFT_SAMPLES = 4

    def __init__(self, lib, root, seed, smoke):
        super().__init__(lib, root, seed, smoke)
        self.long_sizes = (4096, 4093) if smoke else (2 ** 18, 262139)
        self.seg_T = 2048 if smoke else 2 ** 16
        self.seg_depth = 2 if smoke else 4
        self.working_set_bytes = max(self.long_sizes) * 16
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.inputs: dict[int, dict] = {}

    def cli_argv(self, path: str) -> list[str]:
        return ["test", path, "--m", str(self.CLI_M), "--format", "json"]

    def _inputs(self, k):
        if k not in self.inputs:
            cli_x = analyst_series(self.CLI_T, self.seed, k, 0)
            rel = f".bench_build/inputs/cli-{self.seed}-{k}.txt"
            path = self.root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("".join(format(v, ".17g") + "\n" for v in cli_x))
            self.inputs[k] = {
                "cli": (rel, cli_x),
                "long": [analyst_series(T, self.seed, k, 1 + j)
                         for j, T in enumerate(self.long_sizes)],
                "seg": analyst_series(self.seg_T, self.seed, k, 3),
            }
        return self.inputs[k]

    def setup(self):
        self._inputs(0)
        x = analyst_series(1024, self.seed, 0, 9)
        self.lib.stattest.stationarity_test(x, m=self.LONG_M)
        self.lib.stattest.segmented_test(x, depth=1)

    def _cli(self, rel):
        span = self.tracer.begin("cli.process") if self.tracer else None
        try:
            return subprocess.run([sys.executable, "-m", "dftstat.cli", *self.cli_argv(rel)],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=60)
        finally:
            if span is not None:
                self.tracer.end(span)

    def run_round(self, k):
        inp = self._inputs(k)
        st = self.lib.stattest
        ops = [self._run("cli", k, 1, self._cli, inp["cli"][0]) for _ in range(self.CLI_CALLS)]
        for x in inp["long"]:
            ops.append(self._run("long", k, x.size, st.stationarity_test, x, m=self.LONG_M))
        ops.append(self._run("long", k, self.seg_T * (self.seg_depth + 1),
                             st.segmented_test, inp["seg"], depth=self.seg_depth))
        ops[-1].meta["segmented"] = True
        self.inputs.pop(k - 1, None)
        return ops

    # -- checks ----------------------------------------------------------------

    def _check_test(self, op, x, res, lags, ref_stat, rtol_ref):
        want = oracle.statistic(x, lags)
        if not oracle.rel_close(res.statistic, want, oracle.ORACLE_RTOL):
            _fail(op, f"T={x.size}: statistic {res.statistic!r} != oracle {want!r}")
        if res.dof != 2 * len(lags) or \
                abs(res.p_value - oracle.chisq_sf(want, 2 * len(lags))) > oracle.PVALUE_ATOL:
            _fail(op, f"T={x.size}: dof or p-value differs from chi-square")
        if ref_stat is not None and not oracle.rel_close(res.statistic, ref_stat, rtol_ref):
            _fail(op, f"T={x.size}: statistic differs from the recorded reference")

    def _check_transform(self, op, x):
        xc = x - x.mean()
        ks = np.random.default_rng([self.seed, op.round, x.size]).integers(
            1, x.size + 1, size=self.DFT_SAMPLES)
        err = oracle.check_dft_samples(xc, oracle.fft_dft(xc), ks)
        if not err <= 1e-12:
            _fail(op, f"T={x.size}: oracle transform off direct sums by {err:.3g}")

    def _check_cli(self, op, rel, x, ref):
        proc = op.output
        if proc.returncode != 0:
            _fail(op, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        try:
            payload = json.loads(proc.stdout)
            cfg, res = payload["config"], payload["result"]
        except (ValueError, KeyError, TypeError) as exc:
            _fail(op, f"unreadable CLI output: {exc}")
            return
        lags = list(range(1, self.CLI_M + 1))
        want = oracle.statistic(x, lags)
        p = oracle.chisq_sf(want, 2 * self.CLI_M)
        expected_cfg = {"input": rel, "transform": None, "T": self.CLI_T, "lags": lags,
                        "kernel": "daniell", "ridge_factor": 1e-3, "correction": "gaussian",
                        "demeaned": True}
        if payload.get("command") != "test" or any(cfg.get(k) != v for k, v in expected_cfg.items()) \
                or not oracle.rel_close(cfg.get("bandwidth", 0.0), self.CLI_T ** (-1.0 / 3.0), 1e-12):
            _fail(op, f"CLI config differs: {cfg}")
        if not oracle.rel_close(res.get("statistic", math.nan), want, oracle.ORACLE_RTOL):
            _fail(op, f"CLI statistic {res.get('statistic')!r} != oracle {want!r}")
        if res.get("dof") != 2 * self.CLI_M or abs(res.get("p_value", math.nan) - p) > oracle.PVALUE_ATOL:
            _fail(op, "CLI dof or p-value differs from chi-square")
        for level, flag in (res.get("decisions") or {}).items():
            if abs(p - float(level)) > oracle.PVALUE_ATOL and flag != (p < float(level)):
                _fail(op, f"CLI decision at {level} is wrong")
        if set((res.get("decisions") or {})) != {"0.01", "0.05", "0.1"}:
            _fail(op, "CLI decisions missing levels")
        if ref is not None:
            bw = "bandwidth"
            if {k: v for k, v in cfg.items() if k != bw} != \
                    {k: v for k, v in ref["config"].items() if k != bw} \
                    or not oracle.rel_close(cfg.get(bw, 0.0), ref["config"][bw], oracle.REFERENCE_RTOL) \
                    or res["dof"] != ref["result"]["dof"] \
                    or res["decisions"] != ref["result"]["decisions"] \
                    or not oracle.rel_close(res["statistic"], ref["result"]["statistic"],
                                            oracle.REFERENCE_RTOL) \
                    or abs(res["p_value"] - ref["result"]["p_value"]) > oracle.PVALUE_ATOL:
                _fail(op, "CLI output differs from the recorded reference")

    def verify(self, ops, refs):
        rounds = (refs or {}).get("rounds", [])
        for k, round_ops in by_round(ops).items():
            self.inputs.clear()
            inp = self._inputs(k)
            ref = rounds[k] if k < len(rounds) else None
            clis, tests = round_ops[:self.CLI_CALLS], round_ops[self.CLI_CALLS:]
            for cli in clis:
                if cli.error is None:
                    rel, x = inp["cli"]
                    self._check_cli(cli, rel, x, ref["cli"] if ref else None)
            for j, (op, x) in enumerate(zip(tests[:-1], inp["long"])):
                if op.error is None:
                    self._check_transform(op, x)
                    self._check_test(op, x, op.output, range(1, self.LONG_M + 1),
                                     ref["long"][j] if ref else None, oracle.REFERENCE_RTOL_LONG)
            seg = tests[-1]
            if seg.error is None:
                self._check_segments(seg, inp["seg"], ref["segments"] if ref else None)

    def _check_segments(self, op, x, ref):
        blocks = op.output.blocks
        expected = []
        for d in range(self.seg_depth + 1):
            n = 2 ** d
            base = x.size // n
            expected += [(d, i * base, (i + 1) * base if i < n - 1 else x.size) for i in range(n)]
        if [(b.depth, b.start, b.stop) for b in blocks] != expected:
            _fail(op, "segmented_test blocks differ from the dyadic split")
            return
        self._check_transform(op, x)
        for j, b in enumerate(blocks):
            self._check_test(op, x[b.start:b.stop], b.result, range(1, 5),
                             ref[j] if ref else None, oracle.REFERENCE_RTOL_LONG)

    def reference(self, ops):
        rounds: dict[int, dict] = {}
        for op in ops:
            r = rounds.setdefault(op.round, {"long": []})
            if op.kind == "cli":
                r["cli"] = json.loads(op.output.stdout)
            elif op.meta.get("segmented"):
                r["segments"] = [b.result.statistic for b in op.output.blocks]
            else:
                r["long"].append(op.output.statistic)
        return {"rounds": [rounds[k] for k in sorted(rounds)]}

    def aliases(self, rate, p50, tail, per):
        return [(f"long_points_per_{per}", rate, f"1/{per}"),
                (f"cli_test_p50_{per}", p50, per),
                (f"cli_test_tail_{per}", tail, per)]


WORKLOADS = {w.name: w for w in (McTable, LagProfile, SingleSeries)}
