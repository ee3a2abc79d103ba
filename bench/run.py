"""dftstat benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload mc_table --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones from a run that
alternates traced and untraced rounds. See bench/README.md.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import envinfo  # noqa: E402

envinfo.pin_threads()
envinfo.pin_cpu()

import workloads  # noqa: E402  (imports numpy, so after the threads are pinned)
from spans import Tracer, per_layer  # noqa: E402

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
SETUP_SAMPLES = 3  # this process plus two set-up-only children
CLI_SAMPLES = 3
DIRECTION = {"setup_s": "lower", "rate_per_cal": "higher", "call_p50_cal": "lower",
             "call_tail_cal": "lower", "peak_rss_mb": "lower"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny problem sizes, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_library():
    """Import dftstat from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "dftstat" / "__init__.py").is_file():
        print(f"error: no dftstat sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import dftstat
    import dftstat.cli  # noqa: F401  (the CLI module is traced too)
    if Path(dftstat.__file__).resolve().parent != (src / "dftstat").resolve():
        print(f"error: imported dftstat from {dftstat.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return dftstat


def tail(values):
    """(value, percentile, samples beyond it) of the highest percentile with at
    least 10 samples beyond it; the maximum when fewer than 21 samples leave no
    such percentile above the median."""
    v = sorted(values)
    n = len(v)
    if n >= 21:
        return v[n - 11], 100.0 * (n - 10) / n, 10
    return v[-1], 100.0, 0


def figures(w, ops, cost):
    """(rate, call median, call tail, tail note) with each operation costing
    cost(op, cal), cal being the median calibration time of its round. Rate:
    the units of one round over the sum, across the round's rated operations,
    of each one's median cost, so one slow call does not move it."""
    rated: dict[int, list[float]] = {}
    units: dict[int, float] = {}
    calls = []
    for round_ops in workloads.by_round(ops).values():
        if any(op.error is not None for op in round_ops):
            continue
        cal = statistics.median(op.cal_s for op in round_ops)
        for j, op in enumerate(op for op in round_ops if op.kind == w.rate_kind):
            rated.setdefault(j, []).append(cost(op, cal))
            units[j] = op.units
        costs = [cost(op, cal) for op in round_ops if w.call_kind in ("round", op.kind)]
        calls += [sum(costs)] if w.call_kind == "round" else costs
    if not rated or not calls:
        return 0.0, 0.0, 0.0, "no complete round"
    rate = sum(units.values()) / sum(statistics.median(c) for c in rated.values())
    call_tail, pct, beyond = tail(calls)
    return (rate, statistics.median(calls), call_tail,
            f"p{pct:.1f} of {len(calls)} calls, {beyond} beyond it")


def end_to_end(w, ops):
    """Rate and call latency in cal, where an operation costs its time over
    the median time of the calibration jobs of its round; the same figures in
    seconds go into the notes."""
    rate, p50, call_tail, tail_note = figures(w, ops, lambda op, cal: op.seconds / cal)
    raw = figures(w, ops, lambda op, cal: op.seconds)
    # Linux counts a child's maxrss from the parent's resident set at exec,
    # so children's peaks cannot be told apart from this process's; the CLI
    # child's own footprint is the library import, which this process holds too.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "rate_per_cal": (rate, "1/cal"),
        "call_p50_cal": (p50, "cal"),
        "call_tail_cal": (call_tail, "cal"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    cal = statistics.median(op.cal_s for op in ops)
    notes = {
        "rate_per_cal": f"{w.rate_unit} per cal",
        "call_p50_cal": f"median of the calls, {w.call_what}",
        "call_tail_cal": tail_note,
        "peak_rss_mb": "peak resident set of the benchmark process",
        "cal": f"median {cal:.6f} s over {len(ops)} calibration jobs",
        "seconds": f"rate_per_s = {raw[0]:.6g} 1/s, call_p50_s = {raw[1]:.6g} s, "
                   f"call_tail_s = {raw[2]:.6g} s",
    }
    aliases = w.aliases(rate, p50, call_tail, per="cal") + w.aliases(*raw[:3], per="s")
    return metrics, notes, aliases


def setup_children(args):
    """Set-up times of fresh processes doing only the set-up."""
    samples, failures = [], 0
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    for _ in range(SETUP_SAMPLES - 1):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
            samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
        except (OSError, subprocess.SubprocessError, ValueError, KeyError, IndexError):
            failures += 1
    return samples, failures


def cli_layers(w, lib):
    """Interpreter start, library import and in-process CLI time (trace runs
    of single_series)."""
    if w.name != "single_series":
        return {}

    def median_wall(cmd, parse=None):
        out = []
        for _ in range(CLI_SAMPLES):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=w.env, capture_output=True,
                                  text=True, timeout=120, check=True)
            out.append(float(proc.stdout) if parse else time.perf_counter() - t0)
        return statistics.median(out)

    py = sys.executable
    res = {
        "interpreter_s": median_wall([py, "-c", "pass"]),
        "import_s": median_wall([py, "-c", "import time; t = time.perf_counter(); "
                                 "import dftstat; print(time.perf_counter() - t)"], parse=True),
    }
    argv = w.cli_argv(w._inputs(0)["cli"][0])
    times = []
    for _ in range(CLI_SAMPLES):
        t0 = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            code = lib.cli.main(argv)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"in-process CLI exited {code}")
    res["main_inproc_s"] = statistics.median(times)
    return res


def main(argv=None):
    args = parse_args(argv)
    lib = import_library()

    w = workloads.WORKLOADS[args.workload](lib, ROOT, args.seed, args.smoke)
    w.setup()
    workloads.calibrate()
    setup_s = time.perf_counter() - _T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    ops, walls = [], {True: [], False: []}
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = bool(tracer) and k % 2 == 1
        if traced:
            tracer.install(lib)
            tracer.new_round(k)
            w.tracer = tracer
            span = tracer.begin("bench.round")
        t0 = time.perf_counter()
        ops += w.run_round(k)
        walls[traced].append(time.perf_counter() - t0)
        if traced:
            tracer.end(span)
            tracer.uninstall()
            w.tracer = None
        k += 1

    refs = None
    if w.use_references():
        path = BENCH / "reference.json"
        refs = json.loads(path.read_text()).get(w.name) if path.is_file() else None
        if refs is None:
            print(f"warning: no recorded reference for {w.name}", file=sys.stderr)
    t_verify = time.perf_counter()
    try:
        w.verify(ops, refs)
    except Exception as exc:  # an oracle that cannot run fails every operation
        for op in ops:
            op.error = op.error or f"verification error: {type(exc).__name__}: {exc}"

    t_verify = time.perf_counter() - t_verify
    env = envinfo.environment(ROOT, w.working_set_bytes)
    failed_extra = attempted_extra = 0
    if tracer:
        try:
            cli = cli_layers(w, lib)
        except (OSError, subprocess.SubprocessError, ValueError, RuntimeError) as exc:
            print(f"cli layer timing failed: {exc}", file=sys.stderr)
            cli, failed_extra = {}, 1
        attempted_extra = 1 if w.name == "single_series" else 0
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        metrics = per_layer(tracer.summary(), len(walls[True]), cli, overhead)
        notes = {"absent": ", ".join(tracer.absent) or "none",
                 "traced_rounds": str(len(walls[True])),
                 "untraced_rounds": str(len(walls[False]))}
        tracer.write(ROOT / ".bench_build" / "trace" / f"{w.name}-seed{args.seed}.json",
                     {"workload": w.name, "seed": args.seed, "environment": env})
    else:
        measured, notes, aliases = end_to_end(w, ops)
        children, failures = setup_children(args)
        attempted_extra, failed_extra = SETUP_SAMPLES - 1, failures
        metrics = {"setup_s": (statistics.median([setup_s] + children), "s"), **measured}
        notes["setup_s"] = f"median of {1 + len(children)} set-ups: " + ", ".join(
            f"{s:.4f}" for s in [setup_s] + children)

    failed = sum(op.error is not None for op in ops) + failed_extra
    attempted = len(ops) + attempted_extra
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# workload {w.name} seed {args.seed} rounds {k} "
          f"ops {attempted} failed {failed} setup {setup_s:.4f} s verification {t_verify:.2f} s")
    for op in ops:
        if op.error:
            print(f"# FAILED {op.kind} round {op.round}: {op.error}")
    for name, note in notes.items():
        print(f"# {name}: {note}")
    for name, (value, unit) in metrics.items():
        direction = f" ({DIRECTION[name]} is better)" if name in DIRECTION else ""
        print(f"{name} = {value:.6g} {unit}{direction}")
    if not tracer:
        for name, value, unit in aliases:
            print(f"# {w.name} {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
