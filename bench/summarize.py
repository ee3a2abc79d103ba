"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/summarize.py --workloads mc_table,lag_profile,single_series \
        --seeds 1-10 --out .bench_build/summary.json [--traced]

For each workload and end-to-end metric it prints the median of the runs,
the distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``) and that spread against a third of
the metric's bound in BENCHMARK.json. ``--traced`` adds one ``--trace 1``
run per workload at the first seed. Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_from(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    notes = [ln[2:] for ln in lines[:-1] if ln.startswith("# ")]
    result["environment"] = json.loads(notes[0][len("environment "):])
    result["notes"] = notes[1:]
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", default=".bench_build/summary.json")
    p.add_argument("--traced", action="store_true")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seeds_from(args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            r = run(workload, seed, spec["run_seconds"], 0)
            summary.setdefault("environment", r["environment"])
            runs.append({"seed": seed, "correct": r["correct"], "attempted": r["attempted"],
                         "failed": r["failed"],
                         "metrics": {k: v["value"] for k, v in r["metrics"].items()}})
            print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)
        entry = {"runs": runs, "metrics": {}}
        for name in bounds:
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                      "bound": bounds[name]}
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"  {workload} {name}: median {med:.5g} spread {spread:.4f} "
                  f"(bound {bounds[name]}, third {bounds[name] / 3:.4f}) {flag}", flush=True)
        if args.traced:
            t = run(workload, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in t["metrics"].items()}
            entry["per_layer_run"] = {"seed": seeds[0], "correct": t["correct"],
                                      "failed": t["failed"], "notes": t["notes"]}
        summary["workloads"][workload] = entry
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
