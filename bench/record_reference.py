"""Record the library's outputs at the reference seed into reference.json.

    python3 bench/record_reference.py

Runs the first rounds of each workload at seed 0 with the full problem
sizes, checks them against the oracle, and writes bench/reference.json.
Later runs at seed 0 compare every output of those rounds with it, so a
change that alters a statistic beyond rounding fails the benchmark. Record
again only when a change of the statistic is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import envinfo  # noqa: E402

envinfo.pin_threads()

import run  # noqa: E402
import workloads  # noqa: E402

ROUNDS = {"mc_table": 3, "lag_profile": 8, "single_series": 3}


def main():
    lib = run.import_library()
    out = {"seed": workloads.REFERENCE_SEED,
           "git_commit": envinfo.environment(run.ROOT, 0)["git_commit"]}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(lib, run.ROOT, workloads.REFERENCE_SEED, smoke=False)
        w.setup()
        ops = [op for k in range(ROUNDS[name]) for op in w.run_round(k)]
        w.verify(ops, None)
        bad = [op.error for op in ops if op.error]
        if bad:
            raise SystemExit(f"{name}: outputs fail the oracle, not recording: {bad[:3]}")
        out[name] = w.reference(ops)
        print(f"{name}: recorded {ROUNDS[name]} rounds")
    (BENCH / "reference.json").write_text(json.dumps(out, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
