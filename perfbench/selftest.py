"""Self-test of the benchmark: the deterministic counters of two traced runs
with the same seed must repeat exactly, on every workload, and every report
must be correct.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a checkout; takes about a minute.  Exits 1 on the
first failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DETERMINISTIC = ("engine.steps", "analyzer.subsets", "analyzer.propagated")


def counters(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of "
                         f"{result['attempted']} clauses wrong")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith("_calls") or name in DETERMINISTIC}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for workload in workloads.NAMES:
        first = counters(workload, args.seed)
        second = counters(workload, args.seed)
        if first != second:
            changed = {k: (first[k], second.get(k)) for k in first
                       if first[k] != second.get(k)}
            print(f"{workload}: counters differ between runs: {changed}")
            return 1
        print(f"{workload}: {len(first)} counters repeat: "
              + ", ".join(f"{k}={v}" for k, v in sorted(first.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
