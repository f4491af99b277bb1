"""clploop benchmark: cold ``clploop analyze FILE --json`` runs.

    python3 perfbench/run.py --workload corpus|shift|chain --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The workload's rule file is generated from
the seed into ``.perfbench_out/``; then, until S seconds have passed, each
sample runs perfbench/sample.py in a fresh interpreter, one after another,
and every report is checked against the workload's expected verdicts.

With ``--trace 0`` the samples are untraced and the end-to-end metrics are
reported: set-up (import) time, analyze time, clauses per second and peak
memory, each the median over the samples.  The two times are scaled to a
reference machine speed: each sample's wall time is multiplied by
REFERENCE_CALIB_S over the time the sample measured for a fixed builtin loop
just before (see sample.py), because the speed of a shared machine drifts
by tens of percent over minutes.  The unscaled medians are printed on the
line before the result.  With ``--trace 1`` traced and untraced samples
alternate, and the per-layer metrics are the medians over the traced ones,
unscaled; ``trace.overhead_s`` is the traced minus the untraced median
analyze time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted`` (clauses analyzed), ``failed`` (clauses with a wrong verdict;
a sample that exits non-zero or raises fails all its clauses) and
``metrics``.  Lines before it name the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SAMPLE_TIMEOUT_S = 120
# calibration loop time the reported end-to-end times are scaled to; about
# its time on an idle 2.0 GHz Xeon core with Python 3.11
REFERENCE_CALIB_S = 0.005


def sample(path: Path, env: dict, trace: bool, workload) -> tuple[dict | None, int]:
    """One sample process: its result and the number of clauses with a wrong
    verdict.  A sample that fails to run, exits non-zero or raises yields no
    result and fails every clause."""
    cmd = [sys.executable, str(HERE / "sample.py"), str(path)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=SAMPLE_TIMEOUT_S)
    try:
        result = json.loads(proc.stdout)
    except ValueError:
        result = None
    if result is None or proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None, workload.clauses
    if result["rc"] != 0 or result["error"]:
        sys.stderr.write(result["error"] or f"analyze exited {result['rc']}\n")
        return None, workload.clauses
    return result, workload.check(result["report"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "clploop" / "cli.py").is_file():
        print("error: run from the root of a clploop checkout "
              "(src/clploop not found)", file=sys.stderr)
        return 2
    try:
        workload = workloads.make(args.workload, root, args.seed)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    rules = out_dir / f"{workload.name}-{args.seed}.clp"
    rules.write_text(workload.text, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)

    # compiled bytecode and the file cache are warm for a user's runs too
    subprocess.run([sys.executable, "-c", "import clploop.cli"], env=env,
                   check=True, timeout=SAMPLE_TIMEOUT_S)

    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    runs = 0
    started = time.perf_counter()
    while runs < 1 + args.trace or time.perf_counter() - started < args.seconds:
        trace = bool(args.trace) and runs % 2 == 0
        runs += 1
        result, wrong = sample(rules, env, trace, workload)
        attempted += workload.clauses
        failed += wrong
        if result is not None:
            (traced if trace else plain).append(result)
    if not plain or (args.trace and not traced):
        print(f"error: too few of {runs} samples ran to completion", file=sys.stderr)
        return 1

    def median(key: str, results: list[dict]) -> float:
        return statistics.median(r[key] for r in results)

    analyze_s = median("analyze_s", plain)
    if args.trace:
        per_sample = [spans.summarize(r["spans"]) for r in traced]
        # counts repeat exactly between samples; keep them whole numbers
        metrics = {name: (statistics.median_low if unit(name) == "count"
                          else statistics.median)(s[name] for s in per_sample)
                   for name in per_sample[0]}
        metrics["trace.analyze_s"] = median("analyze_s", traced)
        metrics["trace.overhead_s"] = metrics["trace.analyze_s"] - analyze_s
        metrics["fail_ratio"] = failed / attempted
        print(f"{len(traced)} traced and {len(plain)} untraced samples")
    else:
        def scaled(key: str) -> float:
            return statistics.median(r[key] * REFERENCE_CALIB_S / r["calib_s"]
                                     for r in plain)

        metrics = {
            "setup_s": scaled("setup_s"),
            "analyze_s": scaled("analyze_s"),
            "clauses_per_s": workload.clauses / scaled("analyze_s"),
            "peak_rss_mb": median("peak_rss_mb", plain),
        }
        print(f"{len(plain)} samples; unscaled medians: "
              f"setup {median('setup_s', plain):.4f} s, analyze {analyze_s:.4f} s, "
              f"calibration loop {median('calib_s', plain) * 1e3:.3f} ms")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
