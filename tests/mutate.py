"""Mutation gate: the test suite must fail on every mutant in mutants.json.

A mutant is a small deliberate fault: in one file of the package, one piece
of text (``old``, which must occur exactly once) is replaced by another
(``new``); ``fault`` says what it models.  For each mutant this script
copies the checkout to a temporary directory, applies the mutant there and
runs ``python -m pytest -x -q`` in the copy, deselecting the test that
checks every mutant's old text is present (the mutant removed it).  The
unmutated copy is run first, with that test, since a suite that fails
without a mutant would kill every mutant.
The checkout itself is only read.

    python tests/mutate.py

Exit status 0 when every mutant is killed; 1 when a mutant survives, a
mutant's old text no longer occurs exactly once, or the unmutated suite
fails.  Not collected by pytest (its name does not start with ``test_``).
Standard library only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_out")
# Checks that each mutant's old text occurs once in the checkout; in a mutated
# copy it fails by construction, so it would kill every mutant on its own.
STALE_TEST = "tests/test_properties.py::TestMutationGate::test_no_mutant_is_stale"


def _stale(mutants: list[dict]) -> list[str]:
    """The faults of the mutants whose old text does not occur exactly once."""
    return [m["fault"] for m in mutants
            if (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"]) != 1]


def _run_suite(mutant: dict | None) -> tuple[bool, str, float]:
    """Whether pytest passes on a copy of the checkout with the mutant
    applied, the last line of its report, and the seconds it took."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if mutant is not None:
            target = copy / mutant["file"]
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        start = time.perf_counter()
        args = [sys.executable, "-m", "pytest", "-x", "-q"]
        if mutant is not None:
            args += ["--deselect", STALE_TEST]
        proc = subprocess.run(args, cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, (failed or lines or ["no output"])[-1], seconds


def main() -> int:
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))
    stale = _stale(mutants)
    for fault in stale:
        print(f"STALE     {fault}: its old text does not occur exactly once")
    if stale:
        return 1
    passed, last, seconds = _run_suite(None)
    print(f"unmutated {'passes' if passed else 'FAILS'} ({seconds:.1f} s): {last}")
    if not passed:
        return 1
    survivors = 0
    for m in mutants:
        passed, last, seconds = _run_suite(m)
        survivors += passed
        print(f"{'SURVIVED' if passed else 'killed  '}  {m['fault']} ({seconds:.1f} s)\n"
              f"          {last}")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
