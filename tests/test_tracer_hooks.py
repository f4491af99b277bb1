"""The names the per-layer benchmark wraps must stay where it looks for them.

``perfbench/spans.py`` replaces functions of the clploop modules by name
(``Tracer.install``); a refactor that moves or removes one of those names
makes every traced benchmark run fail, and one that binds a wrapped function
to a local alias makes its counters read zero.  The tracer runs in a child
process so the wrappers never reach this test session.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPAGATING = """\
import spans
from clploop import analyze_program, parse_program

tracer = spans.Tracer()
tracer.install()
report = analyze_program(parse_program(
    "p(A) <- A = B + 1, B >= 0 <> p(B).\\n"
    "q(Z) <- Z <= 5 <> p(W).\\n"
    "s(U) <- U >= 0 <> q(V).\\n"))
assert len(report.propagated) == 2, report.propagated
names = {span[spans.NAME] for span in tracer.spans}
for name in ("analyzer.propagate", "filters.more_general"):
    assert name in names, (name, sorted(names))
"""

# a run that neither repeats nor drifts by a diagonal affine map executes
# every step, one derivation_step call each
DRIFTING_STEPS = """\
import spans
from clploop.engine import run
from clploop.syntax import parse_program, parse_query

tracer = spans.Tracer()
tracer.install()
state = run(parse_query("p(0, 0)"),
            parse_program("p(A, B) <- C = A + B, D = B + 1 <> p(C, D)."), 10)
assert state.steps == 10 and state.cycle is None, state
steps = [span for span in tracer.spans if span[spans.NAME] == "engine.step"]
assert len(steps) == 10, len(steps)
"""

# every head decision is charged to neutral.head, and the body decisions,
# made only after a passing head, to neutral.body
NEUTRALITY_DECIDES = """\
import spans
from clploop import analyze_program, parse_program

tracer = spans.Tracer()
tracer.install()
report = analyze_program(parse_program(
    "p(X1, X2) <- X1 <= X2, Y1 = X1 + 1, Y2 = X2 <> p(Y1, Y2).\\n"))
checks = report.reports[0].checks
notes = [span[spans.NOTE] for span in tracer.spans
         if span[spans.NAME] == "linarith.decide"]
head_passes = sum(1 for check in checks if check.head_ok)
assert notes.count("neutral.head") == len(checks) == 4, notes
assert notes.count("neutral.body") == head_passes == 2, notes
"""

# the scan builds a candidate filter only for a passing subset, and decides
# subsumption as generality at the unfiltered positions, a more_general call
SCAN_SPANS = """\
import spans
from clploop import analyze_program, parse_program

tracer = spans.Tracer()
tracer.install()
report = analyze_program(parse_program(
    "p(X1, X2) <- X1 <= X2, Y1 = X1 + 1, Y2 = X2 <> p(Y1, Y2).\\n"))
checks = report.reports[0].checks
def spans_of(name):
    return [span for span in tracer.spans if span[spans.NAME] == name]
scan = tracer.spans.index(spans_of("analyzer.clause")[0])
passed = sum(1 for check in checks if check.passed)
assert len(spans_of("analyzer.candidate_filter")) == passed == 1, checks
decided = sum(1 for check in checks if check.subsumes is not None)
general = spans_of("filters.more_general")
assert len(general) == decided == 1, checks
assert all(span[spans.PARENT] == scan for span in general), general
"""

# the benchmark's engine counters on the bundled corpus: a change to the step
# or to the run must keep every witness run and step visible to the tracer
CORPUS_COUNTERS = """\
import contextlib, io, sys
import spans
from clploop import cli

tracer = spans.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["analyze", sys.argv[1], "--json"])
assert rc == 0, rc
metrics = spans.summarize(tracer.export())
counts = (metrics["engine.runs"], metrics["engine.steps"])
assert counts == (23, 51), counts
"""


def run_in_perfbench(code, *args):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True,
        timeout=60,
    )


def test_tracer_installs():
    proc = run_in_perfbench("import spans; spans.Tracer().install()")
    assert proc.returncode == 0, proc.stderr


def test_propagation_spans_recorded():
    proc = run_in_perfbench(PROPAGATING)
    assert proc.returncode == 0, proc.stderr


def test_engine_steps_counted():
    proc = run_in_perfbench(DRIFTING_STEPS)
    assert proc.returncode == 0, proc.stderr


def test_neutrality_decides_charged_to_their_builders():
    proc = run_in_perfbench(NEUTRALITY_DECIDES)
    assert proc.returncode == 0, proc.stderr


def test_scan_spans_follow_passing_subsets():
    proc = run_in_perfbench(SCAN_SPANS)
    assert proc.returncode == 0, proc.stderr


def test_corpus_engine_counters():
    corpus = ROOT / "src" / "clploop" / "corpus" / "demo.clp"
    proc = run_in_perfbench(CORPUS_COUNTERS, str(corpus))
    assert proc.returncode == 0, proc.stderr
