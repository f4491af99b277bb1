"""One benchmark sample: a cold ``clploop analyze FILE --json`` in this fresh
interpreter.

    python perfbench/sample.py FILE [--trace]

Run with ``src`` on PYTHONPATH.  Times the import of ``clploop.cli`` (the
set-up a user pays per process) and then one call of ``clploop.cli.main``
with stdout captured.  With ``--trace`` the layer wrappers of spans.py are
installed after the import and their spans are written out at exit.  Prints
one JSON object on stdout: the three times, the exit code or error, the peak
resident memory, the captured report and the spans.

Only ``sys`` and ``time`` are imported before the timed import, so the
modules clploop pulls in count towards its set-up time.  Before that, a
fixed loop of builtin operations is timed (``calib_s``): the speed of the
machine at this moment, which shares its processors with other work.
"""

import sys
import time


def calibrate() -> float:
    """Median of five timings of a fixed loop that uses builtins only, so it
    neither warms nor depends on anything clploop loads."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        table = {}
        for i in range(30000):
            table[i & 1023] = table.get(i & 1023, 0) + i * 7 // 3
        times.append(time.perf_counter() - start)
    return sorted(times)[2]


calib_s = calibrate()
t0 = time.perf_counter()
import clploop.cli  # noqa: E402

setup_s = time.perf_counter() - t0

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    path = sys.argv[1]
    tracer = None
    if "--trace" in sys.argv[2:]:
        import spans

        tracer = spans.Tracer()
        tracer.install()  # wraps clploop.cli.main among the rest
    captured = io.StringIO()
    stdout, sys.stdout = sys.stdout, captured
    rc, error = None, None
    start = time.perf_counter()
    try:
        rc = clploop.cli.main(["analyze", path, "--json"])
    except SystemExit as err:
        rc = err.code
    except Exception:
        error = traceback.format_exc()
    analyze_s = time.perf_counter() - start
    sys.stdout = stdout
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({
        "calib_s": calib_s,
        "setup_s": setup_s,
        "analyze_s": analyze_s,
        "rc": rc,
        "error": error,
        "peak_rss_mb": peak_kb / 1024,
        "report": captured.getvalue(),
        "spans": tracer.export() if tracer else None,
    }, sys.stdout)


if __name__ == "__main__":
    main()
