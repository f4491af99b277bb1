"""The names the per-layer benchmark wraps must stay where it looks for them.

``perfbench/spans.py`` replaces functions of the clploop modules by name
(``Tracer.install``); a refactor that moves or removes one of those names
makes every traced benchmark run fail.  The install runs in a child process
so the wrappers never reach this test session.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.Tracer().install()"],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
