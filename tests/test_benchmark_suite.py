"""The benchmark harness's own tests, run as part of this suite.

``tests/`` and ``perfbench/tests/`` each have a conftest module named
``conftest``, so one pytest session cannot collect both: the second
suite's ``from conftest import ...`` would resolve to the first one's.  So
the harness's suite runs in a fresh interpreter, and a change to the
program that breaks what the harness calls (its span counts, its inputs)
fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_harness_suite_passes():
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/tests"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
