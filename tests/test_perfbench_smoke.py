"""The benchmark harness still runs against the current scalar and polynomial API.

perfbench wraps GaussianRational's operator methods, reads `.re.numerator`
and builds probe scalars from Fraction pairs; its self-test at tiny degree
fails here, not first in a broken benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "0 failed checks" in proc.stdout, proc.stdout[-2000:]
