"""The narrative scripts in demos/ run to completion against the current API."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))

# the sha256 of each pinned demo's stdout: demo 02 prints its seeded
# catalog checks, demo 03 every closed-form flow in lowest terms
STDOUT_SHA256 = {
    "02_expansion_identities.py": "acdf83df4dbf51a673b5bbb7b3cf7948159e7775dd473658f91fa77e70cbe181",
    "03_toda_flows.py": "8b07306e4b364daa691152195a55b4705bca92e3d1583b4b30dd70d39710f3f4",
}


def _run(name: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, f"demos/{name}"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_every_demo_is_listed():
    assert len(DEMOS) == 4, DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    proc = _run(name)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    if name in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[name]
