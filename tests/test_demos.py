"""Smoke test: every demo script runs to completion and prints what it
always printed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sinrsched

# the child process imports the same package as the tests, installed or not
SRC = str(Path(sinrsched.__file__).resolve().parents[1])
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# sha256 prefixes of every demo's stdout, so that a change to a solver or an
# oracle cannot silently change what a demo shows
PINNED = {
    "01_threshold_capacity.py": "d96cb34c96f35a04",
    "02_flexible_rates.py": "d4c6ff1d8484c644",
    "03_latency_scheduling.py": "2fd7d44c2409412f",
    "04_oracles_and_ratios.py": "921fbd7c4e31a053",
    "05_lower_bounds.py": "a0a0108d236fcd3c",
    "06_decompositions.py": "5177d9b7bb6a3720",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest[:16] == PINNED[demo.name], result.stdout
