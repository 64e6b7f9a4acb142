"""Smoke test: every demo script runs to completion, and the demos that
narrate flexible levels and latency slots print what they always printed."""

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
# sha256 prefixes of the stdout of the demos that read level thresholds,
# slot completions and gains, and the schedule's lengths and fulfilment
PINNED = {
    "02_flexible_rates.py": "d4c6ff1d8484c644",
    "03_latency_scheduling.py": "2fd7d44c2409412f",
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
    if demo.name in PINNED:
        digest = hashlib.sha256(result.stdout.encode()).hexdigest()
        assert digest[:16] == PINNED[demo.name], result.stdout
