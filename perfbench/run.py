"""Benchmark entry point: runs each workload in a fresh, pinned process.

    python3 perfbench/run.py --workload capacity-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The runner itself imports no numpy. It starts ``bench.py`` for one workload
at a time with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set
to 1 and SINRSCHED_THREADS removed, waits for it (killing it after
CHILD_TIMEOUT_S), and passes its output and exit code through. With
``--workload all`` it runs every workload in turn and ends with one result
line whose metrics are named ``<workload>/<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("capacity-large", "latency-medium", "ratio-small", "cli-roundtrip")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


def run_workload(name, argv_rest):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **PINNED)
    env.pop("SINRSCHED_THREADS", None)
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", name, *argv_rest]
    proc = subprocess.Popen(cmd, env=env, cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3, None
    finally:  # also on SIGTERM: never leave the child running
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    lines = stdout.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, (stdout, result)


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, _exit_on_signal)
    parser = argparse.ArgumentParser(description="sinrsched benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    args, rest = parser.parse_known_args()
    if args.workload != "all":
        code, out = run_workload(args.workload, rest)
        if out is not None:
            sys.stdout.write(out[0])
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        code, out = run_workload(name, rest)
        worst = worst or code
        if out is None or out[1] is None:
            combined["correct"] = False
            continue
        stdout, result = out
        sys.stdout.write("\n".join(stdout.rstrip("\n").splitlines()[:-1]) + "\n")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    if worst == 0:
        print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
