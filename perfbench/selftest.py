"""Self-test of the benchmark: tiny runs of every workload and corruption checks.

    python3 perfbench/selftest.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit, traced and untraced; that a corrupted output is counted as failed;
that recomputation catches a cut schedule that verify_schedule accepts; that
pairings.json names only real workloads and metrics; and that the benchmark
refuses to run without the library's source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "0.3", "--tiny"]


def run(workload, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload, *TINY, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.rstrip("\n").splitlines()
    return proc, lines


def parse(lines):
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def test_metrics_printed():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, expected in (("0", e2e), ("1", per_layer)):
            proc, lines = run(name, "--trace", trace)
            check(proc.returncode == 0, f"{name} trace {trace} exited {proc.returncode}: {proc.stderr}")
            report, result = parse(lines)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
            check(result["correct"] and result["failed"] == 0, f"{name} trace {trace}: not correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{name} trace {trace}: metrics {sorted(set(got) ^ set(expected))}")
            if trace == "0":
                shown = report["metrics"]
                for metric, unit in e2e.items():
                    check(shown[metric]["unit"] == unit and shown[metric]["samples"] >= 1,
                          f"{name}: report lacks {metric}")
                check(shown["failed_frac"] == {"value": 0.0, "unit": "ratio",
                                               "samples": result["attempted"]},
                      f"{name}: failed_frac")
                check("percentile" in shown["op_tail_ms"], f"{name}: tail percentile not stated")
                extra = {"latency-medium": "schedule_slots", "ratio-small": "opt_over_alg"}.get(name)
                check(extra is None or extra in shown, f"{name}: report lacks {extra}")
                check(len(report["result_digests"]) == 1, f"{name}: passes disagree")
        print(f"ok   metrics printed: {name}")


def test_corruption_counts_as_failed():
    for w in SPEC["workloads"]:
        proc, lines = run(w["name"], "--trace", "0", "--corrupt")
        check(proc.returncode == 1, f"{w['name']} --corrupt exited {proc.returncode}")
        report, result = parse(lines)
        check(not result["correct"] and result["failed"] >= report["passes"]["untraced"],
              f"{w['name']}: corrupted outputs not counted as failed")
        check(report["metrics"]["failed_frac"]["value"] > 0, f"{w['name']}: failed_frac did not rise")
        print(f"ok   corrupted output counted: {w['name']} failed_frac "
              f"{report['metrics']['failed_frac']['value']:.3f}")


def test_cut_schedule():
    """A schedule cut to one slot and relabelled scheme 1 passes verify_schedule
    but not the demand recomputation."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import build_latency_medium

    op = build_latency_medium(3, True, None).ops[0]
    schedule = op.call()
    check(len(schedule.slots) > 1 and not op.check(schedule)[0], "uncut schedule flagged")
    problems = op.check(op.corrupt(schedule))[0]
    check(not any(p.startswith("verify_schedule") for p in problems),
          "verify_schedule now rejects the cut schedule; the demand check can rely on it")
    check(any("delivered" in p for p in problems), "cut schedule not caught by the demand check")
    print(f"ok   cut schedule passes verify_schedule, caught by recomputation "
          f"({len(problems)} problems)")


def test_pairings():
    names = {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    pairings = json.loads((HERE / "pairings.json").read_text())
    for item in pairings["items"]:
        for move in item["moves"]:
            check(move["workload"] in names, f"pairing names workload {move['workload']}")
            check(set(move["metrics"]) <= e2e, f"pairing names metrics {move['metrics']}")
        check(set(item["unmoved"]) <= names, f"pairing names workloads {item['unmoved']}")
        check(set(item["per_layer"]) <= per_layer, f"pairing names layers {item['per_layer']}")
    print("ok   pairings name real workloads and metrics")


def test_refuses_without_source():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines = run("capacity-large", "--trace", "0", cwd=bare)
        check(proc.returncode != 0, "ran without the library source")
        check(not any(line.startswith('{"correct"') for line in lines), "printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   refuses to run without the library source")


if __name__ == "__main__":
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    test_pairings()
    test_refuses_without_source()
    test_metrics_printed()
    test_corruption_counts_as_failed()
    test_cut_schedule()
    print("selftest passed")
