"""Command-line harness: round trips and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import sinrsched

# the child process imports the same package as the tests, installed or not
SRC = str(Path(sinrsched.__file__).resolve().parents[1])


def run_cli(*args):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "sinrsched.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_gen_solve_verify_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    assert run_cli("gen", "--n", "8", "--seed", "42", "--out", str(inst)).returncode == 0
    for algorithm in ("unlimited", "limited"):
        r = run_cli(
            "solve", "--instance", str(inst), "--algorithm", algorithm, "--out", str(sol)
        )
        assert r.returncode == 0
        v = run_cli("verify", "--instance", str(inst), "--artifact", str(sol))
        assert v.returncode == 0, v.stderr


def test_verify_flags_tampered_power(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run_cli("gen", "--n", "8", "--seed", "7", "--out", str(inst))
    run_cli("solve", "--instance", str(inst), "--algorithm", "unlimited", "--out", str(sol))
    data = json.loads(sol.read_text())
    assert data["selected"], "expected a nonempty solution"
    victim = str(data["selected"][0])
    data["powers"][victim] = data["powers"][victim] / 2
    sol.write_text(json.dumps(data))
    r = run_cli("verify", "--instance", str(inst), "--artifact", str(sol))
    assert r.returncode == 1
    assert f"link {victim}" in r.stderr


def test_malformed_input_exit_code(tmp_path):
    r = run_cli("solve", "--instance", "/nonexistent.json", "--algorithm", "unlimited")
    assert r.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("solve", "--instance", str(bad), "--algorithm", "unlimited")
    assert r.returncode == 2


def test_schedule_and_verify(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "sched.json"
    r = run_cli(
        "gen", "--n", "5", "--seed", "9",
        "--utility", json.dumps({"family": "step", "steps": 3, "value_max": 2.0}),
        "--demand-min", "0.5", "--demand-max", "2.0",
        "--out", str(inst),
    )
    assert r.returncode == 0, r.stderr
    r = run_cli("schedule", "--instance", str(inst), "--out", str(out))
    assert r.returncode == 0, r.stderr
    data = json.loads(out.read_text())
    assert data["scheme"] in (1, 2) and data["fulfilled"]
    assert run_cli("verify", "--instance", str(inst), "--artifact", str(out)).returncode == 0


def test_oracle_subcommand(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "cert.json"
    run_cli("gen", "--n", "4", "--seed", "3", "--out", str(inst))
    r = run_cli("oracle", "--instance", str(inst), "--cap", "inf", "--out", str(out))
    assert r.returncode == 0
    cert = json.loads(out.read_text())
    assert set(cert) >= {"feasible", "iterations", "method"}
    r = run_cli("oracle", "--instance", str(inst), "--brute", "variable", "--out", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["size"] >= 1


def test_experiment_report_and_csv(tmp_path):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    r = run_cli(
        "experiment", "--name", "ratio", "--n", "6", "--trials", "5",
        "--seed", "7", "--out", str(out), "--csv", str(csv_path),
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert report["seed"] == 7
    assert report["summary"]["violations"] == 0
    header = csv_path.read_text().splitlines()[0]
    assert "trial" in header and "instance" in header
    # seeds echoed and results stable across reruns (timings aside)
    r2 = run_cli(
        "experiment", "--name", "ratio", "--n", "6", "--trials", "5",
        "--seed", "7", "--out", str(out),
    )
    assert r2.returncode == 0
    rerun = json.loads(out.read_text())

    def strip(rep):
        return {
            **rep,
            "rows": [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rep["rows"]],
        }

    assert strip(rerun) == strip(report)


def test_experiment_adversary():
    r = run_cli("experiment", "--name", "adversary", "--k", "8")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["summary"]["ratio"] >= 8


def test_thread_fanout_does_not_change_results():
    import os

    from sinrsched.experiments import experiment_ratio

    sequential = experiment_ratio(n=5, trials=8, seed=13)
    os.environ["SINRSCHED_THREADS"] = "4"
    try:
        threaded = experiment_ratio(n=5, trials=8, seed=13)
    finally:
        del os.environ["SINRSCHED_THREADS"]

    def strip(rep):
        return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rep["rows"]]

    assert strip(threaded) == strip(sequential)
