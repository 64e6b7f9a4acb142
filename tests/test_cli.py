"""Command-line harness: round trips and exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sinrsched
from sinrsched import (
    CertificationError,
    GenConfig,
    UtilityContractError,
    check_admissible,
    cli,
    experiments,
    gen_random,
    oracle,
    solve_fixed,
    solve_flexible,
    solve_latency,
    solve_limited,
    solve_unlimited,
)
from sinrsched.oracle import BRUTE_FORCE_LIMIT

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


def _exact(obj):
    """``obj`` with every float as its hex form and every tuple as a list,
    so that equal results are equal to the bit."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _exact(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_exact(v) for v in obj]
    return obj


def assert_artifact(text, expected=None):
    """``text`` is an artifact's form: one line of JSON with sorted keys and
    a closing newline, which parses to ``expected`` (the library's
    ``to_dict``), when given, with bit-equal floats."""
    assert text.endswith("\n") and text.count("\n") == 1
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True) + "\n"
    if expected is not None:
        assert _exact(parsed) == _exact(expected)
    return parsed


def test_gen_solve_verify_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    assert run_cli("gen", "--n", "8", "--seed", "42", "--out", str(inst)).returncode == 0
    assert_artifact(inst.read_text(), gen_random(GenConfig(n=8, seed=42)).to_dict())
    for algorithm in ("unlimited", "limited"):
        r = run_cli(
            "solve", "--instance", str(inst), "--algorithm", algorithm, "--out", str(sol)
        )
        assert r.returncode == 0
        assert_artifact(sol.read_text())
        v = run_cli("verify", "--instance", str(inst), "--artifact", str(sol))
        assert v.returncode == 0, v.stderr


# the library call behind each ``solve --algorithm``, in the CLI's default mode
LIBRARY_SOLVES = {
    "unlimited": solve_unlimited,
    "fixed": solve_fixed,
    "limited": solve_limited,
    "flexible": lambda instance: solve_flexible(instance, mode="unlimited"),
}


def test_every_artifact_is_one_sorted_line_of_the_library_dict(tmp_path, capsys):
    utility = {"family": "step", "steps": 3, "value_max": 2.0}
    config = GenConfig(n=12, seed=4, p_max=40000.0, power=40000.0, utility=utility,
                       demand_range=(0.5, 2.0))
    instance = gen_random(config)
    inst = tmp_path / "inst.json"
    out = tmp_path / "out.json"
    assert cli.main([
        "gen", "--n", "12", "--seed", "4", "--pmax", "40000", "--power", "40000",
        "--utility", json.dumps(utility), "--demand-min", "0.5", "--demand-max", "2.0",
        "--out", str(inst),
    ]) == cli.EXIT_OK
    assert_artifact(inst.read_text(), instance.to_dict())
    assert set(LIBRARY_SOLVES) == set(cli.ALGORITHMS)
    for algorithm, solve in LIBRARY_SOLVES.items():
        for trace in (False, True):
            argv = ["solve", "--instance", str(inst), "--algorithm", algorithm, "--out", str(out)]
            assert cli.main(argv + ["--trace"] * trace) == cli.EXIT_OK
            assert_artifact(out.read_text(), solve(instance).to_dict(include_trace=trace))
    assert cli.main(["schedule", "--instance", str(inst), "--out", str(out)]) == cli.EXIT_OK
    assert_artifact(out.read_text(), solve_latency(instance).to_dict())
    assert cli.main(["oracle", "--instance", str(inst), "--out", str(out)]) == cli.EXIT_OK
    assert_artifact(out.read_text(), check_admissible(instance, instance.link_ids).to_dict())
    # without --out the same line goes to stdout
    capsys.readouterr()
    assert cli.main(["oracle", "--instance", str(inst), "--brute", "variable"]) == cli.EXIT_OK
    ids, size = oracle.brute_opt_threshold(instance, regime="variable")
    assert_artifact(capsys.readouterr().out,
                    {"best": list(ids), "size": size, "regime": "variable"})
    assert cli.main(["experiment", "--name", "aloha", "--k", "4", "--trials", "5",
                     "--seed", "3", "--out", str(out)]) == cli.EXIT_OK
    assert_artifact(out.read_text(), experiments.experiment_aloha(k=4, trials=5, seed=3))
    assert cli.main(["experiment", "--name", "adversary", "--k", "4"]) == cli.EXIT_OK
    assert_artifact(capsys.readouterr().out, experiments.experiment_adversary(k=4))


def test_ratio_digest_is_the_hash_of_the_file_gen_writes(tmp_path):
    inst = tmp_path / "inst.json"
    assert cli.main(["gen", "--n", "7", "--seed", "11", "--pmax", "18000",
                     "--out", str(inst)]) == cli.EXIT_OK
    written = inst.read_bytes()
    assert written.endswith(b"\n")
    digest = hashlib.sha256(written[:-1]).hexdigest()[:12]
    assert experiments.instance_digest(gen_random(GenConfig(n=7, seed=11, p_max=18000.0))) == digest


def test_deeply_nested_json_is_bad_input(tmp_path, capsys):
    # the decoder recurses once per level: past the recursion limit that is
    # malformed input naming the file, not an internal error
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    inst = tmp_path / "inst.json"
    assert cli.main(["gen", "--n", "3", "--seed", "1", "--out", str(inst)]) == cli.EXIT_OK
    capsys.readouterr()
    for argv in (["solve", "--instance", str(deep), "--algorithm", "unlimited"],
                 ["verify", "--instance", str(inst), "--artifact", str(deep)]):
        assert cli.main(argv) == cli.EXIT_BAD_INPUT == 2
        assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"
    r = run_cli("solve", "--instance", str(deep), "--algorithm", "unlimited")
    assert (r.returncode, r.stderr) == (2, f"error: {deep}: JSON nested too deeply\n")


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


def test_verify_checks_the_objective_whatever_the_label(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run_cli("gen", "--n", "8", "--seed", "7", "--out", str(inst))
    run_cli("solve", "--instance", str(inst), "--algorithm", "limited", "--out", str(sol))
    data = json.loads(sol.read_text())
    data.update(algorithm="bogus", objective=99)
    sol.write_text(json.dumps(data))
    r = run_cli("verify", "--instance", str(inst), "--artifact", str(sol))
    assert r.returncode == 1
    assert "objective 99.0 does not equal the selected count" in r.stderr


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
    data = assert_artifact(out.read_text())
    assert data["scheme"] in (1, 2) and data["fulfilled"]
    assert run_cli("verify", "--instance", str(inst), "--artifact", str(out)).returncode == 0


def test_oracle_subcommand(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "cert.json"
    run_cli("gen", "--n", "4", "--seed", "3", "--out", str(inst))
    r = run_cli("oracle", "--instance", str(inst), "--cap", "inf", "--out", str(out))
    assert r.returncode == 0
    cert = assert_artifact(out.read_text())
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
    report = assert_artifact(out.read_text())
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


@pytest.mark.parametrize("n", ["0", "-3"])
def test_experiment_ratio_rejects_empty_instances(capsys, n):
    code = cli.main(["experiment", "--name", "ratio", "--n", n, "--trials", "2"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err.startswith("error: ratio experiment needs n >= 1")



def test_experiment_ratio_rejects_more_links_than_the_brute_force_oracle_takes(capsys):
    n = str(BRUTE_FORCE_LIMIT + 1)
    code = cli.main(["experiment", "--name", "ratio", "--n", n, "--trials", "1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err.startswith(f"error: ratio experiment needs n <= {BRUTE_FORCE_LIMIT} ")


def test_experiment_ratio_rejects_an_alpha_whose_cap_overflows(capsys):
    # 20 * 30^300 is beyond float range; it raised OverflowError (exit 3)
    code = cli.main(["experiment", "--name", "ratio", "--alpha", "300", "--trials", "1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err == "error: ratio experiment needs a finite power cap 20 * 30^alpha, got alpha 300\n"


@pytest.mark.parametrize("name, field", [
    ("ratio", "trials"), ("strengthen", "sets"), ("reverse", "sets"), ("aloha", "trials"),
])
@pytest.mark.parametrize("trials", ["0", "-2"])
def test_experiment_rejects_fewer_than_one_trial(capsys, name, field, trials):
    code = cli.main(["experiment", "--name", name, "--trials", trials])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err.startswith(f"error: {field} must be >= 1") and out == ""


def test_experiment_adversary():
    r = run_cli("experiment", "--name", "adversary", "--k", "8")
    assert r.returncode == 0
    report = assert_artifact(r.stdout)
    assert report["summary"]["ratio"] >= 8


@pytest.mark.parametrize("error", [RuntimeError, CertificationError, UtilityContractError])
def test_internal_error_exit_code(tmp_path, monkeypatch, capsys, error):
    inst = tmp_path / "inst.json"
    assert cli.main(["gen", "--n", "4", "--seed", "1", "--out", str(inst)]) == cli.EXIT_OK

    def broken(instance):
        raise error("forced failure")

    monkeypatch.setattr(cli, "solve_unlimited", broken)
    capsys.readouterr()
    code = cli.main(["solve", "--instance", str(inst), "--algorithm", "unlimited"])
    assert code == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "forced failure" in err


def test_matrix_over_the_validation_limit_exits_2(tmp_path, monkeypatch, capsys):
    # a matrix metric above model.METRIC_VALIDATE_LIMIT is bad input, refused
    # before its O(n^3) check
    inst = tmp_path / "inst.json"
    pts = [[0.0], [1.0], [3.0], [6.0]]
    data = sinrsched.gen_line([(0, 1, 1), (2, 3, 1)], alpha=2, noise=0.1).to_dict()
    data["metric"] = {"type": "matrix", "d": [[abs(a[0] - b[0]) for b in pts] for a in pts]}
    inst.write_text(json.dumps(data))
    assert cli.main(["solve", "--instance", str(inst), "--algorithm", "unlimited"]) == cli.EXIT_OK
    monkeypatch.setattr(sinrsched.model, "METRIC_VALIDATE_LIMIT", 3)
    capsys.readouterr()
    code = cli.main(["solve", "--instance", str(inst), "--algorithm", "unlimited"])
    assert code == cli.EXIT_BAD_INPUT == 2
    assert "has 4 points" in capsys.readouterr().err


def _set(path, value):
    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return data
    return edit


@pytest.mark.parametrize(
    "edit,field",
    [
        (_set(["alpha"], [2]), "alpha"),
        (_set(["noise"], "1"), "noise"),
        (_set(["p_max"], True), "p_max"),
        (_set(["links"], None), "links"),
        (_set(["links", 0], 7), "links[0]"),
        (_set(["links", 0, "s"], None), "links[0].s"),
        (_set(["links", 1, "r"], 99), "links[1].r"),
        (_set(["links", 0, "id"], 1.5), "links[0].id"),
        (_set(["links", 0, "beta"], "x"), "links[0].beta"),
        (_set(["links", 0, "demand"], [1]), "links[0].demand"),
        (_set(["links", 0, "utility"], 3), "links[0].utility"),
        (_set(["links", 0, "utility", "steps"], [[None, 1]]), "links[0].utility"),
        (_set(["metric"], None), "metric"),
        (_set(["metric", "points"], {"a": 1}), "metric.points"),
        (_set(["metric", "points", 0], [1, {}]), "metric.points"),
        (_set(["metric", "dim"], "2"), "metric.dim"),
        (_set(["allow_sub_unit_threshold"], "false"), "allow_sub_unit_threshold"),
        (lambda data: [data], "instance"),
        (_set(["metric", "points", 0], [[0], [1]]), "metric.points[0][0]"),  # nested deeper
        (_set(["metric", "points", 1], [0, 10**400]), "metric.points[1][1]"),
        (_set(["metric", "points", 0], ["2", 0]), "metric.points[0][0]"),
        (_set(["links", 0, "beta"], 10**400), "links[0].beta is too large for a float"),
    ],
    # explicit ids, frozen at the names pytest derived from the fields
    ids=[
        "edit-alpha",
        "edit-noise",
        "edit-p_max",
        "edit-links",
        "edit-links[0]",
        "edit-links[0].s",
        "edit-links[1].r",
        "edit-links[0].id",
        "edit-links[0].beta",
        "edit-links[0].demand",
        "edit-links[0].utility0",
        "edit-links[0].utility1",
        "edit-metric",
        "edit-metric.points0",
        "edit-metric.points1",
        "edit-metric.dim",
        "edit-allow_sub_unit_threshold",
        "<lambda>-instance",
        "edit-metric.points[0][0]0",
        "edit-metric.points[1][1]",
        "edit-metric.points[0][0]1",
        "edit-links[0].beta is too large for a float",
    ],
)
def test_mistyped_instance_field_is_bad_input(tmp_path, capsys, edit, field):
    inst = tmp_path / "inst.json"
    assert cli.main(["gen", "--n", "3", "--seed", "1", "--out", str(inst)]) == cli.EXIT_OK
    data = json.loads(inst.read_text())
    data["links"][0]["utility"] = {"type": "step", "steps": [[1.0, 1.0]]}
    data["links"][0]["demand"] = 1.0
    inst.write_text(json.dumps(edit(data)))
    capsys.readouterr()
    code = cli.main(["solve", "--instance", str(inst), "--algorithm", "unlimited"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err.startswith(f"error: {field}")


def _in_slot(edit):
    return lambda data: {"scheme": 1, "slots": [edit(data)]}


def _in_level(edit, thresholds=None):
    def wrap(data):
        level = {"i": 0, "thresholds": {"0": 1.0}, "solution": edit(data)}
        if thresholds is not None:
            level["thresholds"] = thresholds
        return {"levels": [level]}
    return wrap


@pytest.mark.parametrize(
    "edit,field",
    [
        (_set(["selected"], [None]), "selected[0]"),
        (_set(["selected"], [0.0]), "selected[0]"),
        (_set(["selected"], "0"), "selected"),
        (_set(["powers"], {"3": None}), 'powers["3"]'),
        (_set(["powers"], {"x": 1.0}), 'powers["x"]'),
        (_set(["powers"], [1.0]), "powers"),
        (_set(["powers"], {"3": 10**400}), 'powers["3"] is too large for a float'),
        (_set(["sinr"], {"3": "2"}), 'sinr["3"]'),
        (lambda data: {k: v for k, v in data.items() if k != "objective"}, "objective"),
        (_set(["objective"], "1"), "objective"),
        (_set(["algorithm"], 5), "algorithm"),
        (_set(["trace"], [None]), "trace[0]"),
        # an artifact that is not an object; "slots" in 5 raised TypeError and
        # "levels".get AttributeError, exit 3
        (lambda data: [data], "artifact must be an object"),
        (lambda data: 5, "artifact must be an object"),
        (lambda data: None, "artifact must be an object"),
        (lambda data: "slots", "artifact must be an object"),
        (lambda data: "levels", "artifact must be an object"),
        (_in_slot(_set(["selected"], [None])), "slots[0].selected[0]"),
        (lambda data: {"slots": [None]}, "slots[0]"),
        (lambda data: {"slots": 5}, "slots"),
        (_in_level(_set(["powers"], {"3": None})), 'levels[0].solution.powers["3"]'),
        (_in_level(lambda data: data, {"0": None}), 'levels[0].thresholds["0"]'),
        (lambda data: {"levels": [7]}, "levels[0]"),
        (lambda data: {"levels": 5}, "levels"),
    ],
    # explicit ids, frozen at the names pytest derived from the fields
    ids=[
        "edit-selected[0]0",
        "edit-selected[0]1",
        "edit-selected",
        'edit-powers["3"]',
        'edit-powers["x"]',
        "edit-powers",
        'edit-powers["3"] is too large for a float',
        'edit-sinr["3"]',
        "<lambda>-objective",
        "edit-objective",
        "edit-algorithm",
        "edit-trace[0]",
        "<lambda>-solution",
        "number-artifact",
        "null-artifact",
        "slots-string-artifact",
        "levels-string-artifact",
        "<lambda>-slots[0].selected[0]",
        "<lambda>-slots[0]",
        "<lambda>-slots",
        'wrap-levels[0].solution.powers["3"]',
        'wrap-levels[0].thresholds["0"]',
        "<lambda>-levels[0]",
        "<lambda>-levels",
    ],
)
def test_mistyped_artifact_field_is_bad_input(tmp_path, capsys, edit, field):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    assert cli.main(["gen", "--n", "6", "--seed", "7", "--out", str(inst)]) == cli.EXIT_OK
    assert cli.main(
        ["solve", "--instance", str(inst), "--algorithm", "unlimited", "--out", str(sol)]
    ) == cli.EXIT_OK
    sol.write_text(json.dumps(edit(json.loads(sol.read_text()))))
    capsys.readouterr()
    code = cli.main(["verify", "--instance", str(inst), "--artifact", str(sol)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err.startswith(f"error: {field}")


def _flexible_run(tmp_path, mode):
    """The instance file and the parsed ``solve --algorithm flexible`` run."""
    inst = tmp_path / "inst.json"
    run = tmp_path / "run.json"
    assert cli.main([
        "gen", "--n", "12", "--seed", "3", "--utility", '{"family": "step"}',
        "--pmax", "1e6", "--power", "1e5", "--out", str(inst),
    ]) == cli.EXIT_OK
    assert cli.main([
        "solve", "--instance", str(inst), "--algorithm", "flexible", "--mode", mode,
        "--out", str(run),
    ]) == cli.EXIT_OK
    return inst, json.loads(run.read_text())


@pytest.mark.parametrize("mode", ["unlimited", "limited", "fixed"])
def test_honest_flexible_run_verifies(tmp_path, capsys, mode):
    inst, data = _flexible_run(tmp_path, mode)
    assert len(data["levels"]) > 1 and data["objective"] > 0
    capsys.readouterr()
    assert cli.main(
        ["verify", "--instance", str(inst), "--artifact", str(tmp_path / "run.json")]
    ) == cli.EXIT_OK


def _claim_last_level(data, objective):
    last = len(data["levels"]) - 1
    if objective is not None:
        data["levels"][last]["objective"] = objective
    data["best_index"] = last
    data["objective"] = data["levels"][last]["objective"]


def _claim_tied_deeper_level(data):
    # levels 1 and 2 realize the same value; the tie goes to level 1
    assert data["levels"][1]["objective"] == data["levels"][2]["objective"]
    data["best_index"] = 2


@pytest.mark.parametrize("edit, violation", [
    (lambda data: _claim_last_level(data, 99.0), "level 4: objective 99.0 but its links'"),
    (lambda data: _claim_last_level(data, None), "best_index 4 but the best level is 1"),
    (_claim_tied_deeper_level, "best_index 2 but the best level is 1"),
    (lambda data: data.update(objective=99.0), "objective 99.0 but the best level's is"),
    (lambda data: data["levels"][1].update(objective=0.0), "level 1: objective 0.0 but"),
], ids=["inflated-last-level", "shallow-best-moved", "tie-to-deeper", "run-objective",
        "deflated-level"])
def test_tampered_flexible_objective_is_violation(tmp_path, capsys, edit, violation):
    inst, data = _flexible_run(tmp_path, "limited")
    edit(data)
    run = tmp_path / "run.json"
    run.write_text(json.dumps(data))
    capsys.readouterr()
    code = cli.main(["verify", "--instance", str(inst), "--artifact", str(run)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VERIFY_FAILED == 1, err
    assert any(line.startswith(f"VIOLATION: {violation}") for line in err.splitlines()), err


def _drop_first_sinr(slot):
    del slot["sinr"][str(slot["selected"][0])]


def _add_unknown_link(slot):
    slot["selected"].append(99)
    slot["powers"]["99"] = 1.0
    slot["sinr"]["99"] = 1.0


@pytest.mark.parametrize(
    "edit,violation",
    [
        (_drop_first_sinr, "slot 0: sinr keys do not match the selected set"),
        (_add_unknown_link, "slot 0: link 99: not part of the instance"),
    ],
)
def test_broken_schedule_slot_is_violation(tmp_path, capsys, edit, violation):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    assert cli.main([
        "gen", "--n", "5", "--seed", "9",
        "--utility", json.dumps({"family": "step", "steps": 3, "value_max": 2.0}),
        "--demand-min", "0.5", "--demand-max", "2.0", "--out", str(inst),
    ]) == cli.EXIT_OK
    assert cli.main(["schedule", "--instance", str(inst), "--out", str(sched)]) == cli.EXIT_OK
    data = json.loads(sched.read_text())
    edit(data["slots"][0])
    sched.write_text(json.dumps(data))
    capsys.readouterr()
    code = cli.main(["verify", "--instance", str(inst), "--artifact", str(sched)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VERIFY_FAILED == 1, err
    assert f"VIOLATION: {violation}" in err.splitlines()


def test_repeated_selected_id_is_violation(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    assert cli.main(["gen", "--n", "8", "--seed", "7", "--out", str(inst)]) == cli.EXIT_OK
    sol.write_text(json.dumps({
        "selected": [3, 4, 5, 3],
        "powers": {"3": 1.0, "4": 1.0, "5": 1.0},
        "sinr": {"3": 1.0, "4": 1.0, "5": 1.0},
        "objective": 4.0,
        "algorithm": "unlimited",
    }))
    capsys.readouterr()
    code = cli.main(["verify", "--instance", str(inst), "--artifact", str(sol)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VERIFY_FAILED == 1, err
    assert err.splitlines() == ["VIOLATION: link 3: selected more than once"]


def test_link_whose_d_alpha_underflows_is_bad_input(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "alpha": 3.0,
        "noise": 1.0,
        "metric": {"type": "euclidean", "dim": 1, "points": [[0.0], [1.0], [1e-150]]},
        "links": [{"id": 0, "s": 0, "r": 1, "beta": 1.0}, {"id": 5, "s": 0, "r": 2, "beta": 1.0}],
    }))
    code = cli.main(["solve", "--instance", str(inst), "--algorithm", "unlimited"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err.startswith("error: link 5: sender-receiver distance^alpha must be > 0")


@pytest.mark.parametrize("algorithm", ["unlimited", "limited"])
@pytest.mark.parametrize("alpha", [400, 700, 1000])
def test_link_whose_d_alpha_overflows_is_bad_input(tmp_path, capsys, alpha, algorithm):
    inst = tmp_path / "inst.json"
    assert cli.main(["gen", "--n", "3", "--seed", "1", "--out", str(inst)]) == cli.EXIT_OK
    inst.write_text(json.dumps(dict(json.loads(inst.read_text()), alpha=alpha)))
    code = cli.main(["solve", "--instance", str(inst), "--algorithm", algorithm])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err.startswith("error: link 0: sender-receiver distance^alpha must be finite")


@pytest.mark.parametrize("algorithm", ["unlimited", "limited"])
def test_link_whose_sensitivity_overflows_is_bad_input(tmp_path, capsys, algorithm):
    # gen_line([(0, 1e10, 1e300), (10, 1e10 + 10, 1e300)], alpha=2): finite
    # thresholds and d^alpha, but threshold * d^alpha = 1e320
    inst = tmp_path / "inst.json"
    links = [{"id": k, "s": 2 * k, "r": 2 * k + 1, "beta": 1e300} for k in (0, 1)]
    inst.write_text(json.dumps({
        "alpha": 2.0, "noise": 1.0,
        "metric": {"type": "euclidean", "dim": 1,
                   "points": [[0.0], [1e10], [10.0], [1e10 + 10]]}, "links": links,
    }))
    code = cli.main(["solve", "--instance", str(inst), "--algorithm", algorithm])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err.startswith("error: link 0: sensitivity threshold * distance^alpha must be finite")


@pytest.mark.parametrize("algorithm", ["unlimited", "limited", "fixed"])
@pytest.mark.parametrize("points, alpha", [
    ([[0.0], [1.0], [100.0], [101.0]], 400),  # d(s_j, r_i)^alpha overflows
    ([[0.0], [0.5], [10.0], [10.5]], 1000),  # so does 3^alpha in the weight budget
], ids=["cross-distance", "weight-budget"])
def test_overflowing_cross_distance_is_zero_gain(tmp_path, capsys, points, alpha, algorithm):
    # any numpy warning inside the package fails the suite, so exit 0 also
    # means that none was raised
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    links = [{"id": k, "s": 2 * k, "r": 2 * k + 1, "beta": 1.0, "power": 1.0} for k in (0, 1)]
    inst.write_text(json.dumps({
        "alpha": alpha, "noise": 0.1, "p_max": 1e6,
        "metric": {"type": "euclidean", "dim": 1, "points": points}, "links": links,
    }))
    code = cli.main(["solve", "--instance", str(inst), "--algorithm", algorithm, "--out", str(sol)])
    assert code == cli.EXIT_OK, capsys.readouterr().err
    assert json.loads(sol.read_text())["selected"] == [0, 1]
    assert cli.main(["verify", "--instance", str(inst), "--artifact", str(sol)]) == cli.EXIT_OK


def _two_demand_links():
    step = {"type": "step", "steps": [[1.0, 1.0], [4.0, 2.0]]}
    return {
        "alpha": 2.0,
        "noise": 1.0,
        "metric": {"type": "euclidean", "dim": 1, "points": [[0.0], [1.0], [10.0], [11.0]]},
        "links": [
            {"id": 0, "s": 0, "r": 1, "beta": 1.0, "utility": step, "demand": 1.0},
            {"id": 1, "s": 2, "r": 3, "beta": 1.0, "utility": dict(step), "demand": 1.0},
        ],
    }


@pytest.mark.parametrize(
    "edit,message",
    [
        (_set(["alpha"], math.inf), "path-loss exponent alpha must be finite"),
        (_set(["noise"], math.inf), "ambient noise must be finite"),
        (_set(["links", 1, "demand"], math.inf), "link 1: demand must be finite"),
        (_set(["links", 1, "beta"], math.nan), "link 1: threshold must be finite"),
        (_set(["links", 1, "utility", "steps"], [[math.nan, 1.0]]), "links[1].utility: step"),
        (_set(["links", 1, "utility", "steps"], [[1.0, math.inf]]), "links[1].utility: step"),
        (_set(["links", 1, "utility", "steps"], [[1.0, math.nan]]), "links[1].utility: step"),
        (
            _set(["links", 1, "utility"], {"type": "shannon", "scale": 1.0, "cutoff": math.nan}),
            "links[1].utility: cutoff must be finite",
        ),
        (
            _set(["links", 1, "utility"], {"type": "shannon", "scale": math.inf}),
            "links[1].utility: scale must be finite",
        ),
        (
            _set(["links", 1, "utility"], {"type": "step"}),
            "links[1].utility: missing field 'steps'",
        ),
    ],
    ids=[
        "alpha-inf", "noise-inf", "demand-inf", "beta-nan", "step-gamma-nan", "step-value-inf",
        "step-value-nan", "shannon-cutoff-nan", "shannon-scale-inf", "step-without-steps",
    ],
)
def test_non_finite_field_is_bad_input(tmp_path, capsys, edit, message):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(edit(_two_demand_links())))
    code = cli.main(["schedule", "--instance", str(inst)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("edit,message", [
    (_set(["links", 0, "utility", "steps"], ["12"]),
     "links[0].utility: steps[0] must be a [gamma, value] pair, got a string"),
    (_set(["links", 0, "utility", "steps"], [[1.0, False]]),
     "links[0].utility: steps[0][1] must be a number, got a boolean"),
    (_set(["links", 1, "utility"], {"type": "shannon", "scale": "2", "cutoff": True}),
     "links[1].utility: scale must be a number, got a string"),
    (_set(["links", 1, "utility"], {"type": "shannon", "scale": 2, "cutoff": True}),
     "links[1].utility: cutoff must be a number, got a boolean"),
], ids=["step-string", "step-bool", "shannon-string-scale", "shannon-bool-cutoff"])
@pytest.mark.parametrize("command", [
    ["schedule", "--mode", "limited"], ["solve", "--algorithm", "flexible", "--mode", "limited"],
], ids=["schedule", "flexible"])
def test_mistyped_utility_field_is_bad_input(tmp_path, capsys, edit, message, command):
    # with a cap, each of these instances solved and scheduled when the
    # fields were read with float()
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(dict(edit(_two_demand_links()), p_max=1e6)))
    code = cli.main([*command, "--instance", str(inst)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err == f"error: {message}\n"


def test_shannon_demand_beyond_every_finite_sinr_schedules(tmp_path, capsys):
    # one slot's best value is log2(1 + 1e4) ~ 13.3, and scheme 1 asks for
    # targets up to the demand 2000, which no finite SINR reaches
    data = _two_demand_links()
    data["p_max"] = 1e4
    data["links"][0]["utility"] = {"type": "shannon", "scale": 1.0, "cutoff": 1.0}
    data["links"][0]["demand"] = 2000.0
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    inst.write_text(json.dumps(data))
    code = cli.main(["schedule", "--instance", str(inst), "--mode", "limited", "--out", str(sched)])
    assert code == cli.EXIT_OK, capsys.readouterr().err
    assert len(json.loads(sched.read_text())["slots"]) >= math.ceil(2000 / math.log2(1 + 1e4))
    assert cli.main(["verify", "--instance", str(inst), "--artifact", str(sched)]) == cli.EXIT_OK


def test_demand_beyond_the_slot_cap_is_bad_input(tmp_path, capsys):
    # a slot gives a link at most 2.0, so a demand of 1e300 needs 5e299
    # slots, far over the scheduler's cap
    inst = tmp_path / "inst.json"
    assert cli.main([
        "gen", "--n", "4", "--seed", "1", "--out", str(inst),
        "--utility", json.dumps({"family": "step", "steps": 3, "value_max": 2.0}),
        "--demand-min", "0.5", "--demand-max", "2.0",
    ]) == cli.EXIT_OK
    data = json.loads(inst.read_text())
    data["links"][2]["demand"] = 1e300
    inst.write_text(json.dumps(data))
    capsys.readouterr()
    code = cli.main(["schedule", "--instance", str(inst)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err.startswith(f"error: link {data['links'][2]['id']} demands 1e+300")
    assert "over the cap of 1000000" in err


def test_non_finite_powers_and_sinrs_are_violations(tmp_path, capsys):
    # inf / inf re-evaluates to a NaN SINR, which passes every comparison
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    inst.write_text(json.dumps(_two_demand_links()))
    sol.write_text(json.dumps({
        "selected": [0, 1],
        "powers": {"0": math.inf, "1": math.inf},
        "sinr": {"0": math.nan, "1": math.nan},
        "objective": 2.0,
        "algorithm": "unlimited",
    }))
    code = cli.main(["verify", "--instance", str(inst), "--artifact", str(sol)])
    err = capsys.readouterr().err.splitlines()
    assert code == cli.EXIT_VERIFY_FAILED == 1, err
    for lid in (0, 1):
        assert f"VIOLATION: link {lid}: power inf is not finite" in err
        assert f"VIOLATION: link {lid}: re-evaluated SINR nan is not finite" in err
    # a stored NaN next to finite powers matches no re-evaluated SINR
    sol.write_text(json.dumps({
        "selected": [0], "powers": {"0": 10.0}, "sinr": {"0": math.nan},
        "objective": 1.0, "algorithm": "unlimited",
    }))
    code = cli.main(["verify", "--instance", str(inst), "--artifact", str(sol)])
    err = capsys.readouterr().err.splitlines()
    assert code == cli.EXIT_VERIFY_FAILED, err
    assert err == ["VIOLATION: link 0: stored SINR nan but re-evaluation gives 10"]


@pytest.mark.parametrize("cap", ["nan", "-1", "0"])
def test_oracle_cap_must_be_positive(tmp_path, capsys, cap):
    inst = tmp_path / "inst.json"
    out = tmp_path / "cert.json"
    inst.write_text(json.dumps(_two_demand_links()))
    # each link needs power beta * noise * d^alpha = 1 alone
    code = cli.main(["oracle", "--instance", str(inst), "--cap", "1e-9", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads(out.read_text())["feasible"] is False
    capsys.readouterr()
    code = cli.main(["oracle", "--instance", str(inst), "--cap", cap])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err.startswith("error: cap must be positive")


def test_oracle_over_the_admissibility_bound_is_bad_input(tmp_path, capsys, monkeypatch):
    # a 10^5-link file with no --subset asked for 80 GB per dense array
    inst = tmp_path / "inst.json"
    assert cli.main(["gen", "--n", "6", "--seed", "1", "--out", str(inst)]) == cli.EXIT_OK
    monkeypatch.setattr(oracle, "ADMISSIBLE_LIMIT", 5)
    capsys.readouterr()
    code = cli.main(["oracle", "--instance", str(inst)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err == "error: admissibility oracle limited to 5 links, got 6\n"
    out = tmp_path / "cert.json"
    code = cli.main(["oracle", "--instance", str(inst), "--subset", "0,1,2,3,4", "--out", str(out)])
    assert code == cli.EXIT_OK and "feasible" in json.loads(out.read_text())


@pytest.mark.parametrize("brute", ["none", "variable", "fixed", "flexible_fixed"])
def test_oracle_repeated_subset_link_is_bad_input(tmp_path, capsys, brute):
    # link 0 alone is feasible; "0,0" used to be judged as two copies of it
    inst = tmp_path / "inst.json"
    assert cli.main(["gen", "--n", "6", "--seed", "1", "--out", str(inst)]) == cli.EXIT_OK
    out = tmp_path / "cert.json"
    assert cli.main(["oracle", "--instance", str(inst), "--subset", "0", "--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["feasible"] is True
    capsys.readouterr()
    code = cli.main(["oracle", "--instance", str(inst), "--subset", "0,3,0", "--brute", brute])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err == "error: link 0 appears more than once\n"


STEP_UTILITY = ["--utility", '{"family": "step"}']
GEN_DEMANDS = ["--demand-min", "1", "--demand-max", "2", *STEP_UTILITY, "--pmax", "1e6"]


@pytest.mark.parametrize("flags, message", [
    (["--demand-min", "1", *STEP_UTILITY], "--demand-min and --demand-max"),
    (["--demand-max", "2", *STEP_UTILITY], "--demand-min and --demand-max"),
    (["--utility", '"step"'], "utility must be an object"),
    (["--utility", "[1]"], "utility must be an object"),
    (["--utility", '{"family": "step", "steps": 0}'], "utility field 'steps'"),
    (["--utility", '{"family": "step", "value_max": null}'], "utility field 'value_max'"),
    ([*GEN_DEMANDS, "--dmin", "0", "--dmax", "0"], "d_range"),
    ([*GEN_DEMANDS, "--noise", "0"], "noise"),
    ([*GEN_DEMANDS, "--dmin", "-50", "--dmax", "-10", "--alpha", "2.5"], "d_range"),
    (["--area", "nan"], "area"),
    (["--area", "inf"], "area"),
    (["--beta-max", "inf"], "beta_range"),
    (["--beta-max", "nan"], "beta_range"),
    ([*STEP_UTILITY, "--demand-min", "nan", "--demand-max", "1"], "demand_range"),
    (["--seed", "-1"], "seed"),
    (["--utility", '{"family": "step", "gamma_max": "inf"}'], "utility field 'gamma_max'"),
    (["--utility", '{"family": "shannon", "scale_range": 5}'], "utility field 'scale_range'"),
    (["--utility", '{"family": "shannon", "cutoff_range": [1, 2, 3]}'], "utility field 'cutoff_range'"),
    (["--utility", '{"family": "step", "gamma_max": 0.5}'], "utility field 'gamma_max'"),
    (["--utility", '{"family": "step", "value_max": -1}'], "utility field 'value_max'"),
    (["--utility", '{"family": "step", "steps": 1000000000000}'], "utility field 'steps'"),
    (["--utility", '{"family": "shannon", "scale_range": [2, 1]}'], "utility field 'scale_range'"),
    (["--utility", '{"family": "shannon", "cutoff_range": [0.5, 2]}'], "utility field 'cutoff_range'"),
    (["--utility", '{"family": "shannon"}', "--demand-min", "1", "--demand-max", "2"], "p_max"),
    (["--n", "0", "--utility", '{"family": "bogus"}'], "utility field 'family'"),
    (["--n", "0", "--demand-min", "1", "--demand-max", "2"], "demand_range"),
    (["--n", "0", "--power", "-1"], "power"),
    (["--utility", '{"family": "step", "steps": 2.7}'], "utility field 'steps'"),
    (["--utility", '{"family": "step", "steps": true}'], "utility field 'steps'"),
    (["--utility", '{"family": "step", "steps": "3"}'], "utility field 'steps'"),
    (["--utility", '{"family": "step", "gamma_max": "3"}'], "utility field 'gamma_max'"),
    (["--utility", '{"family": "step", "value_max": false}'], "utility field 'value_max'"),
    (["--utility", '{"family": "shannon", "scale_range": "12"}'], "utility field 'scale_range'"),
    (["--utility", '{"family": "shannon", "scale_range": [1, "2"]}'],
     "utility field 'scale_range'"),
    (["--utility", '{"family": "shannon", "cutoff_range": [1, true]}'],
     "utility field 'cutoff_range'"),
    (["--alpha", "400"], "d_range"),
    (["--n", "0", "--area", "1e300", "--dmax", "1e200", "--alpha", "1"], "d_range"),
    (["--n", "0", "--dmin", "1e-20", "--dmax", "1e-20"], "d_range"),
    (["--dmin", "1e-20", "--dmax", "1e-20"], "d_range"),
], ids=["demand-min-alone", "demand-max-alone", "utility-string", "utility-list",
        "zero-steps", "null-value-max", "zero-lengths", "zero-noise", "negative-lengths",
        "nan-area", "infinite-area", "infinite-beta", "nan-beta", "nan-demand", "negative-seed",
        "infinite-gamma-max", "scalar-scale-range", "long-cutoff-range", "gamma-max-below-one",
        "negative-value-max", "huge-steps", "reversed-scale-range", "cutoff-below-one",
        "uncapped-shannon-demands", "empty-unknown-family", "empty-demands-without-utility",
        "empty-negative-power", "float-steps", "bool-steps", "string-steps", "string-gamma-max",
        "bool-value-max", "string-scale-range", "string-in-scale-range", "bool-in-cutoff-range",
        "overflowing-d-alpha", "empty-overflowing-squares", "empty-unresolved-lengths",
        "unresolved-lengths"])
def test_gen_malformed_option_is_bad_input(tmp_path, capsys, flags, message):
    out = tmp_path / "inst.json"
    code = cli.main(["gen", "--n", "3", "--seed", "1", "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err.startswith("error: ") and message in err.splitlines()[0]
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["oracle", "--subset", "0,a"], "error: --subset: 'a' is not a link id"),
    (["oracle", "--cap", "abc"], "error: --cap: 'abc' is not a number"),
    (["gen", "--n", "3", "--seed", "1", "--pmax", "abc"], "error: --pmax: 'abc' is not a number"),
    (["gen", "--n", "3", "--seed", "1", "--utility", "{step"],
     "error: --utility: '{step' is not JSON"),
    (["gen", "--n", "3", "--seed", "1", "--utility", ""], "error: --utility: '' is not JSON"),
    (["oracle", "--subset", ""], "error: --subset: '' is not a link id"),
    (["oracle", "--cap", ""], "error: --cap: '' is not a number"),
    (["oracle", "--subset", "0,7"], "error: no link with id 7"),
], ids=["subset", "cap", "pmax", "utility", "empty-utility", "empty-subset", "empty-cap",
        "unknown-link"])
def test_option_and_lookup_errors_name_their_subject(tmp_path, capsys, flags, message):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_two_demand_links()))
    if flags[0] == "oracle":
        flags = [*flags, "--instance", str(inst)]
    code = cli.main(flags)
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_INPUT == 2, err
    assert err == message + "\n"


@pytest.fixture
def fresh_parser():
    """Drop the process's cached parser before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch, capsys, fresh_parser):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    inst = tmp_path / "inst.json"
    assert cli.main(["gen", "--n", "4", "--seed", "1", "--out", str(inst)]) == cli.EXIT_OK
    for _ in range(3):
        assert cli.main(["solve", "--instance", str(inst), "--algorithm", "unlimited"]) == 0
    assert cli.main(["oracle", "--instance", str(inst), "--subset", "0"]) == cli.EXIT_OK
    assert len(built) == 1


def test_reused_parser_keeps_no_option_from_an_earlier_call(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    assert cli.main(["gen", "--n", "6", "--seed", "2", "--out", str(inst)]) == cli.EXIT_OK
    solve = ["solve", "--instance", str(inst), "--algorithm", "unlimited", "--out", str(sol)]
    assert cli.main([*solve, "--trace"]) == cli.EXIT_OK
    assert "trace" in json.loads(sol.read_text())
    assert cli.main(solve) == cli.EXIT_OK
    assert "trace" not in json.loads(sol.read_text())


def test_usage_error_leaves_the_parser_usable(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert cli.main(["gen", "--n", "4", "--seed", "1", "--out", str(inst)]) == cli.EXIT_OK
    with pytest.raises(SystemExit) as caught:
        cli.main(["solve", "--instance", str(inst), "--algorithm", "bogus"])
    assert caught.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["solve", "--instance", str(inst)])
    capsys.readouterr()
    assert cli.main(["solve", "--instance", str(inst), "--algorithm", "limited"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["algorithm"] == "limited"


def test_handler_rebound_after_the_first_call_runs(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "inst.json"
    assert cli.main(["gen", "--n", "4", "--seed", "1", "--out", str(inst)]) == cli.EXIT_OK
    seen = []
    monkeypatch.setattr(cli, "_cmd_gen", lambda args: seen.append(args.n) or 5)
    assert cli.main(["gen", "--n", "9", "--seed", "1"]) == 5
    assert seen == [9]
