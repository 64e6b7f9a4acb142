"""The benchmark's workloads: seeded inputs, a fixed list of ops, and checks.

A workload's ``build`` generates its inputs (and writes any files) from the
workload seed and returns a ``Plan``: the ops one pass runs, in order. Each
op calls into the library through its module attributes, so the tracer sees
the call. Each op's ``check`` recomputes the output and returns the problems
found plus a record for the result digest; ``corrupt`` damages an output the
way the self-test needs to show that checks catch it.

capacity-large draws its instances from the workload seed. The other three
run a fixed batch of inputs, and the seed only sets the order of their ops:
their cost or result per input varies too much for one run to average out
(solve_latency time per n=64 instance has a coefficient of variation of
18 %; brute-force ratio trials are heavy-tailed, CV 2.1; links selected on
a 6-file CLI batch of n=300 instances vary by 11 % between seeds), so inputs
drawn afresh per seed would swamp the spread between runs. The latency and
CLI batches hold an odd number of inputs, so that the median op lands inside
one input's cluster of times rather than between two.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from sinrsched import capacity, cli, experiments, generate, latency, oracle, verify
from sinrsched.generate import GenConfig
from sinrsched.model import INF, Instance

from checks import (
    LinkTable,
    check_schedule_demands,
    check_selection,
    instance_digest,
    rounded_powers,
)

P_MAX = 20.0 * 30.0**2  # the ratio experiment's cap at alpha = 2


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[list, dict]]
    corrupt: Callable[[Any], Any]


@dataclass
class Plan:
    ops: list
    # layers that must record calls in a traced pass
    layers: tuple = ()
    notes: dict = field(default_factory=dict)
    warmup: Optional[Op] = None  # the discarded set-up op; default: the first op

    def __post_init__(self):
        if self.warmup is None:
            self.warmup = self.ops[0]


def _fixed_batch(ops, seed, layers, notes) -> Plan:
    """Plan over inputs that do not depend on the seed; the seed only orders
    the ops. The warm-up op is the batch's first, whatever the seed."""
    ordered = list(ops)
    random.Random(seed).shuffle(ordered)
    return Plan(ordered, layers, {**notes, "inputs": "fixed batch, seeded order"}, ops[0])


# -- capacity-large ---------------------------------------------------------

def _solution_op(label, instance, table, call, cap, exact_powers=None):
    def check(sol):
        problems = list(verify.verify_solution(instance, sol))
        cert = oracle.check_admissible(instance, sol.selected, cap=cap)
        if not cert.feasible:
            problems.append(f"check_admissible(cap={cap}) rejects the selected set")
        problems += check_selection(
            table, sol.selected, sol.powers, claimed_sinr=sol.sinr, cap=cap,
            exact_powers=exact_powers, objective=sol.objective,
        )
        record = {"op": label, "sel": list(sol.selected),
                  "p": rounded_powers(sol.selected, sol.powers)}
        return problems, {"digest": record, "selected_links": len(sol.selected)}

    def corrupt(sol):
        if not sol.selected:
            return sol
        lid = sol.selected[0]
        return dataclasses.replace(sol, powers={**sol.powers, lid: sol.powers[lid] / 2})

    return Op(label, call, check, corrupt)


def build_capacity_large(seed, tiny, workdir):
    n, count = (120, 2) if tiny else (2000, 3)
    ops = []
    for j in range(count):
        inst = generate.gen_random(GenConfig(
            n=n, seed=1000 * seed + j, area=1000.0, d_range=(1.0, 100.0),
            beta_range=(1.0, 10.0), alpha=2.0, p_max=P_MAX,
        ))
        table = LinkTable.of(inst)
        uniform = {lid: inst.p_max for lid in inst.link_ids}
        ops += [
            _solution_op(f"unlimited/{j}", inst, table,
                         lambda inst=inst: capacity.solve_unlimited(inst), cap=INF),
            _solution_op(f"limited/{j}", inst, table,
                         lambda inst=inst: capacity.solve_limited(inst), cap=inst.p_max),
            _solution_op(f"fixed/{j}", inst, table,
                         lambda inst=inst, uniform=uniform: capacity.solve_fixed(
                             inst, powers=uniform, warn_preconditions=False),
                         cap=inst.p_max, exact_powers=uniform),
        ]
    layers = ("model.geometry", "model.sensitivity_order", "model.evaluate_sinrs",
              "capacity.solve_unlimited", "capacity.solve_limited", "capacity.solve_fixed",
              "oracle.check_admissible", "verify.verify_solution")
    return Plan(ops, layers, {"n": n, "instances": count})


# -- latency-medium ---------------------------------------------------------

def _latency_op(label, instance, table):
    def check(schedule):
        problems = [f"verify_schedule: {p}" for p in verify.verify_schedule(instance, schedule.to_dict())]
        slots = []
        for t, slot in enumerate(schedule.slots):
            sol = slot.solution
            thresholds = {lid: slot.thresholds[lid] for lid in sol.selected}
            cert = oracle.check_admissible(instance, sol.selected, cap=INF, thresholds=thresholds)
            if not cert.feasible:
                problems.append(f"slot {t}: check_admissible rejects the slot at its thresholds")
            problems += [f"slot {t}: {p}" for p in check_selection(
                table, sol.selected, sol.powers, claimed_sinr=sol.sinr, thresholds=thresholds)]
            slots.append((sol.selected, sol.powers))
        problems += check_schedule_demands(table, slots)
        record = {"op": label, "slots": len(schedule.slots),
                  "sel": [list(s) for s, _ in slots],
                  "p": [rounded_powers(s, p) for s, p in slots]}
        return problems, {"digest": record, "schedule_slots": len(slots),
                          "selected_links": sum(len(s) for s, _ in slots)}

    def corrupt(schedule):
        # passes verify_schedule, whose demand check needs scheme 2 and fulfilled
        return dataclasses.replace(schedule, slots=schedule.slots[:1], scheme=1)

    return Op(label, lambda: latency.solve_latency(instance), check, corrupt)


def build_latency_medium(seed, tiny, workdir):
    n, count = (12, 3) if tiny else (64, 5)
    ops = []
    for j in range(count):
        inst = generate.gen_random(GenConfig(
            n=n, seed=j, area=1000.0, d_range=(1.0, 60.0),
            beta_range=(1.0, 2.0), demand_range=(0.5, 3.0),
            utility={"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0},
        ))
        ops.append(_latency_op(f"latency/{j}", inst, LinkTable.of(inst)))
    layers = ("latency.solve_latency", "flexible.solve_flexible", "utility.inverse_threshold",
              "capacity.solve_unlimited", "model.geometry", "model.sensitivity_order",
              "model.evaluate_sinrs", "oracle.check_admissible", "verify.verify_schedule",
              "verify.verify_solution")
    return _fixed_batch(ops, seed, layers, {"n": n, "instances": count})


# -- ratio-small ------------------------------------------------------------

def _ratio_op(trial_seed, n):
    # the experiment's own instance recipe for trial 0 of this seed
    inst = generate.gen_random(GenConfig(
        n=trial_seed % n + 1, seed=trial_seed * 1_000_003, area=1000.0, d_range=(1.0, 100.0),
        beta_range=(1.0, 10.0), alpha=2.0, noise=1.0, p_max=P_MAX,
    ))
    data = inst.to_dict()
    digest, table = instance_digest(data), LinkTable(data)

    def call():
        return experiments.experiment_ratio(n=n, trials=1, seed=trial_seed)

    def check(report):
        problems = []
        summary = report["summary"]
        if summary["violations"] or summary["empty_vs_nonempty"]:
            problems.append(f"report summary: {summary['violations']} violations, "
                            f"{summary['empty_vs_nonempty']} empty-vs-nonempty")
        row = report["rows"][0]
        if row["n"] != len(inst.links) or row["instance"] != digest:
            problems.append("report row does not describe the trial's instance")
        sol = capacity.solve_unlimited(inst)
        if len(sol.selected) != row["unlimited_alg"]:
            problems.append(f"unlimited size {row['unlimited_alg']} but re-solving gives {len(sol.selected)}")
        if not oracle.spectral_admissible(inst, sol.selected):
            problems.append("spectral_admissible rejects the unlimited selection")
        problems += check_selection(table, sol.selected, sol.powers, claimed_sinr=sol.sinr)
        alg = [row[f"{r}_alg"] for r in ("unlimited", "limited", "fixed")]
        opt = [row[f"{r}_opt"] for r in ("unlimited", "limited", "fixed")]
        for regime, a, o in zip(("unlimited", "limited", "fixed"), alg, opt):
            expected = o / a if a else (0.0 if o == 0 else math.inf)
            if o < a or row[f"{regime}_ratio"] != expected:
                problems.append(f"{regime}: opt {o}, alg {a}, ratio {row[f'{regime}_ratio']}")
        record = {"op": trial_seed, "instance": row["instance"], "alg": alg, "opt": opt,
                  "sel": list(sol.selected), "p": rounded_powers(sol.selected, sol.powers)}
        return problems, {"digest": record, "selected_links": sum(alg),
                          "alg": sum(alg), "opt": sum(opt)}

    def corrupt(report):
        row = dict(report["rows"][0], unlimited_alg=report["rows"][0]["unlimited_alg"] + 1)
        return {**report, "rows": [row]}

    return Op(f"ratio/{trial_seed}", call, check, corrupt)


def build_ratio_small(seed, tiny, workdir):
    # trial t draws n = t % 10 + 1 links, so the batch covers n = 1..10 evenly
    n, trials = (4, 8) if tiny else (10, 100)
    ops = [_ratio_op(s, n) for s in range(trials)]
    layers = ("experiments.experiment_ratio", "generate.gen_random", "capacity.solve_unlimited",
              "capacity.solve_limited", "capacity.solve_fixed", "oracle.brute_opt_threshold",
              "oracle.check_admissible", "oracle.spectral_admissible", "verify.verify_solution",
              "model.geometry", "model.evaluate_sinrs", "model.sensitivity_order")
    return _fixed_batch(ops, seed, layers, {"n": n, "trials": trials})


# -- cli-roundtrip ----------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    warnings: int


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue(), len(caught))


def _cli_op(j, inst_path, instance, data, workdir):
    """One round trip on one instance file: solve fixed, solve limited, verify both."""
    table = LinkTable(data)
    fixed_powers = {int(e["id"]): float(e["power"]) for e in data["links"]}
    artifacts = {alg: workdir / f"{alg}{j}.json" for alg in ("fixed", "limited")}
    argvs = [["solve", "--instance", str(inst_path), "--algorithm", alg, "--out", str(path)]
             for alg, path in artifacts.items()]
    argvs += [["verify", "--instance", str(inst_path), "--artifact", str(path)]
              for path in artifacts.values()]

    def call():
        return [_run_cli(argv) for argv in argvs]

    def check(results):
        problems = [f"{' '.join(argv[:4])}: exit {res.code}: {res.stderr.strip()[:200]}"
                    for argv, res in zip(argvs, results) if res.code != 0]
        problems += [f"verify printed {res.stdout.strip()[:50]!r}"
                     for res in results[2:] if res.code == 0 and res.stdout.strip() != "ok"]
        records, selected_links = [], 0
        for alg, path in artifacts.items():
            art = json.loads(path.read_text())
            selected = [int(x) for x in art["selected"]]
            powers = {int(k): float(v) for k, v in art["powers"].items()}
            sinrs = {int(k): float(v) for k, v in art["sinr"].items()}
            problems += [f"{alg}: {p}" for p in check_selection(
                table, selected, powers, claimed_sinr=sinrs, cap=table.p_max,
                exact_powers=fixed_powers if alg == "fixed" else None, objective=art["objective"],
            )]
            if not oracle.check_admissible(instance, selected, cap=table.p_max).feasible:
                problems.append(f"{alg}: check_admissible rejects the selected set")
            records.append({"op": f"{alg}/{j}", "sel": selected, "p": rounded_powers(selected, powers)})
            selected_links += len(selected)
        return problems, {"digest": records, "selected_links": selected_links,
                          "warnings": sum(res.warnings for res in results)}

    def corrupt(results):
        art = json.loads(artifacts["fixed"].read_text())
        if art["selected"]:
            art["powers"][str(art["selected"][0])] /= 2
            artifacts["fixed"].write_text(json.dumps(art))
        return results

    return Op(f"roundtrip/{j}", call, check, corrupt)


def build_cli_roundtrip(seed, tiny, workdir):
    n, count = (20, 3) if tiny else (300, 7)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for j in range(count):
        path = workdir / f"instance{j}.json"
        res = _run_cli(["gen", "--n", str(n), "--seed", str(j),
                        "--pmax", repr(P_MAX), "--power", repr(P_MAX), "--out", str(path)])
        if res.code != 0:
            raise RuntimeError(f"sinrsched gen failed: {res.stderr.strip()}")
        data = json.loads(path.read_text())
        ops.append(_cli_op(j, path, Instance.from_dict(data), data, workdir))
    layers = ("cli.main", "capacity.solve_fixed", "capacity.solve_limited",
              "capacity.check_power_preconditions", "verify.verify_solution",
              "oracle.check_admissible", "model.geometry", "model.sensitivity_order",
              "model.evaluate_sinrs")
    return _fixed_batch(ops, seed, layers, {"n": n, "instances": count})


# name -> (build, pass_s): a run makes round(--seconds / pass_s) passes (see
# bench.py). pass_s is near a full-size pass's scaled time when the benchmark
# was defined, rounded so that capacity-large, latency-medium and
# cli-roundtrip make 6 passes at 16 s: with 9, 5 and 7 ops a pass, the tail
# (ten ops beyond) then falls inside a cluster of one op's times.
WORKLOADS = {
    "capacity-large": (build_capacity_large, 2.7),
    "latency-medium": (build_latency_medium, 2.7),
    "ratio-small": (build_ratio_small, 2.9),
    "cli-roundtrip": (build_cli_roundtrip, 2.9),
}
