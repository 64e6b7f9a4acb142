"""Time one recipe at two revisions of the package, side by side.

Copies ``src/sinrsched`` at two git revisions into a temporary directory,
imports both copies in this one process under distinct names, and times the
recipe on each side in alternating rounds (the side that goes first
alternates too), so that drift in the machine's speed hits both sides alike.
Prints one line per recipe: the min and the median time per call of each
side, the ratio of the mins, whether both sides return the same output
(``to_dict`` JSON, traces included), whether they make the same decisions,
and the largest relative difference of any power or SINR between them
(``latency`` and ``shannon`` also print each side's level solves,
``flexible._solve_level`` calls, counted in one untimed call, so that a
change to level reuse shows its solves next to its time). The
decisions are every solution's selected ids and trace rows' (id, accepted)
(for ``latency`` and ``shannon``, every slot's of both scheme runs, plus
the chosen scheme and both lengths, and for ``shannon`` also every level's
of each flexible run and its best level), for ``verify`` the problem lists
and each slot's verdict, and for ``ratio``, ``brute``, ``gen`` and ``emit`` the
output itself; so a change to the arithmetic alone shows as outputs that differ,
decisions that do not, and how far the floats moved.

Recipes: ``unlimited``, ``limited`` and ``fixed`` run the capacity solvers
on the capacity-large benchmark's instance (``gen_random``, area 1000,
lengths 1-100, thresholds 1-10, alpha 2, p_max 18,000; ``fixed`` at uniform
power p_max without the precondition check, ``fixed-checked`` the same call
with the check and its warning, as ``sinrsched solve --algorithm fixed``
runs it); ``capacity-cold`` runs ``unlimited``, ``limited`` and ``fixed`` in
turn, each on a fresh ``copy.copy`` of that instance, which goes through the
constructor and so holds none of the arrays an instance caches on first use
(its sensitivity order, for one): the cost a one-shot ``sinrsched solve``
pays, where the other capacity recipes reuse one warm instance; ``cli``
makes the cli-roundtrip benchmark's solves, ``solve_fixed`` with its default
precondition check and ``solve_limited``, on each of its seven instances (n
= 300, seeds ``--seed`` to ``--seed`` + 6, default 0 to 6, p_max and every
link's power 18,000: what ``sinrsched gen --n 300 --seed j --pmax 18000
--power 18000`` builds), the one recipe whose instances run
a set of at most 128 candidates on more than 128 links, which measures its
own pair matrix; ``gen`` runs that ``gen_random`` call itself, and its
output is the instance's bytes, and prints a second line, ``gen-ratio``, for the 100
small instances (n = 1 to 10) that ``ratio``'s calls draw, so that both
ends of a generator change show in one command; ``emit`` runs, in process,
the cli-roundtrip benchmark's set-up, ``sinrsched gen --n 300 --seed s
--pmax 18000 --power 18000 --out FILE`` for seeds ``--seed`` to ``--seed`` +
6 (default 0 to 6), and reads each file back: the CLI's writer end to end.
Its output is the parsed files, and it also prints each side's bytes
written; ``latency`` runs
``solve_latency`` on each of the latency-medium benchmark's five instances
(n = 64, 3-step utilities, seeds ``--seed`` to ``--seed`` + 4, default 0
to 4), the workload's op mix, so that a change which helps some instances
more than others shows in its time; its area is 1000·√(n/64), 1000 at the
default n, so that ``--n 1000`` keeps that density and runs sets above the
capacity solvers' 128-link dense limit, where level solves measure their
own pairs; ``verify`` solves those five schedules once and times
latency-medium's check of them, ``verify_schedule`` on each schedule's JSON
form plus ``check_admissible`` (uncapped, at the slot's thresholds) on each
slot: the checkers on instances of at most 128 links, which slice their own
pair matrix; its output is the problem lists and the certificates;
``shannon`` runs
``solve_latency(inst, mode="limited")`` and ``solve_flexible(inst,
mode="limited")`` on eight n = 20 instances with Shannon utilities
(``GenConfig(n=20, seed=s, utility={"family": "shannon"}, demand_range=(0.5,
3.0), p_max=5e4)``, seeds ``--seed`` to ``--seed`` + 7, default 500 to
507), the one recipe that searches Shannon and rounded-Shannon table rows
(every benchmark workload has step utilities), and compares their output
with traces; ``ratio`` runs the ratio-small
benchmark's calls, ``experiment_ratio(n=10, trials=1, seed=s)``
for 100 seeds s from ``--seed`` on (default 0), and compares their report
rows without ``runtime_ms``; ``brute`` runs ``brute_opt_threshold`` in its
three regimes (``fixed`` at uniform power p_max) on four n = 16 instances
of that recipe (seeds ``--seed`` and the next one, default 5000, each with
lengths 50-100 and 1-100), and its output is the returned (ids, size)
pairs. ``all`` runs ``unlimited``, ``limited``, ``fixed``,
``capacity-cold``, ``cli``, ``latency``, ``verify``, ``shannon``, ``ratio``,
``brute``, ``gen`` and ``emit`` in turn, each for ``--rounds`` rounds, which checks a
solver, checker, oracle or generator change for identity and speed in one
command, on candidate sets above and below the capacity solvers'
dense-matrix limit and on instances above and below it.

    python tools/abtime.py HEAD~1 HEAD --recipe limited --rounds 40
    python tools/abtime.py HEAD . --recipe all --rounds 30
    python tools/abtime.py HEAD . --recipe capacity-cold --rounds 30
    python tools/abtime.py HEAD . --recipe cli --rounds 20
    python tools/abtime.py HEAD . --recipe latency --n 1000 --rounds 1
    python tools/abtime.py HEAD . --recipe verify --rounds 20
    python tools/abtime.py HEAD . --recipe shannon --rounds 20
    python tools/abtime.py HEAD . --recipe gen --rounds 20
    python tools/abtime.py HEAD . --recipe emit --rounds 20
    python tools/abtime.py HEAD . --recipe ratio --rounds 10
    python tools/abtime.py HEAD . --recipe brute --rounds 5
    python tools/abtime.py HEAD . --recipe fixed --n 10000 --rounds 5
    python tools/abtime.py HEAD . --recipe fixed-checked --n 300 --rounds 200

A revision ``.`` stands for the working tree.
"""

from __future__ import annotations

import argparse
import copy
import importlib.util
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/sinrsched"
RECIPES = ("unlimited", "limited", "fixed", "capacity-cold", "cli", "latency", "verify",
           "shannon", "ratio", "brute", "gen", "emit")  # ``all``
LINES = {"gen": ("gen", "gen-ratio")}  # the lines a recipe prints, when more than its own
RATIO_SEEDS = 100
LATENCY_SEEDS = 5
SHANNON_SEEDS = 8
CLI_SEEDS = 7


def _copy_package(rev: str, dest: Path) -> Path:
    """``src/sinrsched`` at ``rev`` (``.``: the working tree) under ``dest``."""
    if rev == ".":
        shutil.copytree(ROOT / PACKAGE, dest / PACKAGE)
    else:
        blob = subprocess.run(["git", "-C", str(ROOT), "archive", rev, PACKAGE],
                              check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(dest, filter="data")
    return dest / PACKAGE


def _load(name: str, package_dir: Path):
    """Import the package at ``package_dir`` as the top-level module ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _latency_instances(pkg, n: int, seed: int) -> list:
    """latency-medium's instances; the area grows with n, so that the
    density stays the benchmark's."""
    return [pkg.gen_random(pkg.GenConfig(
        n=n, seed=s, area=1000.0 * math.sqrt(n / 64), d_range=(1.0, 60.0),
        beta_range=(1.0, 2.0), demand_range=(0.5, 3.0),
        utility={"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0},
    )) for s in range(seed, seed + LATENCY_SEEDS)]


def _recipe(pkg, name: str, n: int, seed: int):
    """A zero-argument call of the recipe on package ``pkg``."""
    if name == "ratio":
        ratio = importlib.import_module(f"{pkg.__name__}.experiments").experiment_ratio
        return lambda: [ratio(n=n, trials=1, seed=s) for s in range(seed, seed + RATIO_SEEDS)]
    if name == "gen-ratio":  # the instance experiment_ratio(n, trials=1, seed=s) draws
        configs = [pkg.GenConfig(
            n=s % n + 1, seed=s * 1_000_003, area=1000.0, d_range=(1.0, 100.0),
            beta_range=(1.0, 10.0), alpha=2.0, noise=1.0, p_max=20.0 * 30.0**2,
        ) for s in range(seed, seed + RATIO_SEEDS)]
        return lambda: [pkg.gen_random(config) for config in configs]
    if name == "brute":
        insts = [pkg.gen_random(pkg.GenConfig(
            n=n, seed=s, area=1000.0, d_range=lengths, beta_range=(1.0, 10.0), noise=1.0,
            p_max=20.0 * 30.0**2,
        )) for s in (seed, seed + 1) for lengths in ((50.0, 100.0), (1.0, 100.0))]
        cases = [(inst, dict.fromkeys(inst.link_ids, inst.p_max)) for inst in insts]
        return lambda: [
            pkg.brute_opt_threshold(inst, regime=regime, powers=uniform if regime == "fixed" else None)
            for inst, uniform in cases for regime in ("variable", "variable_capped", "fixed")]
    if name == "latency":
        insts = _latency_instances(pkg, n, seed)
        return lambda: ([pkg.solve_latency(inst) for inst in insts], [])  # no flexible runs
    if name == "verify":  # latency-medium's check of each schedule, solved once here
        verify = importlib.import_module(f"{pkg.__name__}.verify")
        cases = []
        for inst in _latency_instances(pkg, n, seed):
            schedule = pkg.solve_latency(inst)
            slots = [(slot.solution.selected,
                      {lid: slot.thresholds[lid] for lid in slot.solution.selected})
                     for slot in schedule.slots]
            cases.append((inst, schedule.to_dict(), slots))
        return lambda: [
            (verify.verify_schedule(inst, data),
             [pkg.check_admissible(inst, selected, cap=math.inf, thresholds=thresholds).to_dict()
              for selected, thresholds in slots])
            for inst, data, slots in cases]
    if name == "shannon":  # (schedules, flexible runs), as for latency
        insts = [pkg.gen_random(pkg.GenConfig(
            n=n, seed=s, utility={"family": "shannon"}, demand_range=(0.5, 3.0), p_max=5e4,
        )) for s in range(seed, seed + SHANNON_SEEDS)]
        return lambda: ([pkg.solve_latency(inst, mode="limited") for inst in insts],
                        [pkg.solve_flexible(inst, mode="limited") for inst in insts])
    if name == "emit":  # cli-roundtrip's set-up through this side's CLI
        main = importlib.import_module(f"{pkg.__name__}.cli").main
        # each file sits beside this side's package copy, in the temporary directory
        paths = [Path(pkg.__path__[0]).parent / f"emit{s}.json"
                 for s in range(seed, seed + CLI_SEEDS)]
        argvs = [["gen", "--n", str(n), "--seed", str(s), "--pmax", "18000", "--power", "18000",
                  "--out", str(path)] for s, path in zip(range(seed, seed + CLI_SEEDS), paths)]

        def emit():
            codes = [main(argv) for argv in argvs]
            if any(codes):
                raise RuntimeError(f"sinrsched gen exited {codes}")
            return [path.read_text() for path in paths]
        return emit
    if name == "cli":  # the instance sinrsched gen --n n --seed s --pmax 18000 --power 18000 builds
        insts = [pkg.gen_random(pkg.GenConfig(
            n=n, seed=s, area=1000.0, d_range=(1.0, 100.0), beta_range=(1.0, 10.0), alpha=2.0,
            p_max=20.0 * 30.0**2, power=20.0 * 30.0**2,
        )) for s in range(seed, seed + CLI_SEEDS)]
        return lambda: [sol for inst in insts
                        for sol in (pkg.solve_fixed(inst), pkg.solve_limited(inst))]
    config = pkg.GenConfig(
        n=n, seed=seed, area=1000.0, d_range=(1.0, 100.0), beta_range=(1.0, 10.0),
        alpha=2.0, p_max=20.0 * 30.0**2,
    )
    if name == "gen":
        return lambda: pkg.gen_random(config)
    inst = pkg.gen_random(config)
    if name == "unlimited":
        return lambda: pkg.solve_unlimited(inst)
    if name == "limited":
        return lambda: pkg.solve_limited(inst)
    uniform = {lid: inst.p_max for lid in inst.link_ids}
    if name == "capacity-cold":  # a copy per solve, with no cached array
        return lambda: [
            pkg.solve_unlimited(copy.copy(inst)), pkg.solve_limited(copy.copy(inst)),
            pkg.solve_fixed(copy.copy(inst), powers=uniform, warn_preconditions=False)]
    if name == "fixed-checked":
        return lambda: pkg.solve_fixed(inst, powers=uniform)
    return lambda: pkg.solve_fixed(inst, powers=uniform, warn_preconditions=False)


def _output(recipe: str, out) -> str:
    """The recipe's output as JSON text: traces included, no timings."""
    if recipe == "gen":
        return json.dumps(out.to_dict())  # an instance has no trace
    if recipe == "gen-ratio":
        return json.dumps([inst.to_dict() for inst in out])
    if recipe == "emit":  # the parsed files, whatever their layout
        return json.dumps([json.loads(text) for text in out], sort_keys=True)
    if recipe in ("brute", "verify"):
        return json.dumps(out)
    if recipe in ("latency", "shannon"):
        return json.dumps([x.to_dict(include_trace=True) for part in out for x in part])
    if recipe in ("cli", "capacity-cold"):
        return json.dumps([sol.to_dict(include_trace=True) for sol in out])
    if recipe == "ratio":
        return json.dumps([{k: v for k, v in row.items() if k != "runtime_ms"}
                           for report in out for row in report["rows"]])
    return json.dumps(out.to_dict(include_trace=True))


def _solutions(recipe: str, out) -> list:
    """The solutions in a recipe's output: a capacity solve's one,
    ``capacity-cold``'s three, ``cli``'s fourteen, every slot's of both
    scheme runs of each latency schedule (and then every level's of each
    ``shannon`` flexible run), none for ``ratio``, ``brute``, ``verify``,
    ``emit`` and the ``gen`` lines."""
    if recipe in ("ratio", "brute", "verify", "gen", "gen-ratio", "emit"):
        return []
    if recipe in ("cli", "capacity-cold"):
        return out
    if recipe in ("latency", "shannon"):
        schedules, runs = out
        return ([slot.solution for schedule in schedules
                 for _, run in sorted(schedule.runs.items()) for slot in run.slots]
                + [level.solution for run in runs for level in run.levels])
    return [out]


def _decisions(recipe: str, out) -> str:
    """The output's decisions as JSON text, without a power or an SINR."""
    if recipe == "verify":  # the problem lists and each slot's verdict
        return json.dumps([[problems, [cert["feasible"] for cert in certs]]
                           for problems, certs in out])
    if recipe in ("ratio", "brute", "gen", "gen-ratio", "emit"):
        return _output(recipe, out)
    decided = [[list(sol.selected), [row[:2] for row in sol.trace]]
               for sol in _solutions(recipe, out)]
    if recipe in ("latency", "shannon"):
        schedules, runs = out
        decided += [[schedule.scheme, sorted(schedule.lengths.items())] for schedule in schedules]
        decided += [run.best_index for run in runs]
    return json.dumps(decided)


def _largest_change(recipe: str, a, b) -> float:
    """Largest relative difference of a power or an SINR that both sides give
    a link in corresponding solutions; inf when one side's is not finite."""
    worst = 0.0
    for sol_a, sol_b in zip(_solutions(recipe, a), _solutions(recipe, b)):
        for x, y in ((sol_a.powers, sol_b.powers), (sol_a.sinr, sol_b.sinr)):
            for lid in x.keys() & y.keys():
                if x[lid] != y[lid]:
                    change = abs(x[lid] - y[lid]) / max(abs(x[lid]), abs(y[lid]))
                    worst = max(worst, math.inf if math.isnan(change) else change)
    return worst


def _level_solves(pkg, call) -> int:
    """The level solves (``flexible._solve_level`` calls) of one untimed
    ``call`` on package ``pkg``."""
    flexible = importlib.import_module(f"{pkg.__name__}.flexible")
    solve = flexible._solve_level
    count = 0

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return solve(*args, **kwargs)

    flexible._solve_level = counted
    try:
        call()
    finally:
        flexible._solve_level = solve
    return count


def _compare(pkgs, recipe: str, n: int, seed: int, rounds: int):
    """Seconds per call of each side over ``rounds`` alternating rounds, each
    side's output and, for ``latency`` and ``shannon``, each side's level
    solves per call (else None)."""
    calls, outputs, solves = {}, {}, None
    for side, pkg in pkgs.items():
        calls[side] = _recipe(pkg, recipe, n, seed)
        outputs[side] = calls[side]()  # also the warm-up
    if recipe in ("latency", "shannon"):
        solves = [_level_solves(pkg, calls[side]) for side, pkg in pkgs.items()]
    times = {"A": [], "B": []}
    for r in range(rounds):
        for side in ("AB" if r % 2 == 0 else "BA"):
            t0 = time.perf_counter()
            calls[side]()
            times[side].append(time.perf_counter() - t0)
    return times, outputs["A"], outputs["B"], solves


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of side A")
    parser.add_argument("head", nargs="?", default=".", help="revision of side B (default: .)")
    parser.add_argument("--recipe", choices=(*RECIPES, "fixed-checked", "all"), default="limited")
    parser.add_argument("--n", type=int,
                        help="links (default: 2000, cli and emit 300, latency and verify 64, "
                             "shannon 20, ratio and gen-ratio 10, brute 16)")
    parser.add_argument("--seed", type=int, help="instance seed (default: 1000, cli, emit, "
                                                 "latency, verify, ratio and gen-ratio 0, "
                                                 "shannon 500, brute 5000)")
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)

    print(f"A = {args.base}, B = {args.head}, {args.rounds} alternating rounds; ms per call")
    with tempfile.TemporaryDirectory() as tmp:
        pkgs = {side: _load(f"sinrsched_{side}", _copy_package(rev, Path(tmp) / side))
                for side, rev in (("A", args.base), ("B", args.head))}
        recipes = RECIPES if args.recipe == "all" else (args.recipe,)
        for recipe in [line for r in recipes for line in LINES.get(r, (r,))]:
            n = args.n or {"cli": 300, "emit": 300, "latency": 64, "verify": 64, "shannon": 20,
                           "ratio": 10, "gen-ratio": 10, "brute": 16}.get(recipe, 2000)
            seed = args.seed if args.seed is not None else (
                {"cli": 0, "emit": 0, "latency": 0, "verify": 0, "shannon": 500, "ratio": 0,
                 "gen-ratio": 0, "brute": 5000}.get(recipe, 1000))
            times, out_a, out_b, solves = _compare(pkgs, recipe, n, seed, args.rounds)
            a, b = ([t * 1e3 for t in times[side]] for side in "AB")
            same = _output(recipe, out_a) == _output(recipe, out_b)
            if recipe == "emit":
                written = [sum(len(text.encode()) for text in out) for out in (out_a, out_b)]
            decided = _decisions(recipe, out_a) == _decisions(recipe, out_b)
            print(f"  {recipe:>13} n={n} seed={seed}: min {min(a):.3f} / {min(b):.3f}, "
                  f"median {statistics.median(a):.3f} / {statistics.median(b):.3f}, "
                  f"B/A min ratio {min(b) / min(a):.3f}; outputs identical: {same}, "
                  f"decisions identical: {decided}, largest power/SINR change: "
                  f"{_largest_change(recipe, out_a, out_b):.2g}"
                  + ("" if solves is None else f"; level solves {solves[0]} / {solves[1]}")
                  + (f"; bytes written {written[0]} / {written[1]}" if recipe == "emit" else ""))


if __name__ == "__main__":
    main()
