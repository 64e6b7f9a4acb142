"""Time one recipe at two revisions of the package, side by side.

Copies ``src/sinrsched`` at two git revisions into a temporary directory,
imports both copies in this one process under distinct names, and times the
recipe on each side in alternating rounds (the side that goes first
alternates too), so that drift in the machine's speed hits both sides alike.
Prints one line per recipe: the min and the median time per call of each
side, the ratio of the mins, and whether both sides return the same output
(``to_dict`` JSON, traces included).

Recipes: ``unlimited``, ``limited`` and ``fixed`` run the capacity solvers
on the capacity-large benchmark's instance (``gen_random``, area 1000,
lengths 1-100, thresholds 1-10, alpha 2, p_max 18,000; ``fixed`` at uniform
power p_max without the precondition check, ``fixed-checked`` the same call
with the check and its warning, as ``sinrsched solve --algorithm fixed``
runs it); ``gen`` runs that ``gen_random`` call itself, and its output is
the instance's bytes; ``latency`` runs ``solve_latency`` on the
latency-medium instance (n = 64, 3-step utilities); ``ratio`` runs the
ratio-small benchmark's calls, ``experiment_ratio(n=10, trials=1, seed=s)``
for 100 seeds s from ``--seed`` on (default 0), and compares their report
rows without ``runtime_ms``. ``all`` runs ``unlimited``, ``limited``,
``fixed``, ``latency`` and ``ratio`` in turn, each for ``--rounds`` rounds,
which checks a solver change for identity and speed in one command, on
candidate sets above and below the capacity solvers' dense-matrix limit.

    python tools/abtime.py HEAD~1 HEAD --recipe limited --rounds 40
    python tools/abtime.py HEAD . --recipe all --rounds 30
    python tools/abtime.py HEAD . --recipe gen --rounds 20
    python tools/abtime.py HEAD . --recipe ratio --rounds 10
    python tools/abtime.py HEAD . --recipe fixed --n 10000 --rounds 5
    python tools/abtime.py HEAD . --recipe fixed-checked --n 300 --rounds 200

A revision ``.`` stands for the working tree.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
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
RECIPES = ("unlimited", "limited", "fixed", "latency", "ratio")  # the solver recipes ``all`` runs
RATIO_SEEDS = 100


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


def _recipe(pkg, name: str, n: int, seed: int):
    """A zero-argument call of the recipe on package ``pkg``."""
    if name == "ratio":
        ratio = importlib.import_module(f"{pkg.__name__}.experiments").experiment_ratio
        return lambda: [ratio(n=n, trials=1, seed=s) for s in range(seed, seed + RATIO_SEEDS)]
    if name == "latency":
        inst = pkg.gen_random(pkg.GenConfig(
            n=n, seed=seed, area=1000.0, d_range=(1.0, 60.0), beta_range=(1.0, 2.0),
            demand_range=(0.5, 3.0),
            utility={"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0},
        ))
        return lambda: pkg.solve_latency(inst)
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
    if name == "fixed-checked":
        return lambda: pkg.solve_fixed(inst, powers=uniform)
    return lambda: pkg.solve_fixed(inst, powers=uniform, warn_preconditions=False)


def _output(recipe: str, out) -> str:
    """The recipe's output as JSON text: traces included, no timings."""
    if recipe == "gen":
        return json.dumps(out.to_dict())  # an instance has no trace
    if recipe == "ratio":
        return json.dumps([{k: v for k, v in row.items() if k != "runtime_ms"}
                           for report in out for row in report["rows"]])
    return json.dumps(out.to_dict(include_trace=True))


def _compare(pkgs, recipe: str, n: int, seed: int, rounds: int):
    """Seconds per call of each side over ``rounds`` alternating rounds, and
    whether both sides return the same output."""
    calls, outputs = {}, {}
    for side, pkg in pkgs.items():
        calls[side] = _recipe(pkg, recipe, n, seed)
        outputs[side] = _output(recipe, calls[side]())  # also the warm-up
    times = {"A": [], "B": []}
    for r in range(rounds):
        for side in ("AB" if r % 2 == 0 else "BA"):
            t0 = time.perf_counter()
            calls[side]()
            times[side].append(time.perf_counter() - t0)
    return times, outputs["A"] == outputs["B"]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of side A")
    parser.add_argument("head", nargs="?", default=".", help="revision of side B (default: .)")
    parser.add_argument("--recipe", choices=(*RECIPES, "fixed-checked", "gen", "all"),
                        default="limited")
    parser.add_argument("--n", type=int, help="links (default: 2000, latency 64, ratio 10)")
    parser.add_argument("--seed", type=int,
                        help="instance seed (default: 1000, latency and ratio 0)")
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)

    print(f"A = {args.base}, B = {args.head}, {args.rounds} alternating rounds; ms per call")
    with tempfile.TemporaryDirectory() as tmp:
        pkgs = {side: _load(f"sinrsched_{side}", _copy_package(rev, Path(tmp) / side))
                for side, rev in (("A", args.base), ("B", args.head))}
        for recipe in RECIPES if args.recipe == "all" else (args.recipe,):
            n = args.n or {"latency": 64, "ratio": 10}.get(recipe, 2000)
            seed = args.seed if args.seed is not None else (
                0 if recipe in ("latency", "ratio") else 1000)
            times, same = _compare(pkgs, recipe, n, seed, args.rounds)
            a, b = ([t * 1e3 for t in times[side]] for side in "AB")
            print(f"  {recipe:>13} n={n} seed={seed}: min {min(a):.3f} / {min(b):.3f}, "
                  f"median {statistics.median(a):.3f} / {statistics.median(b):.3f}, "
                  f"B/A min ratio {min(b) / min(a):.3f}; outputs identical: {same}")


if __name__ == "__main__":
    main()
