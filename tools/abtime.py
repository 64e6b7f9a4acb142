"""Time one recipe at two revisions of the package, side by side.

Copies ``src/sinrsched`` at two git revisions into a temporary directory,
imports both copies in this one process under distinct names, and times the
recipe on each side in alternating rounds (the side that goes first
alternates too), so that drift in the machine's speed hits both sides alike.
Prints the min and the median seconds per call of each side, their ratio,
and whether both sides return the same output (``to_dict`` JSON, traces
included).

Recipes: ``unlimited``, ``limited`` and ``fixed`` run the capacity solvers
on the capacity-large benchmark's instance (``gen_random``, area 1000,
lengths 1-100, thresholds 1-10, alpha 2, p_max 18,000; ``fixed`` at uniform
power p_max); ``gen`` runs that ``gen_random`` call itself, and its output
is the instance's bytes; ``latency`` runs ``solve_latency`` on the
latency-medium instance (n = 64, 3-step utilities).

    python tools/abtime.py HEAD~1 HEAD --recipe limited --rounds 40
    python tools/abtime.py HEAD . --recipe gen --rounds 20
    python tools/abtime.py HEAD . --recipe fixed --n 10000 --rounds 5

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
    return lambda: pkg.solve_fixed(inst, powers=uniform, warn_preconditions=False)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of side A")
    parser.add_argument("head", nargs="?", default=".", help="revision of side B (default: .)")
    parser.add_argument("--recipe", choices=("unlimited", "limited", "fixed", "gen", "latency"),
                        default="limited")
    parser.add_argument("--n", type=int, help="links (default: 2000, latency 64)")
    parser.add_argument("--seed", type=int, help="instance seed (default: 1000, latency 0)")
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    latency = args.recipe == "latency"
    n = args.n or (64 if latency else 2000)
    seed = args.seed if args.seed is not None else (0 if latency else 1000)

    with tempfile.TemporaryDirectory() as tmp:
        calls, outputs = {}, {}
        for side, rev in (("A", args.base), ("B", args.head)):
            pkg = _load(f"sinrsched_{side}", _copy_package(rev, Path(tmp) / side))
            calls[side] = _recipe(pkg, args.recipe, n, seed)
            out = calls[side]()  # warm-up
            # an instance has no trace
            outputs[side] = json.dumps(
                out.to_dict() if args.recipe == "gen" else out.to_dict(include_trace=True))
        times = {"A": [], "B": []}
        for r in range(args.rounds):
            for side in ("AB" if r % 2 == 0 else "BA"):
                t0 = time.perf_counter()
                calls[side]()
                times[side].append(time.perf_counter() - t0)

    print(f"{args.recipe} n={n} seed={seed}, {args.rounds} alternating rounds")
    for side, rev in (("A", args.base), ("B", args.head)):
        ts = times[side]
        print(f"  {side} {rev:>12}: min {min(ts) * 1e3:9.3f} ms   "
              f"median {statistics.median(ts) * 1e3:9.3f} ms")
    ratio = min(times["B"]) / min(times["A"])
    print(f"  B/A min ratio {ratio:.3f}; outputs identical: {outputs['A'] == outputs['B']}")


if __name__ == "__main__":
    main()
