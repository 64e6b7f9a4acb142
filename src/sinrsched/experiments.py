"""Experiment drivers behind the CLI and the acceptance suite.

Every driver returns a plain report dict (config echo, seed, per-trial rows,
summary) that serializes to JSON; ``write_csv`` flattens the rows. Trials
only draw randomness through explicit seeds and run one after another.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from typing import Sequence

from .capacity import solve_fixed, solve_limited, solve_unlimited
from .generate import GenConfig, gen_random
from .lemmas import gen_greedy_adversary, reverse_dual, simulate_aloha, strengthen
from .model import INF, Instance
from .oracle import brute_opt_threshold, check_admissible
from .verify import verify_solution

# the strengthening scales c that experiment_strengthen decomposes at
C_VALUES = (1.0, 2.0, 3.0)


def instance_digest(instance: Instance) -> str:
    payload = json.dumps(instance.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def _summary_stats(values: Sequence[float]) -> dict:
    vals = sorted(v for v in values if math.isfinite(v))
    if not vals:
        return {"min": None, "median": None, "max": None}
    return {
        "min": vals[0],
        "median": vals[len(vals) // 2],
        "max": vals[-1],
    }


def experiment_ratio(
    n: int = 10,
    trials: int = 200,
    seed: int = 0,
    alpha: float = 2.0,
) -> dict:
    """Empirical |OPT| / |ALG| for the three threshold regimes, with oracle
    certification of every algorithm output."""
    if n < 1:
        raise ValueError("ratio experiment needs n >= 1")
    if n > 20:
        raise ValueError("ratio experiment needs n <= 20 for the brute-force oracle")

    def one(t: int) -> dict:
        rng_n = max(1, (seed + t) % n + 1)
        base = GenConfig(
            n=rng_n,
            seed=seed * 1_000_003 + t,
            area=1000.0,
            d_range=(1.0, 100.0),
            beta_range=(1.0, 10.0),
            alpha=alpha,
            noise=1.0,
            p_max=20.0 * 30.0**alpha,
        )
        instance = gen_random(base)
        started = time.perf_counter()
        row: dict = {"trial": t, "instance": instance_digest(instance), "n": rng_n}

        uniform = {lid: instance.p_max for lid in instance.link_ids}
        algs = {
            "unlimited": solve_unlimited(instance),
            "limited": solve_limited(instance),
            "fixed": solve_fixed(instance, powers=uniform, warn_preconditions=False),
        }
        opts = {
            "unlimited": brute_opt_threshold(instance, regime="variable")[1],
            "limited": brute_opt_threshold(instance, regime="variable_capped")[1],
            "fixed": brute_opt_threshold(instance, regime="fixed", powers=uniform)[1],
        }
        for name, sol in algs.items():
            alg_size = len(sol.selected)
            opt_size = opts[name]
            row[f"{name}_alg"] = alg_size
            row[f"{name}_opt"] = opt_size
            row[f"{name}_ratio"] = opt_size / alg_size if alg_size else (
                0.0 if opt_size == 0 else INF
            )
            feasible = not verify_solution(instance, sol)
            if name in ("unlimited", "limited"):
                cert = check_admissible(
                    instance,
                    sol.selected,
                    cap=INF if name == "unlimited" else instance.p_max,
                )
                feasible = feasible and cert.feasible
            else:
                # verify_solution has checked the SINRs under the solution's powers
                feasible = feasible and all(sol.powers[lid] == uniform[lid] for lid in sol.selected)
            row[f"{name}_feasible"] = feasible
            row[f"{name}_nonempty_ok"] = not (alg_size == 0 and opt_size >= 1)
        row["runtime_ms"] = 1000.0 * (time.perf_counter() - started)
        return row

    rows = [one(t) for t in range(trials)]
    summary: dict = {"violations": 0, "empty_vs_nonempty": 0}
    for name in ("unlimited", "limited", "fixed"):
        summary[f"{name}_ratio"] = _summary_stats([r[f"{name}_ratio"] for r in rows])
        summary["violations"] += sum(not r[f"{name}_feasible"] for r in rows)
        summary["empty_vs_nonempty"] += sum(not r[f"{name}_nonempty_ok"] for r in rows)
    return {
        "experiment": "ratio",
        "params": {"n": n, "trials": trials, "alpha": alpha},
        "seed": seed,
        "rows": rows,
        "summary": summary,
    }


def experiment_adversary(k: int = 8, alpha: float = 2.0) -> dict:
    """Greedy gap on the forward/reversed line construction."""
    instance = gen_greedy_adversary(k, alpha=alpha)
    sol = solve_unlimited(instance)
    reversed_ids = list(instance.link_ids[1:])
    cert = check_admissible(instance, reversed_ids, cap=INF)
    ratio = len(reversed_ids) / len(sol.selected) if sol.selected else INF
    return {
        "experiment": "greedy_adversary",
        "params": {"k": k, "alpha": alpha},
        "seed": None,
        "rows": [
            {
                "instance": instance_digest(instance),
                "alg_selected": list(sol.selected),
                "alg_size": len(sol.selected),
                "reversed_admissible": cert.feasible,
                "opt_size": len(reversed_ids) if cert.feasible else None,
                "ratio": ratio,
            }
        ],
        "summary": {"ratio": ratio, "reversed_admissible": cert.feasible},
    }


def experiment_aloha(k: int = 32, trials: int = 400, seed: int = 0) -> dict:
    """Empirical distribution of the time to k/2 ALOHA successes under the
    uniform transmit probability."""
    result = simulate_aloha(k, trials=trials, seed=seed)
    rows = [
        {"trial": t, "rounds": ("inf" if r == INF else r)}
        for t, r in enumerate(result.rounds)
    ]
    return {
        "experiment": "aloha",
        "params": {"k": k, "trials": trials, "probs": "uniform"},
        "seed": seed,
        "rows": rows,
        "summary": {
            "threshold_rounds": result.threshold_rounds,
            "fraction_fast": result.fraction_fast,
        },
    }


def harvest_admissible_sets(count: int, seed: int = 0) -> list[tuple[Instance, tuple, dict]]:
    """Nonempty admissible sets with witness powers, harvested from greedy
    solutions on random instances of 2 to 8 links."""
    out = []
    t = 0
    while len(out) < count:
        config = GenConfig(
            n=max(2, (seed + t) % 8 + 1),
            seed=seed * 7_777_777 + t,
            area=200.0,
            d_range=(1.0, 40.0),
            beta_range=(1.0, 4.0),
            noise=1.0,
        )
        t += 1
        instance = gen_random(config)
        sol = solve_unlimited(instance)
        if sol.selected:
            out.append((instance, sol.selected, sol.powers))
        if t > 100 * count:
            raise RuntimeError("could not harvest enough admissible sets")
    return out


def experiment_strengthen(sets: int = 100, seed: int = 0) -> dict:
    """Signal-strengthening decompositions over harvested admissible sets, at
    each scale c in C_VALUES."""
    harvest = harvest_admissible_sets(sets, seed=seed)
    rows = []
    violations = 0
    for idx, (instance, selected, powers) in enumerate(harvest):
        for c in C_VALUES:
            deco = strengthen(instance, selected, powers, c)
            bound = math.ceil(2 * c) ** 2
            certified = all(
                check_admissible(
                    instance,
                    part,
                    cap=INF,
                    thresholds={lid: c * instance.link(lid).threshold for lid in part},
                ).feasible
                for part in deco.parts
            )
            ok = len(deco.parts) <= bound and certified
            violations += not ok
            rows.append(
                {
                    "set": idx,
                    "size": len(selected),
                    "c": c,
                    "parts": len(deco.parts),
                    "bound": bound,
                    "certified": certified,
                }
            )
    return {
        "experiment": "strengthen",
        "params": {"sets": sets, "c_values": list(C_VALUES)},
        "seed": seed,
        "rows": rows,
        "summary": {"violations": violations},
    }


def experiment_reverse(sets: int = 100, seed: int = 0) -> dict:
    """Link-reversal subsets over harvested admissible sets."""
    harvest = harvest_admissible_sets(sets, seed=seed)
    rows = []
    violations = 0
    for idx, (instance, selected, powers) in enumerate(harvest):
        subset, fragment = reverse_dual(instance, selected, powers)
        cert = check_admissible(fragment, subset, cap=INF)
        ok = len(subset) >= len(selected) // 72 and len(subset) >= 1 and cert.feasible
        violations += not ok
        rows.append(
            {
                "set": idx,
                "size": len(selected),
                "reversed_size": len(subset),
                "floor_bound": len(selected) // 72,
                "certified": cert.feasible,
            }
        )
    return {
        "experiment": "reverse",
        "params": {"sets": sets},
        "seed": seed,
        "rows": rows,
        "summary": {"violations": violations},
    }


def write_csv(report: dict, path: str) -> None:
    """Flatten the per-trial rows into a fixed-column CSV next to the JSON."""
    import csv

    rows = report.get("rows", [])
    if not rows:
        with open(path, "w", newline="") as fh:
            fh.write("")
        return
    columns = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in columns})
