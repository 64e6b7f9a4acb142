"""Re-verification of solver outputs against their instance.

Each checker returns a list of human-readable violations (empty means the
artifact holds up); the CLI turns a non-empty list into exit code 1.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from .model import (
    CAP_RTOL,
    FEAS_RTOL,
    RESIDUAL_TOL,
    Instance,
    Solution,
    _id_numbers,
    _integer,
    _number,
    _require,
    evaluate_sinrs,
    float_sum,
)

SINR_MATCH_RTOL = 1e-6


def verify_solution(
    instance: Instance,
    solution: Solution,
    thresholds: Optional[Mapping[int, float]] = None,
    check_thresholds: bool = True,
) -> list[str]:
    """Check selected-set consistency, power bounds, SINR claims and the
    objective of a threshold Solution."""
    problems = []
    known = set(instance.link_ids)
    seen = set()
    for lid in solution.selected:
        if lid not in known:
            problems.append(f"link {lid}: not part of the instance")
            return problems
        if lid in seen:
            problems.append(f"link {lid}: selected more than once")
            return problems
        seen.add(lid)
    if set(solution.sinr) != set(solution.selected):
        problems.append("sinr keys do not match the selected set")
    # the unlimited-power solver is exempt from the instance cap by definition
    capped = solution.algorithm != "unlimited"
    for lid in solution.selected:
        if lid not in solution.powers:
            problems.append(f"link {lid}: no power assigned")
            return problems
        p = solution.powers[lid]
        if not math.isfinite(p):
            problems.append(f"link {lid}: power {p} is not finite")
        elif p < 0:
            problems.append(f"link {lid}: negative power")
        if capped and p > instance.p_max * (1 + CAP_RTOL):
            problems.append(f"link {lid}: power {p} exceeds cap {instance.p_max}")

    actual = evaluate_sinrs(instance, solution.selected, solution.powers)
    for lid in solution.selected:
        if not math.isfinite(actual[lid]):
            # every comparison against a NaN is false, so no later check fails
            problems.append(f"link {lid}: re-evaluated SINR {actual[lid]} is not finite")
            continue
        claimed = solution.sinr.get(lid)
        if claimed is not None and not abs(actual[lid] - claimed) <= SINR_MATCH_RTOL * max(
            1.0, abs(claimed)
        ):
            problems.append(
                f"link {lid}: stored SINR {claimed:.9g} but re-evaluation gives {actual[lid]:.9g}"
            )
        if check_thresholds:
            if thresholds is not None and lid in thresholds:
                beta = thresholds[lid]
            else:
                beta = instance.link(lid).threshold
            if beta is None:
                continue
            if actual[lid] < beta * (1 - FEAS_RTOL):
                problems.append(
                    f"link {lid}: SINR {actual[lid]:.9g} below threshold {beta:.9g}"
                )

    if solution.objective != float(len(solution.selected)):
        problems.append(
            f"objective {solution.objective} does not equal the selected count "
            f"{len(solution.selected)}"
        )
    return problems


def verify_flexible_run(instance: Instance, run_data: Mapping) -> list[str]:
    """Check every level of a serialized flexible-rate run, then its
    objectives, recomputed: a level's is the sum, in selection order, of its
    links' utility values at the re-evaluated SINRs; ``best_index`` is the
    level with the highest (ties go to the shallowest) and the run's
    objective is that level's. Objectives are checked once every level
    passes its own checks."""
    problems = []
    levels = run_data.get("levels", [])
    _require(levels, list, "a list", "levels")
    realized = []
    for t, level in enumerate(levels):
        _require(level, Mapping, "an object", f"levels[{t}]")
        thresholds = _id_numbers(level.get("thresholds"), f"levels[{t}].thresholds")
        sol = Solution.from_dict(level.get("solution"), f"levels[{t}].solution")
        claimed = _number(level.get("objective"), f"levels[{t}].objective")
        name = f"level {level.get('i', t)}"
        issues = verify_solution(instance, sol, thresholds=thresholds)
        problems += [f"{name}: {issue}" for issue in issues]
        values = None if issues else _values(instance, sol)
        value = None if values is None or None in values else float_sum(values)
        if values is not None and value is None:
            problems.append(f"{name}: a selected link has no utility")
        elif value is not None and claimed != value:
            problems.append(
                f"{name}: objective {claimed!r} but its links' utilities at the "
                f"re-evaluated SINRs sum to {value!r}"
            )
        realized.append(value)
    best_index = run_data.get("best_index")
    if best_index is not None:
        _integer(best_index, "best_index")
    objective = _number(run_data.get("objective"), "objective")
    if None in realized:
        return problems
    best = max(range(len(realized)), key=lambda i: (realized[i], -i), default=None)
    if best_index != best:
        problems.append(f"best_index {best_index} but the best level is {best}")
    want = 0.0 if best is None else realized[best]
    if objective != want:
        problems.append(f"objective {objective!r} but the best level's is {want!r}")
    return problems


def _values(instance: Instance, sol: Solution) -> list[Optional[float]]:
    """Each selected link's utility value at its re-evaluated SINR, in
    selection order; None for a link with no utility."""
    actual = evaluate_sinrs(instance, sol.selected, sol.powers)
    utilities = [instance.link(lid).utility for lid in sol.selected]
    return [None if u is None else u.value(actual[lid]) for lid, u in zip(sol.selected, utilities)]


def verify_schedule(instance: Instance, schedule_data: Mapping) -> list[str]:
    """Check per-slot feasibility of a serialized schedule and that demands
    come out fulfilled. A slot delivers its links' utility values at the
    re-evaluated SINRs, never at the stored ones; a slot that fails its own
    check delivers nothing."""
    problems = []
    delivered: dict[int, float] = {}
    slots = schedule_data.get("slots", [])
    _require(slots, list, "a list", "slots")
    for t, slot in enumerate(slots):
        sol = Solution.from_dict(slot, f"slots[{t}]")
        issues = verify_solution(instance, sol, check_thresholds=False)
        problems += [f"slot {t}: {issue}" for issue in issues]
        for lid, value in zip(sol.selected, [] if issues else _values(instance, sol)):
            if value is not None:
                delivered[lid] = delivered.get(lid, 0.0) + value
    if schedule_data.get("scheme") == 2 and schedule_data.get("fulfilled"):
        for link in instance.links:
            if link.demand and delivered.get(link.id, 0.0) < link.demand - RESIDUAL_TOL:
                problems.append(
                    f"link {link.id}: delivered {delivered.get(link.id, 0.0):.9g} "
                    f"of demand {link.demand:.9g}"
                )
    return problems
