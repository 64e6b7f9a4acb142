"""Flexible-rate capacity maximization on top of the threshold solvers.

The wrapper sweeps geometrically decreasing value targets. At each level it
asks every utility for the smallest SINR reaching the target, uses those as
individual thresholds, runs the requested threshold solver and scores the
result by the utilities realized at the actual SINRs. The best level wins.

A level's solution depends only on its candidates and their thresholds, so a
caller that sweeps again on the same instance (the latency scheduler, once
per slot) can hand in the previous run and every level whose input is
unchanged reuses the stored solution instead of solving again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .capacity import solve_fixed, solve_limited, solve_unlimited
from .model import INF, Instance, Solution, empty_solution, powers_for, utilities_for
from .utility import UtilitySpec, inverse_threshold

MODES = ("unlimited", "fixed", "limited")


@dataclass(frozen=True)
class FlexibleLevel:
    """One target level: value floor, per-link SINR thresholds, solution."""

    index: int
    target: float
    thresholds: dict
    solution: Solution
    objective: float

    def to_dict(self, include_trace: bool = False) -> dict:
        return {
            "i": self.index,
            "target": self.target,
            "thresholds": {str(k): v for k, v in self.thresholds.items()},
            "solution": self.solution.to_dict(include_trace),
            "objective": self.objective,
        }


@dataclass(frozen=True)
class FlexibleRun:
    """All levels of one flexible-rate solve plus the winning index."""

    top_value: float
    mode: str
    levels: tuple[FlexibleLevel, ...]
    best_index: Optional[int]

    @property
    def best(self) -> Optional[FlexibleLevel]:
        return None if self.best_index is None else self.levels[self.best_index]

    @property
    def objective(self) -> float:
        return 0.0 if self.best_index is None else self.levels[self.best_index].objective

    @property
    def solution(self) -> Solution:
        if self.best_index is None:
            return empty_solution("flexible")
        return self.levels[self.best_index].solution

    def to_dict(self, include_trace: bool = False) -> dict:
        return {
            "B": self.top_value,
            "mode": self.mode,
            "levels": [lvl.to_dict(include_trace) for lvl in self.levels],
            "best_index": self.best_index,
            "objective": self.objective,
        }


def solo_sinr_cap(instance: Instance, lid: int, mode: str, powers=None) -> float:
    """Best SINR the link can reach alone under ``mode``: power / (noise * d^alpha).

    The power is unbounded for "unlimited", the instance cap for "limited"
    and, for "fixed", the link's entry in ``powers`` when that is given, else
    its fixed power (see ``powers_for``).
    """
    if mode == "unlimited":
        return INF
    p = instance.p_max if mode == "limited" else powers_for(instance, [lid], powers)[0]
    if p == INF:
        return INF
    return p / (instance.noise * float(instance.d_alpha[instance._position(lid)]))


def solve_flexible(
    instance: Instance,
    mode: str = "unlimited",
    links: Optional[Sequence[int]] = None,
    utilities: Optional[Mapping[int, UtilitySpec]] = None,
    powers: Optional[Mapping[int, float]] = None,
    *,
    previous: Optional[FlexibleRun] = None,
) -> FlexibleRun:
    """Maximize summed utility by sweeping ceil(log2 n) + 1 value targets.

    ``utilities`` overrides the links' own utility functions (the latency
    scheduler passes residual-capped ones). Links whose utility cannot reach
    a level's target are left out of that level only. Levels are scored at
    realized SINRs, so the reported objective is the honest achieved value.

    ``previous`` is an earlier run on the same instance, mode and powers (the
    latency scheduler passes the previous slot's run). A threshold solve is a
    function of its candidates and thresholds alone, so a level whose sorted
    candidates and thresholds equal those of a level of ``previous`` takes
    that level's solution instead of solving again; its objective is still
    scored under the current utilities. Without ``previous`` every level is
    solved.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if previous is not None and previous.mode != mode:
        raise ValueError(f"previous run has mode {previous.mode!r}, not {mode!r}")
    if links is None:
        links = instance.link_ids
    ids = list(links)
    if not ids:
        raise ValueError("no links to schedule")
    utils = dict(zip(ids, utilities_for(instance, ids, utilities)))
    top = max(utils[lid].max_value(solo_sinr_cap(instance, lid, mode, powers)) for lid in ids)
    if not math.isfinite(top):
        raise ValueError("objective unbounded")
    if top <= 0.0:
        # nothing can realize positive value; empty run, objective 0
        return FlexibleRun(0.0, mode, (), None)

    n_levels = max(0, math.ceil(math.log2(len(ids)))) + 1
    known = {}
    if previous is not None:
        known = {_level_input(lvl.thresholds): lvl.solution for lvl in previous.levels}
    levels = _sweep(instance, mode, utils, powers, top, n_levels, known)
    # ties go to the shallowest level, whose members each carry the top value
    best_index = max(range(n_levels), key=lambda i: (levels[i].objective, -i))
    return FlexibleRun(float(top), mode, tuple(levels), best_index)


def _level_input(thresholds: Mapping[int, float]) -> tuple:
    """A level's exact solver input: (id, threshold) of its candidates in id
    order."""
    return tuple(sorted(thresholds.items()))


def _sweep(instance, mode, utils, powers, top, n_levels, known) -> list[FlexibleLevel]:
    """Solve the levels top, top / 2, ...; a level whose input is a key of
    ``known`` takes the stored solution."""
    levels = []
    for i in range(n_levels):
        target = top * 2.0**-i
        thresholds = {}
        for lid, u in utils.items():
            gamma = inverse_threshold(u, target)
            if gamma is not None:  # else the link sits this level out
                thresholds[lid] = gamma
        key = _level_input(thresholds)
        sol = known.get(key)
        if sol is None:
            sol = _solve_level(instance, mode, key, powers)
        realized = sum(utils[lid].value(sol.sinr[lid]) for lid in sol.selected)
        levels.append(FlexibleLevel(i, target, thresholds, sol, float(realized)))
    return levels


def _solve_level(instance, mode, key, powers) -> Solution:
    """Run the threshold solver on a level's input, handing it the threshold
    array aligned with the candidates."""
    if not key:
        return empty_solution(mode)
    candidates = [lid for lid, _ in key]
    thresholds = np.array([beta for _, beta in key], dtype=np.float64)
    if mode == "unlimited":
        return solve_unlimited(instance, candidates, thresholds=thresholds)
    if mode == "limited":
        return solve_limited(instance, candidates, thresholds=thresholds)
    return solve_fixed(
        instance, candidates, powers=powers, thresholds=thresholds, warn_preconditions=False
    )
