"""Flexible-rate capacity maximization on top of the threshold solvers.

The wrapper sweeps geometrically decreasing value targets. At each level it
asks every utility for the smallest SINR reaching the target, uses those as
individual thresholds, runs the requested threshold solver and scores the
result by the utilities realized at the actual SINRs. The best level wins.

The utilities are held as one ``UtilityTable`` (step tables, Shannon
parameters, rounding and the caps as a vector), so a single array
``inverse_threshold`` call gives every level's thresholds, and the top value
is a vector maximum over each link's best value alone, which a run computes
once per link.

A level's solution depends only on its candidates and their thresholds, so a
caller that sweeps again on the same instance (the latency scheduler, once
per slot) can hand in the previous run, and the tables and best values of
links whose uncapped utility is the same object are reused instead of
rebuilt. A level takes a previous level's solution instead of solving again
when its input is unchanged, or when it differs only by candidates that the
previous level's greedy rejected. A rejected candidate adds no row to any
load, so without it every other load, accept decision and power is the same
to the float, and the solution is the old one without its trace rows. This
second rule needs a trace that records every candidate and every link that
added a row, which holds in "unlimited" and "fixed" mode and in "limited"
mode without a power cap (that solve is the unlimited one); a capped
"limited" solve keeps only the trace of the branch it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .capacity import solve_fixed, solve_limited, solve_unlimited
from .model import INF, Instance, Solution, empty_solution, index_of, powers_for, utilities_for
from .utility import UtilitySpec, UtilityTable, inverse_threshold, split_caps

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
    # what a later sweep on the same instance, mode and powers may reuse:
    # the utility tables and each level's thresholds over the tables' rows,
    # NaN where a link sits the level out (see ``_sweep``)
    _tables: Optional["_Tables"] = field(default=None, repr=False, compare=False)
    _gammas: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

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


@dataclass(frozen=True)
class _Tables:
    """A sweep's uncapped utilities (their cores, see ``split_caps``) as one
    table with a row per link in id order, and each core's best value alone
    under the mode. Valid for one instance, mode and powers; a later sweep
    over a subset of the links with the same core objects reuses it."""

    instance: Instance
    powers: Optional[Mapping[int, float]]
    ids: np.ndarray
    row: dict  # link id -> row
    cores: tuple
    table: UtilityTable
    solo_max: np.ndarray

    @classmethod
    def build(cls, instance, mode, powers, ids, cores) -> "_Tables":
        ids, cores = zip(*sorted(zip(ids, cores), key=lambda pair: pair[0]))
        solo_max = [
            core.max_value(solo_sinr_cap(instance, lid, mode, powers))
            for lid, core in zip(ids, cores)
        ]
        return cls(
            instance, powers, np.array(ids), {lid: k for k, lid in enumerate(ids)}, cores,
            UtilityTable(cores), np.array(solo_max, dtype=np.float64),
        )

    def rows(self, instance, powers, ids, cores) -> Optional[list]:
        """Rows of ``ids`` when each holds the same core object, else None."""
        if instance is not self.instance or powers is not self.powers:
            return None
        rows = [self.row.get(lid) for lid in ids]
        if None in rows or any(self.cores[k] is not c for k, c in zip(rows, cores)):
            return None
        return rows


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
    latency scheduler passes the previous slot's run). When each link's
    uncapped utility is the object it was there, the run reuses its utility
    tables, and, since a threshold solve is a function of its candidates and
    thresholds alone, a level takes the solution of a level L of
    ``previous`` instead of solving again when its candidates and thresholds
    equal L's, or, outside capped "limited" mode, when they equal L's minus
    candidates whose trace rows in L say rejected; those rows are then left
    out of the trace. The objective is still scored under the current
    utilities. Otherwise, or without ``previous``, every level is solved.
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
    index_of(ids)
    utils = dict(zip(ids, utilities_for(instance, ids, utilities)))
    caps, cores = split_caps(utils.values())
    tables = None if previous is None else previous._tables
    rows = None if tables is None else tables.rows(instance, powers, utils, cores)
    if rows is None:
        tables = _Tables.build(instance, mode, powers, list(utils), cores)
        rows = [tables.row[lid] for lid in utils]
    # the table's rows are the tables' links; those not in this sweep get
    # cap -inf, which leaves them out of every level
    cap = np.full(len(tables.ids), -math.inf)
    cap[rows] = caps
    table = tables.table.capped(cap)
    top = float(np.max(np.minimum(table.cap, tables.solo_max)))
    if not math.isfinite(top):
        raise ValueError("objective unbounded")
    if top <= 0.0:
        # nothing can realize positive value; empty run, objective 0
        return FlexibleRun(0.0, mode, (), None)

    n_levels = max(0, math.ceil(math.log2(len(ids)))) + 1
    reuse = None
    if previous is not None and previous._tables is tables:
        reuse = _Reuse(previous, mode != "limited" or instance.p_max == INF)
    levels, gammas = _sweep(instance, mode, utils, tables.ids, table, powers, top, n_levels, reuse)
    # ties go to the shallowest level, whose members each carry the top value
    best_index = max(range(n_levels), key=lambda i: (levels[i].objective, -i))
    return FlexibleRun(float(top), mode, tuple(levels), best_index, tables, gammas)


class _Reuse:
    """The level solutions of a previous run, found by a level's thresholds
    over the tables' rows (its exact solver input, NaN where a link sits the
    level out).

    The first probe looks for a level with the same bytes. With
    ``removals``, the second looks for a level L whose thresholds equal the
    given ones on every row that has one and whose extra rows were all
    rejected in L's trace; one vectorized compare against the previous
    run's thresholds and accepted flags, which are gathered on the first
    such probe.
    """

    def __init__(self, previous: FlexibleRun, removals: bool):
        self.previous = previous
        self.exact = {g.tobytes(): lvl.solution for g, lvl in zip(previous._gammas, previous.levels)}
        self.removals = removals
        self.accepted = None

    def find(self, gamma: np.ndarray, candidates) -> Optional[Solution]:
        """A solution for ``candidates``, the links with a threshold in
        ``gamma``, or None."""
        sol = self.exact.get(gamma.tobytes())
        if sol is not None or not self.removals:
            return sol
        gammas = self.previous._gammas
        if self.accepted is None:
            self.accepted = np.zeros(gammas.shape, dtype=bool)
            row = self.previous._tables.row
            for j, level in enumerate(self.previous.levels):
                self.accepted[j, [row[lid] for lid, ok, _ in level.solution.trace if ok]] = True
        # a NaN row matches a previous NaN or a rejected candidate
        match = ((gammas == gamma) | (np.isnan(gamma) & ~self.accepted)).all(axis=1)
        if not match.any():
            return None
        sol = self.previous.levels[int(match.argmax())].solution
        return replace(sol, trace=tuple(r for r in sol.trace if r[0] in candidates))


def _sweep(instance, mode, utils, ids, table, powers, top, n_levels, reuse):
    """Solve the levels top, top / 2, ...; ``reuse``, when given, supplies a
    previous run's solution where one holds. ``table`` has a row per entry of
    ``ids``. Returns the levels and their thresholds over those rows, NaN
    where a link sits the level out."""
    targets = [top * 2.0**-i for i in range(n_levels)]
    gammas = inverse_threshold(table, np.array(targets)[:, None])
    # the thresholds keep the links' order
    ordered = list(utils) == sorted(utils)
    levels = []
    for i, (target, gamma) in enumerate(zip(targets, gammas)):
        # in id order; a NaN threshold sits the level out
        live = gamma == gamma
        candidates, beta = ids[live].tolist(), gamma[live]
        by_id = dict(zip(candidates, beta.tolist()))
        sol = None if reuse is None else reuse.find(gamma, by_id)
        if sol is None:
            sol = _solve_level(instance, mode, candidates, beta, powers)
        thresholds = by_id
        if not ordered:
            thresholds = {lid: by_id[lid] for lid in utils if lid in by_id}
        realized = sum(utils[lid].value(sol.sinr[lid]) for lid in sol.selected)
        levels.append(FlexibleLevel(i, target, thresholds, sol, float(realized)))
    return levels, gammas


def _solve_level(instance, mode, candidates, thresholds, powers) -> Solution:
    """Run the threshold solver on a level's candidates, in id order, and
    the threshold array aligned with them."""
    if not candidates:
        return empty_solution(mode)
    if mode == "unlimited":
        return solve_unlimited(instance, candidates, thresholds=thresholds)
    if mode == "limited":
        return solve_limited(instance, candidates, thresholds=thresholds)
    return solve_fixed(
        instance, candidates, powers=powers, thresholds=thresholds, warn_preconditions=False
    )
