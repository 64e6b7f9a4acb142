"""Flexible-rate capacity maximization on top of the threshold solvers.

The wrapper sweeps geometrically decreasing value targets. At each level it
asks every utility for the smallest SINR reaching the target, uses those as
individual thresholds, runs the requested threshold solver and scores the
result by the utilities realized at the actual SINRs. The best level wins.

The utilities are held as one ``UtilityTable`` (step tables, Shannon
parameters, rounding and the caps as a vector), so a single array
``inverse_threshold`` call gives every level's thresholds, and the top value
is a vector maximum over each link's best value alone, which a run computes
once per link. Each level keeps its own row of that array, over the table's
links in id order, and reads its ``thresholds`` mapping off that row.

A sweep reads its links in one pass: each link's utility (its entry in
``utilities``, else its own), the smallest cap of its ``CappedUtility``
layers, the core they wrap and the core's table row. The caps become one
vector over the table's rows, -inf for a row not in the sweep, and the run
keeps it, so that the next sweep finds the rows whose cap changed with one
compare.

A level's solution depends only on its candidates and their thresholds, so a
caller that sweeps again on the same instance (the latency scheduler, once
per slot) can hand in the previous run, and the tables and best values of
links whose uncapped utility is the same object are reused instead of
rebuilt. A level takes a previous level's solution instead of solving again
when its input is unchanged, or when it differs only by candidates that the
previous level's greedy rejected. A rejected candidate adds no row to any
load, so without it every other load, accept decision and power is the same
to the float, and the solution is the old one without its trace rows. Every
solver's trace records each candidate and each link that added a row (a
capped "limited" solve keeps both branches', and the same branch wins).

The probe looks a level's thresholds up by their bytes first. On a miss it
compares them with the previous levels' stacked rows on the rows the level
has, and walks the matching levels in level order: for each, only the rows
it dropped (live there, NaN here) are looked up in that level's trace, and
its trace is filtered by those ids. A reused level keeps the previous
level's objective when none of its selected links changed cap, because
each of their values is then the same float. Every other level is scored
with each selected link's ``value`` at its SINR, summed in selection order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .capacity import solve_fixed, solve_limited, solve_unlimited
from .model import INF, Instance, Solution, empty_solution, float_sum, index_of, powers_for
from .utility import UtilitySpec, UtilityTable, inverse_threshold, split_cap

MODES = ("unlimited", "fixed", "limited")


@dataclass(frozen=True)
class FlexibleLevel:
    """One target level: value floor, solution, and the per-link SINR
    thresholds ``gamma`` over ``ids``, NaN where a link sits the level out."""

    index: int
    target: float
    solution: Solution
    objective: float
    gamma: np.ndarray = field(repr=False, compare=False)
    ids: np.ndarray = field(repr=False, compare=False)

    @property
    def thresholds(self) -> dict:
        """id -> SINR threshold of each candidate, in id order; built anew
        on each access."""
        live = self.gamma == self.gamma
        return dict(zip(self.ids[live].tolist(), self.gamma[live].tolist()))

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
    # the utility tables, which a later sweep on the same instance, mode and
    # powers may reuse (each level holds its thresholds over their rows), and
    # the caps over those rows, against which that sweep finds the changed ones
    _tables: Optional["_Tables"] = field(default=None, repr=False, compare=False)
    _cap: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

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
    """A sweep's uncapped utilities (their cores) as one table with a row per
    link in id order, and each core's best value alone under the mode. Valid
    for one instance, mode and powers; a later sweep over a subset of the
    links with the same core objects reuses it."""

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


def _read_links(instance, ids, utilities, tables):
    """(caps, cores, rows) of ``ids`` in one pass: each link's cap and core
    (``split_cap``) and its row in ``tables``; ``rows`` is None when
    ``tables`` is None, lacks a link or holds another core object for it."""
    caps, cores, rows = [], [], []
    row = None if tables is None else tables.row
    for lid in ids:
        u = _utility(instance, utilities, lid)
        if u is None:
            raise ValueError(f"link {lid} has no utility")
        cap, u = split_cap(u)
        caps.append(cap)
        cores.append(u)
        if row is not None:
            k = row.get(lid)
            if k is None or tables.cores[k] is not u:
                row = None
            else:
                rows.append(k)
    return caps, cores, None if row is None else rows


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
    uncapped utility is the object it was there, the run reuses its tables,
    and a level takes the solution of a level of ``previous`` whose
    candidates and thresholds are its own, or its own plus candidates that
    level rejected (their trace rows are left out). It keeps that level's
    objective when no selected link's cap changed, and is scored under the
    current utilities otherwise. Without such a level it is solved.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if previous is not None and previous.mode != mode:
        raise ValueError(f"previous run has mode {previous.mode!r}, not {mode!r}")
    ids = list(instance.link_ids if links is None else links)
    if not ids:
        raise ValueError("no links to schedule")
    index_of(ids)
    tables = None if previous is None else previous._tables
    if tables is not None and (tables.instance is not instance or tables.powers is not powers):
        tables = None
    caps, cores, rows = _read_links(instance, ids, utilities, tables)
    if rows is None:
        tables = _Tables.build(instance, mode, powers, ids, cores)
        rows = [tables.row[lid] for lid in ids]
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
        reuse = _Reuse(previous, cap)
    levels = _sweep(instance, mode, utilities, tables.ids, table, powers, top, n_levels, reuse)
    # ties go to the shallowest level, whose members each carry the top value
    best_index = max(range(n_levels), key=lambda i: (levels[i].objective, -i))
    return FlexibleRun(float(top), mode, tuple(levels), best_index, tables, cap)


class _Reuse:
    """The levels of a previous run over the same tables, found by a level's
    thresholds over the tables' rows (its exact solver input): first a level
    with the same bytes, then one whose thresholds equal these on every row
    that has one and whose trace rejected the rows it has beyond them. The
    previous levels' rows are stacked on the first probe that needs them."""

    def __init__(self, previous: FlexibleRun, cap: np.ndarray):
        self.levels = previous.levels
        self.ids = previous._tables.ids
        # a later level with the same bytes takes the key
        self.exact = {lvl.gamma.tobytes(): lvl for lvl in self.levels}
        self.changed = set(self.ids[previous._cap != cap].tolist())
        self.gammas = self.live = None

    def find(self, gamma: np.ndarray, live: np.ndarray) -> tuple:
        """(solution, objective) of a previous level for the thresholds
        ``gamma``, which are not NaN where ``live``; the solution is None
        when no level fits, the objective when a selected link's cap
        changed."""
        level = self.exact.get(gamma.tobytes())
        if level is not None:
            return level.solution, self._objective(level)
        if self.gammas is None:
            self.gammas = np.stack([lvl.gamma for lvl in self.levels])
            self.live = self.gammas == self.gammas
        dead = ~live
        for j, match in enumerate(((self.gammas == gamma) | dead).all(axis=1).tolist()):
            if not match:
                continue
            level = self.levels[j]
            # the candidates of that level that this one lacks
            dropped = set(self.ids[self.live[j] & dead].tolist())
            trace = []
            for r in level.solution.trace:
                if r[0] not in dropped:
                    trace.append(r)
                elif r[1]:
                    break  # its greedy accepted one: every later load differs
            else:
                return replace(level.solution, trace=tuple(trace)), self._objective(level)
        return None, None

    def _objective(self, level: FlexibleLevel) -> Optional[float]:
        return level.objective if self.changed.isdisjoint(level.solution.selected) else None


def _sweep(instance, mode, utilities, ids, table, powers, top, n_levels, reuse):
    """Solve the levels top, top / 2, ...; ``reuse``, when given, supplies a
    previous run's solution, and objective, where one holds. ``table`` has a
    row per entry of ``ids``; each level keeps a copy of its row of
    thresholds over them, so that a slot keeping one level does not keep the
    others'."""
    targets = [top * 2.0**-i for i in range(n_levels)]
    gammas = inverse_threshold(table, np.array(targets)[:, None])
    levels = []
    for i, (target, row) in enumerate(zip(targets, gammas)):
        # in id order; a NaN threshold sits the level out
        gamma = row.copy()
        live = gamma == gamma
        sol, objective = (None, None) if reuse is None else reuse.find(gamma, live)
        if sol is None:
            sol = _solve_level(instance, mode, ids[live].tolist(), gamma[live], powers)
        if objective is None:
            objective = float_sum(
                _utility(instance, utilities, lid).value(sol.sinr[lid]) for lid in sol.selected
            )
        levels.append(FlexibleLevel(i, target, sol, objective, gamma, ids))
    return levels


def _utility(instance, utilities, lid):
    """The utility link ``lid`` is scored by: its entry in ``utilities``,
    else its own."""
    u = None if utilities is None else utilities.get(lid)
    return instance.link(lid).utility if u is None else u


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
