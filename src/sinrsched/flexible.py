"""Flexible-rate capacity maximization on top of the threshold solvers.

The wrapper sweeps geometrically decreasing value targets. At each level it
asks every utility for the smallest SINR reaching the target, uses those as
individual thresholds, runs the requested threshold solver and scores the
result by the utilities realized at the actual SINRs. The best level wins.

A sweep reads its links in one pass: each link's utility (its entry in
``utilities``, else its own), the smallest cap of its ``CappedUtility``
layers, the core they wrap and the core's table row. The uncapped cores are
held as one ``UtilityTable`` (step tables, Shannon parameters and rounding),
and the caps as one vector over the table's rows, -inf for a row not in the
sweep. That vector is the one holder of the sweep's caps: the top value is
a vector maximum of it against each core's best value alone, which a run
computes once per link; it masks the levels' targets (a target above a
row's cap becomes inf, out of every core's reach) before the single array
``inverse_threshold`` call that gives every level's thresholds; and a
level's ``values`` are ``min(cap, core value at the SINR)`` of its selected
links, the floats ``CappedUtility.value`` gives. Each level keeps its own
row of the threshold array, over the table's links in id order, and reads
its ``thresholds`` mapping off that row.

A level's solution depends only on its candidates and their thresholds, so a
caller that sweeps again on the same instance (the latency scheduler, once
per slot) can hand in the previous run, and the tables and best values of
links whose uncapped utility is the same object are reused instead of
rebuilt. The run keeps its cap vector and each link's entry in
``utilities`` as it read it (the identity read; the scheduler edits its map
in place, so the run keeps its own). The next sweep patches a copy of the
vector: a link whose entry is the same object keeps its cap, since
utilities are frozen, only the others are split again, and links that left
get -inf; so it knows the rows whose cap changed without a compare.

When the previous run has this sweep's top value and level count, its
targets are this sweep's, and when besides no cap rose (a link that returns
to the sweep rises from -inf), the thresholds are the previous run's with
NaN on each changed row whose cap is now below a level's target: the update
path, which makes no ``inverse_threshold`` search. Any other sweep searches.

Either way, each level looks only at the previous level of its index, in
one array compare over all levels: that level fits when it has this
level's threshold on every row this level has, and its extra rows are those
live there and NaN here. A fitting level with no extra rows, the same
target and no selected link whose cap changed is taken as the same
``FlexibleLevel`` object. Otherwise a fitting level whose greedy rejected
every extra row gives its solution, without their trace rows. A rejected
candidate adds no row to any load, so without it every other load, accept
decision and power is the same to the float. Every solver's trace records
each candidate and each link that added a row (a capped "limited" solve
keeps both branches', and the same branch wins). Any other level is
solved. A level that only another previous index fits is rare (98 of the
2,258 levels of latency-medium's searching sweeps), and comparing every
pair of levels cost about what their solves cost.

The run also keeps the core values under each level's ``values``. A level
that takes a previous level's solution keeps that level's values when none
of its selected links changed cap, because each is then the same float,
and otherwise takes ``min(cap, core value)`` from that level's core values;
only a solved level calls ``value``. The latency scheduler reads a slot's
gains off its level's values.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import is_not
from typing import Mapping, Optional, Sequence

import numpy as np

from .capacity import solve_fixed, solve_limited, solve_unlimited
from .model import INF, Instance, Solution, empty_solution, float_sum, index_of, powers_for
from .utility import UtilitySpec, UtilityTable, inverse_threshold, split_cap

MODES = ("unlimited", "fixed", "limited")


@dataclass(frozen=True)
class FlexibleLevel:
    """One target level: value floor, solution, the utility value ``values``
    of each selected link at its SINR, in selection order, and the per-link
    SINR thresholds ``gamma`` over ``ids``, NaN where a link sits the level
    out. ``objective`` is the sum of ``values``, taken at construction."""

    index: int
    target: float
    solution: Solution
    values: tuple[float, ...]
    gamma: np.ndarray = field(repr=False, compare=False)
    ids: np.ndarray = field(repr=False, compare=False)
    objective: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "objective", float_sum(self.values))

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
    # powers may reuse (each level holds its thresholds over their rows), the
    # caps over those rows, each swept link's entry in ``utilities`` (None
    # where it had none), whose cap a later sweep keeps while the entry is
    # the same object, the levels' thresholds, a row per level, and each
    # level's core values under its ``values``, which a later level with its
    # solution caps without calling ``value``; a slot keeps none of these
    _tables: Optional["_Tables"] = field(default=None, repr=False, compare=False)
    _cap: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _read: Optional[dict] = field(default=None, repr=False, compare=False)
    _gammas: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _core_values: tuple = field(default=(), repr=False, compare=False)

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
    """Best SINR the link can reach alone under ``mode``, at power p: the
    largest float gamma with ``gamma * d^alpha * noise <= p``, multiplied in
    that order, as ``check_admissible`` builds a single link's minimal power
    to compare with the cap; 0 at power 0.

    Non-negative floats are ordered as their bit patterns, and the product
    grows with gamma, so the search runs over the patterns. It starts at the
    quotient ``p / d^alpha / noise``, which where nothing under- or
    overflows lies within a few floats of the answer, gallops away from it
    in steps that double, then bisects, so it takes at most about 130
    products whatever the magnitudes.

    The power is unbounded for "unlimited", the instance cap for "limited"
    and, for "fixed", the link's entry in ``powers`` when that is given, else
    its fixed power (see ``powers_for``). Any other mode is a ValueError.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "unlimited":
        return INF
    p = instance.p_max if mode == "limited" else powers_for(instance, [lid], powers)[0]
    if p in (0.0, INF):
        return float(p)
    d_alpha, noise = float(instance.d_alpha[instance._position(lid)]), instance.noise
    # the bit patterns of a float that fits (0.0's) and of one that does not (inf's)
    lo, hi, step = 0, 0x7FF0000000000000, 1
    probe = struct.unpack("<q", struct.pack("<d", p / d_alpha / noise))[0]
    while hi - lo > 1:
        if struct.unpack("<d", struct.pack("<q", probe))[0] * d_alpha * noise <= p:
            lo, probe = probe, min(probe + step, (probe + hi) // 2)
        else:
            hi, probe = probe, max(probe - step, (lo + probe) // 2)
        step *= 2
    return struct.unpack("<d", struct.pack("<q", lo))[0]


@dataclass(frozen=True)
class _Tables:
    """A sweep's uncapped utilities (their cores) as one table with a row per
    link in id order, and each core's best value alone under the mode. Valid
    for one instance, mode and powers; a later sweep over a subset of the
    links with the same core objects reuses it."""

    instance: Instance
    powers: Optional[Mapping[int, float]]
    ids: np.ndarray
    pos: np.ndarray  # the links' rows of the instance arrays
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
            instance, powers, np.array(ids), instance.positions(ids),
            {lid: k for k, lid in enumerate(ids)}, cores,
            UtilityTable(cores), np.array(solo_max, dtype=np.float64),
        )


_UNREAD = object()  # a link the previous run did not read


def _split(instance, lid, entry):
    """(cap, core) of link ``lid`` (``split_cap``), whose entry in
    ``utilities`` is ``entry``: that entry, else the link's own utility."""
    u = instance._utilities[instance._position(lid)] if entry is None else entry
    if u is None:
        raise ValueError(f"link {lid} has no utility")
    return split_cap(u)


def _patched_cap(instance, ids, entries, previous) -> Optional[tuple]:
    """(cap, moved): ``previous``'s cap vector brought up to this sweep, and
    row -> (link id, previous cap, cap) of each row whose cap changed. A link
    whose entry is the object ``previous`` read keeps its cap, the others
    are split again, and rows of links that left get -inf. None when a link
    split again has no row in ``previous``'s tables or another core object
    there."""
    tables, read = previous._tables, previous._read
    cap = previous._cap.copy()
    moved = {}
    # the links whose entry is not the object ``previous`` read for them
    stale = compress(zip(ids, entries), map(is_not, entries, map(read.get, ids, repeat(_UNREAD))))
    for lid, entry in stale:
        c, core = _split(instance, lid, entry)
        k = tables.row.get(lid)
        if k is None or tables.cores[k] is not core:
            return None
        was = cap.item(k)
        if c != was:
            moved[k] = (lid, was, c)
        cap[k] = c
    for lid in read.keys() - ids:
        k = tables.row[lid]
        moved[k] = (lid, cap.item(k), -math.inf)
        cap[k] = -math.inf
    return cap, moved


def level_count(n: int) -> int:
    """ceil(log2 n) + 1: the value targets a sweep over n >= 1 links tries."""
    return math.ceil(math.log2(n)) + 1


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
    uncapped utility is the object it was there, the run reuses its tables;
    a link whose entry in ``utilities`` is the object ``previous`` read keeps
    its cap there, and only the others are read again. When ``previous`` has
    this sweep's top value and level count and no cap rose, the thresholds
    are ``previous``'s with the fallen caps masked, and no table search is
    made. A level takes the solution of ``previous``'s level of its index
    when that level's candidates and thresholds are its own, or its own plus
    candidates that level rejected (their trace rows are left out). It keeps
    that level's values when no selected link's cap changed, and is scored
    under the current caps otherwise. Any other level is solved.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if previous is not None and previous.mode != mode:
        raise ValueError(f"previous run has mode {previous.mode!r}, not {mode!r}")
    ids = list(instance.link_ids if links is None else links)
    if not ids:
        raise ValueError("no links to schedule")
    entries = [None] * len(ids) if utilities is None else list(map(utilities.get, ids))
    read = dict(zip(ids, entries))
    if len(read) < len(ids):
        index_of(ids)  # raises, naming the repeated link
    tables = None if previous is None else previous._tables
    if tables is not None and (tables.instance is not instance or tables.powers is not powers):
        tables = None
    patched = None if tables is None else _patched_cap(instance, ids, entries, previous)
    if patched is not None:
        cap, moved = patched
    else:
        caps, cores = zip(*(_split(instance, lid, entry) for lid, entry in zip(ids, entries)))
        tables = _Tables.build(instance, mode, powers, ids, cores)
        # the table's rows are the tables' links; those not in this sweep get
        # cap -inf, which leaves them out of every level
        cap = np.full(len(tables.ids), -math.inf)
        cap[[tables.row[lid] for lid in ids]] = caps
    top = float(np.minimum(cap, tables.solo_max).max())
    if not math.isfinite(top):
        raise ValueError("objective unbounded")
    if top <= 0.0:
        # nothing can realize positive value; empty run, objective 0
        return FlexibleRun(0.0, mode, (), None)

    n_levels = level_count(len(ids))
    reuse = None if patched is None else _Reuse(previous, moved)
    levels, gammas, core_values = _sweep(
        instance, mode, tables, cap, powers, top, n_levels, reuse
    )
    # ties go to the shallowest level, whose members each carry the top value
    objectives = [level.objective for level in levels]
    best_index = objectives.index(max(objectives))
    return FlexibleRun(top, mode, tuple(levels), best_index, tables, cap, read, gammas,
                       core_values)


class _Reuse:
    """A previous run over the same tables and the rows whose cap changed
    since it; ``update`` gives a sweep with the previous targets its
    thresholds, and ``fits`` finds each level's solution in the previous
    level of its index."""

    def __init__(self, previous: FlexibleRun, moved: dict):
        self.top = previous.top_value
        self.levels = previous.levels
        self.core_values = previous._core_values
        self.ids = previous._tables.ids
        self.gammas = previous._gammas
        self.moved = moved  # row -> (link id, previous cap, cap)
        self.changed = {lid for lid, _, _ in moved.values()}

    def updates(self, top: float, n_levels: int) -> bool:
        """Whether a sweep to ``top`` over ``n_levels`` can update the
        previous thresholds: the same targets, and no cap rose."""
        return (self.top == top and len(self.levels) == n_levels
                and not any(c > was for _, was, c in self.moved.values()))

    def update(self, targets: np.ndarray) -> np.ndarray:
        """The previous levels' thresholds with NaN on each changed row
        whose cap is now below the level's target."""
        gammas = self.gammas.copy()
        for k, (_, _, c) in self.moved.items():
            gammas[targets > c, k] = math.nan
        return gammas

    def fits(self, gammas: np.ndarray, live: np.ndarray) -> list:
        """Per row of ``gammas``, a sweep's thresholds over the tables' rows,
        not NaN where ``live``: the solution of the previous level of its
        index when that level has those thresholds on every live row and its
        trace rejected every row it has beyond them (live there, NaN here),
        else None."""
        k = min(len(gammas), len(self.levels))
        dead, old = ~live[:k], self.gammas[:k]
        fit = ((old == gammas[:k]) | dead).all(axis=1).tolist()
        extra = (old == old) & dead
        more = extra.any(axis=1).tolist()
        found = [self.take(level, set(self.ids[rows].tolist()) if m else ()) if f else None
                 for level, f, m, rows in zip(self.levels, fit, more, extra)]
        return found + [None] * (len(gammas) - k)

    @staticmethod
    def take(level: FlexibleLevel, dropped) -> Optional[Solution]:
        """``level``'s solution without the candidates ``dropped`` (ids), or
        None when its greedy accepted one of them; the level's own object
        when none is dropped."""
        sol = level.solution
        if not dropped:
            return sol
        trace = []
        for r in sol.trace:
            if r[0] not in dropped:
                trace.append(r)
            elif r[1]:
                return None  # its greedy accepted one: every later load differs
        return Solution(sol.selected, sol.powers, sol.sinr, sol.objective, sol.algorithm,
                        tuple(trace))


def _level_gammas(table: UtilityTable, cap: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each target's SINR threshold per row of ``table``, capped at ``cap``:
    a target above a row's cap becomes inf, which no core reaches, so the
    row's threshold is NaN (a cap of -inf leaves the row out of every
    target)."""
    return inverse_threshold(table, np.where(targets > cap, math.inf, targets))


def _sweep(instance, mode, tables, cap, powers, top, n_levels, reuse):
    """(levels, thresholds, core values): solve the levels top, top / 2,
    ...; ``reuse``, when given, supplies the previous run's level of each
    index where it holds. ``cap`` has an entry per row of ``tables``; each
    new level keeps a copy of its row of thresholds over the rows' links,
    so that a slot keeping one level does not keep the others'."""
    targets = [top * 2.0**-i for i in range(n_levels)]
    if reuse is not None and reuse.updates(top, n_levels):
        gammas = reuse.update(np.array(targets))
    else:
        gammas = _level_gammas(tables.table, cap, np.array(targets)[:, None])
    live = gammas == gammas  # a NaN threshold sits the level out
    found = [None] * n_levels if reuse is None else reuse.fits(gammas, live)
    caps, row, cores = cap.tolist(), tables.row, tables.cores
    levels, core_values = [], []
    for i, (on, sol) in enumerate(zip(live, found)):
        if sol is None:
            sol = _solve_level(instance, mode, tables.ids[on].tolist(), gammas[i][on], powers,
                               tables.pos[on])
            core, kept = tuple(cores[row[lid]].value(sol.sinr[lid]) for lid in sol.selected), False
        else:
            # the previous level's selection and SINRs: its core values
            # hold, and its values while no selected link's cap changed
            old, core = reuse.levels[i], reuse.core_values[i]
            kept = reuse.changed.isdisjoint(sol.selected)
            if kept and sol is old.solution and old.target == targets[i]:
                levels.append(old)  # no extra rows: its input is this level's
                core_values.append(core)
                continue
        values = old.values if kept else tuple(
            map(min, map(caps.__getitem__, map(row.__getitem__, sol.selected)), core))
        levels.append(FlexibleLevel(i, targets[i], sol, values, gammas[i].copy(), tables.ids))
        core_values.append(core)
    return levels, gammas, tuple(core_values)


def _solve_level(instance, mode, candidates, thresholds, powers, pos) -> Solution:
    """Run the threshold solver on a level's candidates, in id order, the
    threshold array aligned with them and their rows ``pos``."""
    if mode == "unlimited":
        return solve_unlimited(instance, candidates, thresholds=thresholds, pos=pos)
    if mode == "limited":
        return solve_limited(instance, candidates, thresholds=thresholds, pos=pos)
    return solve_fixed(instance, candidates, powers=powers, thresholds=thresholds,
                       warn_preconditions=False, pos=pos)
