"""Demand-driven latency minimization by repeated flexible-rate solves.

Two reshapings of the utilities are scheduled independently and the shorter
schedule is returned. Scheme 1 rounds each utility down to multiples of
1/(2n) of the link's demand and gives every link unit demand; scheme 2
normalizes utilities by their maximum and scales demands accordingly. Each
round caps the utilities at the remaining demands, runs the flexible-rate
solver, schedules the winning set for one slot and subtracts the realized
gains.

Scheme 1's rounding is a ``RoundedUtility``: a closed form over the original
utility's inverse, so no link stores its 2n steps and n is not limited by a
step count.

Each slot's flexible sweep gets the previous slot's run and reuses its
utility tables; each level takes the solution of the previous slot's level
of its index when its input did not change, or lost only candidates that
level rejected (mostly links the last slot scheduled, whose residual cap
fell below the high targets), and is solved otherwise; see ``flexible``.
Only the previous slot's run is kept. A slot keeps its level, whose
``values`` are the scheme-unit gains of the links it scheduled, and their
residuals; ``Schedule.to_dict`` rebuilds every slot's full map. The live
links are the keys of one map, from each to its utility capped at its
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .flexible import MODES, FlexibleLevel, FlexibleRun, level_count, solo_sinr_cap, solve_flexible
from .model import INF, RESIDUAL_TOL, Instance, Solution, index_of
from .utility import CappedUtility, RoundedUtility, UtilitySpec, scaled

SLOT_CAP = 1_000_000  # a scheme run with more slots is making no progress


class UnschedulableDemand(ValueError):
    """A link demands positive utility but can never realize any, or more
    than ``SLOT_CAP`` slots can deliver."""


@dataclass(frozen=True)
class Slot:
    """One schedule step: the flexible level that transmits (its ``values``
    are the scheme-unit utility credited to each scheduled link), what it
    delivered under the original utilities, and the scheme-unit residuals it
    left its links."""

    level: FlexibleLevel
    original_gains: dict
    residuals: dict

    @property
    def solution(self) -> Solution:
        return self.level.solution

    @property
    def level_index(self) -> int:
        return self.level.index

    @property
    def thresholds(self) -> dict:
        return self.level.thresholds

    @property
    def completed(self) -> tuple[int, ...]:
        """The scheduled links whose demand this slot met."""
        return tuple(lid for lid, r in self.residuals.items() if r == 0.0)

    @property
    def utility(self) -> float:
        return self.level.objective


@dataclass(frozen=True)
class SchemeRun:
    """Full run of one scheme: scheme-unit demands, slots and progress."""

    scheme: int
    demands: dict
    slots: tuple[Slot, ...]
    stalled: bool  # when not stalled, every scheme-unit demand is met
    fulfilled_original: bool

    @property
    def length(self) -> float:
        return INF if self.stalled else float(len(self.slots))


@dataclass(frozen=True)
class Schedule:
    """Chosen schedule plus both scheme runs for inspection."""

    scheme: int
    slots: tuple[Slot, ...]
    runs: dict

    @property
    def lengths(self) -> dict:
        return {scheme: run.length for scheme, run in self.runs.items()}

    @property
    def fulfilled(self) -> bool:
        return not self.runs[self.scheme].stalled

    @property
    def fulfilled_original(self) -> bool:
        return self.runs[self.scheme].fulfilled_original

    def to_dict(self, include_trace: bool = False) -> dict:
        residual, residuals = dict(self.runs[self.scheme].demands), []
        for slot in self.slots:
            residual.update(slot.residuals)
            residuals.append({str(k): v for k, v in residual.items()})
        return {
            "scheme": self.scheme,
            "slots": [slot.solution.to_dict(include_trace) for slot in self.slots],
            "residuals": residuals,
            "lengths": {f"scheme{k}": "inf" if v == INF else v for k, v in self.lengths.items()},
            "fulfilled": self.fulfilled,
            "fulfilled_original": self.fulfilled_original,
        }


def _run_scheme(
    instance: Instance,
    scheme: int,
    mode: str,
    ids: Sequence[int],
    scheme_utils: Mapping[int, UtilitySpec],
    scheme_demands: Mapping[int, float],
) -> SchemeRun:
    """Slots until every residual is 0.0, or until no level realizes value;
    original gains and demands are read off the links."""
    demands = {lid: float(scheme_demands[lid]) for lid in ids}
    # the live links' utilities capped at their residuals, which are the
    # caps; a slot changes the entries of the links it schedules only
    capped = {lid: CappedUtility(scheme_utils[lid], d) for lid, d in demands.items() if d > 0.0}
    delivered = dict.fromkeys(ids, 0.0)
    slots: list[Slot] = []
    stalled = False
    run: Optional[FlexibleRun] = None  # the previous slot's sweep, for level reuse

    def completes(level):
        return any(capped[lid].cap - value <= RESIDUAL_TOL
                   for lid, value in zip(level.solution.selected, level.values))

    while capped:
        run = solve_flexible(instance, mode=mode, links=list(capped), utilities=capped,
                             previous=run)
        if run.best_index is None or run.objective <= 0.0:
            stalled = True  # rounding can zero out every reachable value
            break
        level = run.best
        if scheme == 2 and level.objective < 1.0 - RESIDUAL_TOL and not completes(level):
            # the schedule-length accounting needs every round to finish some
            # link or deliver value 1; when all residuals sit below 1, the
            # shallowest level always finishes its members, so fall back to
            # the most valuable level that finishes one (at most n such
            # rounds can ever happen, which keeps the length bound intact)
            level = next(
                (alt for alt in sorted(run.levels, key=lambda l: -l.objective) if completes(alt)),
                level,
            )

        sol = level.solution
        original_gains, residuals = {}, {}
        for lid, value in zip(sol.selected, level.values):
            original_gains[lid] = instance.link(lid).utility.value(sol.sinr[lid])
            delivered[lid] += original_gains[lid]
            residual = max(0.0, capped[lid].cap - value)
            if residual <= RESIDUAL_TOL:
                residual = 0.0
                del capped[lid]
            else:
                capped[lid] = CappedUtility(scheme_utils[lid], residual)
            residuals[lid] = residual
        slots.append(Slot(level, original_gains, residuals))
        if len(slots) > SLOT_CAP:
            raise RuntimeError(
                f"schedule exceeded the safety cap of {SLOT_CAP} slots; "
                "residual demands are not making progress"
            )

    fulfilled_original = not stalled and all(
        delivered[lid] >= instance.link(lid).demand - RESIDUAL_TOL for lid in ids
    )
    return SchemeRun(scheme, demands, tuple(slots), stalled, fulfilled_original)


def solve_latency(
    instance: Instance,
    mode: str = "unlimited",
    links: Optional[Sequence[int]] = None,
) -> Schedule:
    """Schedule every link until its demand is met, in few slots.

    Links with zero demand are dropped up front; a link with positive demand
    but zero achievable utility is unschedulable, and so is one that needs
    more than ``SLOT_CAP`` slots even at its solo maximum in each. Both
    utility reshapings are computed in sequence and the shorter schedule is
    returned (scheme 2 wins ties; scheme 1 can stall when rounding erases all
    reachable value, scheme 2 never stalls). In "fixed" mode each link sends
    at its own fixed power. A ``mode`` outside ``MODES`` is a ValueError.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    # a repeated link would count twice in n, and so in scheme 1's rounding
    links = [instance.link(lid) for lid in index_of(instance.link_ids if links is None else links)]
    for link in links:
        if link.demand is None or link.utility is None:
            raise ValueError(f"link {link.id} needs both a demand and a utility")
    links = [link for link in links if link.demand > 0.0]
    ids = [link.id for link in links]
    tops = [_max_value(instance, lid, mode) for lid in ids]
    for link, top in zip(links, tops):
        # a slot gives a link at most its solo maximum
        if (need := link.demand / top) > SLOT_CAP:
            raise UnschedulableDemand(
                f"link {link.id} demands {link.demand} but realizes at most {top} per "
                f"slot, so it needs {need:.6g} slots, over the cap of {SLOT_CAP}"
            )
    n = len(ids)
    u1 = {link.id: RoundedUtility(link.utility, link.demand, 2 * n) for link in links}
    d1 = dict.fromkeys(ids, 1.0)
    u2 = {link.id: scaled(link.utility, 1.0 / top) for link, top in zip(links, tops)}
    d2 = {link.id: link.demand / top for link, top in zip(links, tops)}

    run1 = _run_scheme(instance, 1, mode, ids, u1, d1)
    run2 = _run_scheme(instance, 2, mode, ids, u2, d2)
    if run1.stalled and run2.stalled:
        raise RuntimeError("both schedule schemes stalled; demands cannot be met")

    chosen = run2 if run2.length <= run1.length else run1
    return Schedule(chosen.scheme, chosen.slots, {1: run1, 2: run2})


def _max_value(instance: Instance, lid: int, mode: str) -> float:
    """Largest utility link ``lid`` can realize alone under ``mode``. Raises
    UnschedulableDemand when that is 0, and ValueError when the link has no
    utility; callers pass links with demand."""
    link = instance.link(lid)
    if link.utility is None:
        raise ValueError(f"link {lid} needs both a demand and a utility")
    top = link.utility.max_value(solo_sinr_cap(instance, lid, mode))
    if top <= 0.0:
        raise UnschedulableDemand(f"link {lid} demands {link.demand} but its maximum utility is 0")
    return top


def _solo_slots(instance: Instance, links: Optional[Sequence[int]]) -> list[int]:
    """ceil(demand / max utility) for every link with demand: the slots each
    needs on its own in mode "unlimited", the mode ``solve_latency``
    schedules in by default (no power cap, so a Shannon utility's maximum is
    unbounded and raises, as there)."""
    ids = index_of(instance.link_ids if links is None else links)
    return [
        math.ceil(instance.link(lid).demand / _max_value(instance, lid, "unlimited"))
        for lid in ids
        if instance.link(lid).demand
    ]


def loose_length_bound(instance: Instance, links: Optional[Sequence[int]] = None) -> float:
    """4 * sum(ceil(demand / max utility)) * (ceil(log2 n) + 1)^2, for a
    ``solve_latency`` schedule in mode "unlimited"."""
    slots = _solo_slots(instance, links)
    if not slots:
        return 0.0
    return 4.0 * sum(slots) * level_count(len(slots)) ** 2


def schedule_lower_bound(instance: Instance, links: Optional[Sequence[int]] = None) -> int:
    """max over links of ceil(demand / max utility): slots any schedule in
    mode "unlimited" needs."""
    return max(_solo_slots(instance, links), default=0)
