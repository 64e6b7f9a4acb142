"""Level reuse in the latency loop and the per-instance link arrays.

The latency scheduler hands each slot's flexible sweep the previous slot's
run, and levels whose input is unchanged, or lacks only candidates the
previous level rejected, reuse its solutions. The reference below is the
scheme loop that solves every level of every slot; schedules must match it
exactly. The cached arrays on ``Instance`` must give the same floats as the
per-link constructions they replaced.
"""

import builtins
import hashlib
import json
import math
import random
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from sinrsched import capacity, flexible, latency, oracle, verify
from sinrsched.capacity import _Candidates, solve_fixed, solve_limited, solve_unlimited
from sinrsched.flexible import MODES, solve_flexible
from sinrsched.generate import GenConfig, gen_random
from sinrsched.latency import RESIDUAL_TOL, SchemeRun, Slot, solve_latency
from sinrsched.model import Instance, Link, MetricSpace, sensitivity_order, thresholds_for
from sinrsched.utility import CappedUtility, RoundedUtility, ShannonUtility, StepUtility


def _reference_run_scheme(
    instance, scheme, mode, ids, scheme_utils, scheme_demands, full_residuals=None
):
    """The scheme loop without level reuse: a fresh sweep every slot. With
    ``full_residuals``, it also records there, under the scheme, every
    link's residual after each slot."""
    demands = {lid: float(scheme_demands[lid]) for lid in ids}
    residual = dict(demands)
    full = [] if full_residuals is None else full_residuals.setdefault(scheme, [])
    slots = []
    stalled = False

    def slot_gains(solution):
        gains = {}
        completes = False
        for lid in solution.selected:
            gains[lid] = capped[lid].value(solution.sinr[lid])
            completes = completes or residual[lid] - gains[lid] <= RESIDUAL_TOL
        return gains, completes

    while sum(residual.values()) > 0.0:
        live = sorted(lid for lid in ids if residual[lid] > 0.0)
        capped = {lid: CappedUtility(scheme_utils[lid], residual[lid]) for lid in live}
        run = solve_flexible(instance, mode=mode, links=live, utilities=capped)
        if run.best_index is None or run.objective <= 0.0:
            stalled = True
            break
        level = run.best
        gains, completes = slot_gains(level.solution)
        if scheme == 2 and not completes and sum(gains.values()) < 1.0 - RESIDUAL_TOL:
            best_alt = None
            for alt in sorted(run.levels, key=lambda l: -l.objective):
                alt_gains, alt_completes = slot_gains(alt.solution)
                if alt_completes:
                    best_alt = (alt, alt_gains)
                    break
            if best_alt is not None:
                level, gains = best_alt

        sol = level.solution
        original_gains = {}
        for lid in sol.selected:
            original_gains[lid] = instance.link(lid).utility.value(sol.sinr[lid])
            residual[lid] = max(0.0, residual[lid] - gains[lid])
            if residual[lid] <= RESIDUAL_TOL:
                residual[lid] = 0.0
        full.append(dict(residual))
        slots.append(
            Slot(
                level=level,
                original_gains=original_gains,
                residuals={lid: residual[lid] for lid in sol.selected},
            )
        )
        if len(slots) > latency.SLOT_CAP:
            raise RuntimeError("slot cap")

    assert stalled or all(residual[lid] == 0.0 for lid in ids)
    delivered = {lid: 0.0 for lid in ids}
    for slot in slots:
        for lid, gain in slot.original_gains.items():
            delivered[lid] += gain
    fulfilled_original = not stalled and all(
        delivered[lid] >= instance.link(lid).demand - RESIDUAL_TOL for lid in ids
    )
    return SchemeRun(scheme, demands, tuple(slots), stalled, fulfilled_original)


STEP = {"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0}
SHANNON = {"family": "shannon", "scale_range": (0.5, 2.0), "cutoff_range": (1.0, 4.0)}


def _demand_instance(seed, n, utility, p_max=float("inf"), power=None):
    return gen_random(GenConfig(
        n=n, seed=seed, area=400.0, d_range=(1.0, 40.0), beta_range=(1.0, 2.0),
        utility=utility, demand_range=(0.5, 3.0), p_max=p_max, power=power,
    ))


# every mode, capped and uncapped limited apart (an uncapped limited solve is
# the unlimited one); Shannon utilities need a finite SINR cap, so they run
# only where the power is bounded
CASES = [
    ("unlimited", STEP, float("inf"), None),
    ("limited", STEP, 5e4, None),
    ("fixed", STEP, 3e3, 3e3),
    ("limited", SHANNON, 5e4, None),
    ("fixed", SHANNON, 3e3, 3e3),
    ("limited", STEP, float("inf"), None),
]


@pytest.mark.parametrize("mode,utility,p_max,power", CASES)
def test_reuse_matches_fresh_sweeps(monkeypatch, mode, utility, p_max, power):
    seeds = [(70 + seed, 14) for seed in range(3)] + [(seed, 20) for seed in range(500, 540)]
    for seed, n in seeds:
        inst = _demand_instance(seed, n, utility, p_max, power)
        got = solve_latency(inst, mode=mode)
        full = {}
        with monkeypatch.context() as m:
            m.setattr(latency, "_run_scheme", partial(_reference_run_scheme, full_residuals=full))
            want = solve_latency(inst, mode=mode)
        assert got.to_dict(include_trace=True) == want.to_dict(include_trace=True), seed
        # the rebuilt per-slot maps are every link's residual, in link order
        assert [list(r.items()) for r in got.to_dict()["residuals"]] == [
            [(str(lid), r) for lid, r in residual.items()] for residual in full[got.scheme]
        ], seed
        for scheme in (1, 2):
            assert len(got.runs[scheme].slots) == len(want.runs[scheme].slots)
        assert got.lengths == want.lengths


@pytest.mark.parametrize("mode,utility,p_max,power", CASES)
def test_every_reused_sweep_equals_a_fresh_one(monkeypatch, mode, utility, p_max, power):
    # every level of every sweep, not only the one a slot keeps: its
    # thresholds, objective, solution and trace
    compared = []

    def checked_sweep(*args, previous=None, **kwargs):
        run = solve_flexible(*args, previous=previous, **kwargs)
        if previous is not None:
            fresh = solve_flexible(*args, **kwargs)
            assert run.to_dict(include_trace=True) == fresh.to_dict(include_trace=True)
            compared.append(len(run.levels))
        return run

    monkeypatch.setattr(latency, "solve_flexible", checked_sweep)
    for seed in range(500, 503):
        solve_latency(_demand_instance(seed, 20, utility, p_max, power), mode=mode)
    assert compared


def _spy_solves(monkeypatch, name):
    """Record the candidates of every ``name`` solve the sweep makes."""
    solved = []
    original = getattr(flexible, name)

    def spy(instance, links, *args, **kwargs):
        solved.append(tuple(links))
        return original(instance, links, *args, **kwargs)

    monkeypatch.setattr(flexible, name, spy)
    return solved


def _dropped_sweep(inst, mode, first, accepted):
    """A link whose drop keeps the sweep's top value, so every level keeps
    its target: one the greedy accepted somewhere when ``accepted``, else
    one it rejected wherever it was a candidate."""
    for lid in inst.link_ids:
        flags = [
            ok for level in first.levels for row, ok, _ in level.solution.trace if row == lid
        ]
        if not flags or any(flags) != accepted:
            continue
        links = [l for l in inst.link_ids if l != lid]
        fresh = solve_flexible(inst, mode=mode, links=links)
        if fresh.top_value == first.top_value:
            return lid, links, fresh
    raise AssertionError("no such link")


def test_dropping_rejected_links_reuses_every_level(monkeypatch):
    inst = _demand_instance(3, 20, STEP)
    first = solve_flexible(inst)
    lid, links, fresh = _dropped_sweep(inst, "unlimited", first, accepted=False)
    solved = _spy_solves(monkeypatch, "solve_unlimited")
    reused = solve_flexible(inst, links=links, previous=first)
    assert solved == []
    assert reused.to_dict(include_trace=True) == fresh.to_dict(include_trace=True)


def test_dropping_an_accepted_link_solves_its_levels_again(monkeypatch):
    inst = _demand_instance(3, 20, STEP)
    first = solve_flexible(inst)
    lid, links, fresh = _dropped_sweep(inst, "unlimited", first, accepted=True)
    solved = _spy_solves(monkeypatch, "solve_unlimited")
    reused = solve_flexible(inst, links=links, previous=first)
    assert reused.to_dict(include_trace=True) == fresh.to_dict(include_trace=True)
    # exactly the levels whose greedy accepted the link are solved again
    assert sorted(solved) == sorted(
        tuple(lvl.thresholds) for old, lvl in zip(first.levels, fresh.levels)
        if lid in old.solution.selected
    )
    assert solved


def test_dropping_a_link_the_fixed_filter_removed_solves_again(monkeypatch):
    # link 0 is accepted first; the three far, strong links 1-3 each stay
    # within the tentative budget but together put affectance 1.2 on it, so
    # the final filter drops it. It is not selected, yet it added rows to
    # their loads, so a sweep without it must solve every level again.
    points = [[0.0, 1.0], [0.0, 0.0]]
    for k in range(3):
        c, s = math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)
        points += [[10.0 * c, 10.0 * s], [12.0 * c, 12.0 * s]]
    one = StepUtility(((1.0, 1.0),))
    links = tuple(
        Link(id=k, sender=2 * k, receiver=2 * k + 1, threshold=1.0, utility=one)
        for k in range(4)
    )
    inst = Instance(MetricSpace.euclidean(points), 2.0, 1e-6, links)
    powers = {0: 1.0, 1: 40.0, 2: 40.0, 3: 40.0}
    first = solve_flexible(inst, mode="fixed", powers=powers)
    for level in first.levels:
        assert level.solution.selected == (1, 2, 3)
        assert level.solution.trace[0][:2] == (0, True)
    fresh = solve_flexible(inst, mode="fixed", links=[1, 2, 3], powers=powers)
    solved = _spy_solves(monkeypatch, "solve_fixed")
    reused = solve_flexible(inst, mode="fixed", links=[1, 2, 3], powers=powers, previous=first)
    assert reused.to_dict(include_trace=True) == fresh.to_dict(include_trace=True)
    assert solved == [(1, 2, 3)] * len(first.levels)


def _returned_branch(inst, level, lid):
    """Whether ``lid`` sat in the branch whose solution ``level`` returned:
    a capped limited solve splits its candidates at sensitivity p_max / 4."""
    def small(l):
        return level.thresholds[l] * inst.noise * inst.d_alpha[inst.positions([l])[0]] <= inst.p_max / 4
    return small(lid) == small(level.solution.selected[0])


def test_dropping_rejected_links_reuses_every_capped_limited_level(monkeypatch):
    # a capped limited solve traces both branches, and a candidate rejected
    # in either changes neither branch nor which one wins, so a sweep
    # without it solves nothing
    inst = _demand_instance(3, 20, STEP, p_max=5e4)
    first = solve_flexible(inst, mode="limited")
    solved = _spy_solves(monkeypatch, "solve_limited")
    branches = set()
    for lid in inst.link_ids:
        if any(ok for level in first.levels for row, ok, _ in level.solution.trace if row == lid):
            continue
        links = [l for l in inst.link_ids if l != lid]
        fresh = solve_flexible(inst, mode="limited", links=links)
        if fresh.top_value != first.top_value:
            continue
        solved.clear()
        reused = solve_flexible(inst, mode="limited", links=links, previous=first)
        assert solved == [], lid
        assert reused.to_dict(include_trace=True) == fresh.to_dict(include_trace=True)
        branches.update(
            _returned_branch(inst, level, lid) for level in first.levels if lid in level.thresholds
        )
    # links were dropped from the returned branch and from the other one
    assert branches == {True, False}


def test_capped_limited_trace_names_every_candidate():
    inst = _demand_instance(3, 20, STEP, p_max=4e3)
    beta = np.array([inst.link(lid).threshold for lid in inst.link_ids])
    small = beta * inst.noise * inst.d_alpha <= inst.p_max / 4
    assert small.any() and not small.all()
    sol = solve_limited(inst)
    assert {row[0] for row in sol.trace} == set(inst.link_ids)


def test_reuse_skips_most_capped_limited_solves(monkeypatch):
    solves = _spy_solves(monkeypatch, "solve_limited")
    levels = []

    def counting_sweep(*args, **kwargs):
        run = solve_flexible(*args, **kwargs)
        levels.append(len(run.levels))
        return run

    monkeypatch.setattr(latency, "solve_flexible", counting_sweep)
    for seed in range(500, 510):
        solve_latency(_demand_instance(seed, 20, STEP, p_max=5e4), mode="limited")
    # 2,034 solves when only unchanged levels were reused; 1,364 when a level
    # that only another previous index fitted took that level's solution
    assert (len(solves), sum(levels)) == (1448, 3559)


def test_reuse_skips_most_solves_at_latency_scale(monkeypatch):
    # the benchmark's latency-medium batch
    instances = [
        gen_random(GenConfig(
            n=64, seed=seed, area=1000.0, d_range=(1.0, 60.0), beta_range=(1.0, 2.0),
            demand_range=(0.5, 3.0), utility=STEP,
        ))
        for seed in range(5)
    ]
    solves, levels = [], []

    def counting_solver(*args, **kwargs):
        solves.append(1)
        return solve_unlimited(*args, **kwargs)

    def counting_sweep(*args, **kwargs):
        run = solve_flexible(*args, **kwargs)
        levels.append(len(run.levels))
        return run

    monkeypatch.setattr(flexible, "solve_unlimited", counting_solver)
    monkeypatch.setattr(latency, "solve_flexible", counting_sweep)
    for inst in instances:
        solve_latency(inst)
    # 3,743 solves when only unchanged levels were reused, and 1,869 when a
    # level that only another previous index fitted took that level's
    # solution; every slot sweeps through the module attribute, which the
    # benchmark's tracer rebinds
    assert (len(solves), len(levels), sum(levels)) == (1968, 997, 6447)


def test_most_latency_sweeps_update_instead_of_searching(monkeypatch):
    # the benchmark's latency-medium batch: a sweep with the previous
    # sweep's top value and level count, and no risen cap, updates the
    # previous thresholds instead of searching the table (see
    # test_reuse_skips_most_solves_at_latency_scale for its solve counts)
    searches, sweeps = [], []
    search, sweep = flexible.inverse_threshold, latency.solve_flexible

    def counting_search(*args):
        searches.append(1)
        return search(*args)

    def counting_sweep(*args, **kwargs):
        sweeps.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(flexible, "inverse_threshold", counting_search)
    monkeypatch.setattr(latency, "solve_flexible", counting_sweep)
    for _ in _latency_benchmark_schedules():
        pass
    assert (len(searches), len(sweeps)) == (392, 997)


def _fits(old, level):
    """Whether ``old``, a previous level, holds ``level``'s solution: it has
    ``level``'s threshold for each of ``level``'s candidates, and its greedy
    rejected every candidate it has beyond them."""
    had, wanted = old.thresholds, level.thresholds
    extra = had.keys() - wanted.keys()
    return (all(had.get(lid) == gamma for lid, gamma in wanted.items())
            and not any(ok for lid, ok, _ in old.solution.trace if lid in extra))


def test_searching_sweep_looks_only_at_the_previous_level_of_its_index(monkeypatch):
    # the first sweep of this schedule whose top value moved (so it searches
    # its thresholds) while some level is fitted by the previous level of its
    # index and another only by a previous level of another index: the first
    # kind take their solutions, the second are solved, and the sweep equals
    # a fresh one
    solved, checked = [], []
    solve_level = flexible._solve_level

    def spy(instance, mode, candidates, thresholds, powers):
        solved.append((tuple(candidates), tuple(thresholds.tolist())))
        return solve_level(instance, mode, candidates, thresholds, powers)

    def sweep(*args, previous=None, **kwargs):
        solved.clear()
        run = solve_flexible(*args, previous=previous, **kwargs)
        if checked or previous is None or run.top_value == previous.top_value:
            return run
        own = [i < len(previous.levels) and _fits(previous.levels[i], level)
               for i, level in enumerate(run.levels)]
        other = [not fit and any(_fits(old, level) for old in previous.levels)
                 for fit, level in zip(own, run.levels)]
        if any(own) and any(other):
            inputs = [(tuple(level.thresholds), tuple(level.thresholds.values()))
                      for level in run.levels]
            assert sorted(solved) == sorted(x for x, fit in zip(inputs, own) if not fit)
            for i, level in enumerate(run.levels):
                if own[i]:
                    assert level.solution.selected == previous.levels[i].solution.selected
            fresh = solve_flexible(*args, **kwargs)
            assert run.to_dict(include_trace=True) == fresh.to_dict(include_trace=True)
            checked.append(([i for i, fit in enumerate(own) if fit],
                            [i for i, fit in enumerate(other) if fit]))
        return run

    monkeypatch.setattr(flexible, "_solve_level", spy)
    monkeypatch.setattr(latency, "solve_flexible", sweep)
    solve_latency(_demand_instance(500, 20, STEP))
    # levels 2 and 3 take their solutions; level 0, which only some other
    # previous level fits, is solved
    assert checked == [([2, 3], [0])]


def _cores(inst, mode, rng):
    """A core per link, drawn from the link's own step utility, a Shannon
    curve and a rounding of either; a bare Shannon curve only where the SINR
    is capped, since its maximum is unbounded in mode "unlimited"."""
    cores = {}
    for link in inst.links:
        shannon = ShannonUtility(rng.uniform(0.2, 0.6), rng.uniform(1.0, 3.0))
        families = [link.utility, RoundedUtility(link.utility, rng.uniform(0.5, 2.0), 8),
                    RoundedUtility(shannon, rng.uniform(1.0, 4.0), 6)]
        if mode != "unlimited":
            families.append(shannon)
        cores[link.id] = rng.choice(families)
    return cores


def _capped(core, cap, rng):
    """``core`` capped at ``cap`` by one or two ``CappedUtility`` layers, or
    bare when ``cap`` is inf."""
    if cap == math.inf:
        return core
    looser = cap + rng.uniform(0.0, 1.0)
    return rng.choice([
        CappedUtility(core, cap),
        CappedUtility(CappedUtility(core, looser), cap),
        CappedUtility(CappedUtility(core, cap), looser),
    ])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(3))
def test_update_path_equals_fresh_sweeps(monkeypatch, mode, seed):
    # a random walk of sweeps, each handed the previous run: caps fall (the
    # update path) and rise, links leave the sweep and return, some links are
    # missing from the utilities map, and a link is rewrapped in new layers
    # with its old cap; every sweep equals a fresh one, traces included
    rng = random.Random(seed)
    p_max = math.inf if mode == "unlimited" else 5e4
    inst = _demand_instance(900 + seed, 24, STEP, p_max, 3e3 if mode == "fixed" else None)
    cores = _cores(inst, mode, rng)
    caps = {lid: rng.choice([math.inf, rng.uniform(0.1, 2.5)]) for lid in inst.link_ids}
    given = {lid: _capped(cores[lid], caps[lid], rng) for lid in inst.link_ids}
    own = set(rng.sample(inst.link_ids, 4))  # these links sweep under their own utility
    out = set()
    searches = []
    search = flexible.inverse_threshold

    def counting_search(*args):
        searches.append(1)
        return search(*args)

    run, updated, full = None, 0, 0
    for step in range(40):
        live = [lid for lid in inst.link_ids if lid not in out]
        capped = [lid for lid in live if lid not in own]
        action = rng.random()
        if action < 0.45:  # some caps fall
            for lid in rng.sample(capped, rng.randint(1, 3)):
                caps[lid] = rng.uniform(0.0, min(caps[lid], 2.5))
                given[lid] = _capped(cores[lid], caps[lid], rng)
        elif action < 0.55 and run is not None and run.levels:
            # the shallowest level's links carry the top value: halve their caps
            for lid in set(run.levels[0].solution.selected) - own:
                caps[lid] = min(caps[lid], 2.5) / 2
                given[lid] = _capped(cores[lid], caps[lid], rng)
        elif action < 0.65:  # a cap rises
            lid = rng.choice(capped)
            caps[lid] = rng.choice([math.inf, min(caps[lid], 2.5) + rng.uniform(0.1, 1.0)])
            given[lid] = _capped(cores[lid], caps[lid], rng)
        elif action < 0.78 and len(live) > 12:  # a link leaves
            out.add(rng.choice(live))
        elif action < 0.9 and out:  # a link returns
            out.discard(rng.choice(sorted(out)))
        else:  # new layers, the same cap
            lid = rng.choice(capped)
            given[lid] = _capped(cores[lid], caps[lid], rng)
        links = [lid for lid in inst.link_ids if lid not in out]
        rng.shuffle(links)
        utilities = {lid: given[lid] for lid in inst.link_ids if lid not in own}
        with monkeypatch.context() as patch:
            patch.setattr(flexible, "inverse_threshold", counting_search)
            searches.clear()
            got = solve_flexible(inst, mode, links, utilities, previous=run)
        fresh = solve_flexible(inst, mode, links, utilities)
        assert got.to_dict(include_trace=True) == fresh.to_dict(include_trace=True), step
        if run is not None and got._tables is run._tables and got.levels:
            updated += not searches
            full += len(searches)
        run = got
    # both paths ran
    assert updated and full


def _latency_benchmark_schedules():
    """The benchmark's latency-medium batch, scheduled."""
    for seed in range(5):
        inst = gen_random(GenConfig(
            n=64, seed=seed, area=1000.0, d_range=(1.0, 60.0), beta_range=(1.0, 2.0),
            demand_range=(0.5, 3.0), utility=STEP,
        ))
        yield solve_latency(inst)


def test_latency_benchmark_schedules_are_pinned():
    # a faster sweep must schedule every slot exactly as this digest records
    digest = hashlib.sha256()
    for schedule in _latency_benchmark_schedules():
        digest.update(json.dumps(schedule.to_dict(include_trace=True), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "1e64252db4cde00f1fd8a3cba1000f5931fbc80b5045b6937179236053519f2a"
    )


def test_latency_benchmark_decisions_are_pinned():
    # the same schedules without a float: the chosen scheme, both schemes'
    # lengths (slot counts) and each slot's selected ids. Arithmetic that
    # moves powers and SINRs in the last bits must leave this digest as it is
    digest = hashlib.sha256()
    for schedule in _latency_benchmark_schedules():
        slots = [list(slot.solution.selected) for slot in schedule.slots]
        lengths = sorted(schedule.lengths.items())
        digest.update(json.dumps([schedule.scheme, lengths, slots]).encode())
    assert digest.hexdigest() == (
        "8124336fe875221760ec37f5e9b310daff52feac4b4e2f6ade394d96435f3517"
    )


def _compensated_sum(values, start=0):
    """Python 3.12's ``sum``: exact over ints, Neumaier-compensated over floats."""
    items = list(values)
    if all(type(x) is int for x in items):
        return builtins.sum(items, start)
    total, comp = float(start), 0.0
    for x in map(float, items):
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_compensated_sum_moves_no_schedule(monkeypatch):
    # with the builtin float sum in the level objective, a compensated sum
    # (Python 3.12's) made these seeds' limited Shannon schedules select other
    # links; the package's left-to-right fold gives one answer on every Python
    assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    instances = [_demand_instance(seed, 20, SHANNON, 5e4) for seed in (509, 516, 536)]

    def schedules():
        return [solve_latency(inst, mode="limited").to_dict(include_trace=True)
                for inst in instances]

    want = schedules()
    for module in (latency, flexible, verify, oracle):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert schedules() == want


def test_previous_run_reuses_equal_levels_only():
    inst = _demand_instance(5, 12, STEP)
    first = solve_flexible(inst)
    again = solve_flexible(inst, previous=first)
    assert again.to_dict(include_trace=True) == first.to_dict(include_trace=True)
    for old, new in zip(first.levels, again.levels):
        assert new.solution is old.solution
    # new utilities move every level's thresholds: nothing is reused
    halved = {l.id: CappedUtility(l.utility, 0.5) for l in inst.links}
    fresh = solve_flexible(inst, utilities=halved)
    reused = solve_flexible(inst, utilities=halved, previous=first)
    assert reused.to_dict(include_trace=True) == fresh.to_dict(include_trace=True)
    with pytest.raises(ValueError, match="mode"):
        solve_flexible(inst, mode="limited", previous=first)


@pytest.mark.parametrize("change", ["equal-instance", "new-powers", "new-utilities"])
def test_previous_run_on_other_inputs_rebuilds_tables(change):
    # tables hold for one instance object, one powers mapping and one core
    # object per link; equal content in new objects is not reused (the new
    # instance holds the same link and utility objects)
    inst = _demand_instance(5, 12, STEP, p_max=3e3, power=3e3)
    powers = {lid: 2e3 for lid in inst.link_ids}
    first = solve_flexible(inst, mode="fixed", powers=powers)
    kwargs = {"mode": "fixed", "powers": powers}
    if change == "equal-instance":
        inst = Instance(inst.metric, inst.alpha, inst.noise, inst.links, inst.p_max)
    elif change == "new-powers":
        kwargs["powers"] = dict(powers)
    else:
        kwargs["utilities"] = {l.id: StepUtility(l.utility.steps) for l in inst.links}
    run = solve_flexible(inst, previous=first, **kwargs)
    assert run._tables is not first._tables
    fresh = solve_flexible(inst, **kwargs)
    assert run.to_dict(include_trace=True) == fresh.to_dict(include_trace=True)


def test_threshold_array_equals_mapping():
    inst = _demand_instance(9, 30, STEP, p_max=2e4, power=2e3)
    rng = random.Random(3)
    ids = [lid for lid in inst.link_ids if rng.random() < 0.8]
    mapping = {lid: rng.uniform(1.0, 6.0) for lid in ids}
    array = np.array([mapping[lid] for lid in ids])
    for solver in (solve_unlimited, solve_limited):
        a = solver(inst, ids, thresholds=mapping)
        b = solver(inst, ids, thresholds=array)
        assert a.to_dict(include_trace=True) == b.to_dict(include_trace=True)
    a = solve_fixed(inst, ids, thresholds=mapping)
    b = solve_fixed(inst, ids, thresholds=array)
    assert a.to_dict(include_trace=True) == b.to_dict(include_trace=True)
    with pytest.raises(ValueError, match="does not match"):
        solve_unlimited(inst, ids, thresholds=array[:-1])


def _tied_instance(alpha, seed):
    """Links that share endpoints or repeat a geometry, so sensitivities tie."""
    rng = random.Random(seed)
    points = [[rng.uniform(0, 50), rng.uniform(0, 50)] for _ in range(8)]
    points += [[0.0, 0.0], [3.0, 4.0], [10.0, 0.0], [13.0, 4.0]]  # two length-5 pairs
    links = []
    for lid in range(30):
        if lid % 3 == 0:
            s, r = (8, 9) if lid % 2 else (10, 11)
        else:
            s, r = rng.sample(range(8), 2)
        links.append(Link(id=lid, sender=s, receiver=r, threshold=rng.choice([1.0, 2.0, 2.5])))
    rng.shuffle(links)
    return Instance(MetricSpace.euclidean(points), alpha, 0.5, tuple(links))


@pytest.mark.parametrize("alpha", [1.5, 2, 2.5, 3, 4])
def test_sensitivity_order_matches_python_key(alpha):
    for seed in range(4):
        inst = _tied_instance(alpha, seed)
        rng = random.Random(seed)
        ids = list(inst.link_ids)
        rng.shuffle(ids)
        overrides = {lid: rng.choice([1.0, 2.0, 3.5]) for lid in ids if rng.random() < 0.5}

        def d_alpha(lid):
            return float(inst.d_alpha[inst.positions([lid])[0]])

        for thresholds in (None, overrides):
            def beta(lid):
                if thresholds is not None and lid in thresholds:
                    return float(thresholds[lid])
                return float(inst.link(lid).threshold)

            want = sorted(ids, key=lambda lid: (-beta(lid) * d_alpha(lid), lid))
            assert sensitivity_order(inst, ids, thresholds) == want
            assert sensitivity_order(inst, ids[::-1], thresholds) == want
        sens = [inst.link(l).threshold * d_alpha(l) for l in inst.link_ids]
        assert len(set(sens)) < len(sens), "the instance should contain ties"


def test_sensitivity_order_ties_mirrored_links_by_id():
    # mirrored link vectors (x, y) and (y, x) have the same summed squares,
    # so their lengths and sensitivities tie, and the lower id comes first
    rng = random.Random(5)
    points, links = [[0.0, 0.0]], []
    for pair in range(40):
        x, y = rng.uniform(0.5, 40.0), rng.uniform(0.5, 40.0)
        points += [[x, y], [y, x]]
        for j in (1, 2):
            lid = 2 * pair + j - 1
            links.append(Link(id=lid, sender=0, receiver=len(points) - 3 + j, threshold=1.0))
    inst = Instance(MetricSpace.euclidean(points), 2.5, 1.0, tuple(links))
    ids = list(inst.link_ids)
    order = sensitivity_order(inst, ids)
    assert order == sorted(ids, key=lambda lid: (-inst.d_alpha[lid], lid))
    for l in ids[::2]:
        assert inst.length(l) == inst.length(l + 1)
        assert inst.d_alpha[l] == inst.d_alpha[l + 1]
        assert order.index(l) + 1 == order.index(l + 1)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


def _row_major_d_alpha(inst, receivers, senders):
    """d^alpha from the instance's points in row-major form: the squared
    distance summed over the last axis, raised to alpha / 2 (the sum itself
    at alpha = 2)."""
    points = np.array(inst.metric.to_dict()["points"])
    diff = points[receivers] - points[senders]
    squared = np.add.reduce(diff * diff, axis=-1)
    return squared if inst.alpha == 2 else squared ** (inst.alpha / 2)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.0, 4.0])
def test_candidate_arrays_equal_per_link_construction(alpha):
    inst = gen_random(GenConfig(n=60, seed=int(alpha * 10), d_range=(0.5, 80.0), alpha=alpha))
    rng = random.Random(1)
    ids = [lid for lid in inst.link_ids if rng.random() < 0.7]
    rng.shuffle(ids)
    thresholds = {lid: rng.uniform(1.0, 5.0) for lid in ids[::2]}
    powers = {lid: rng.uniform(0.0, 1e4) for lid in ids}
    p = np.array([powers[lid] for lid in ids])
    cands = _Candidates(inst, ids, inst.positions(ids), thresholds_for(inst, ids, thresholds), p)
    senders = [inst.link(lid).sender for lid in ids]
    receivers = [inst.link(lid).receiver for lid in ids]
    for k, lid in enumerate(ids):
        link = inst.link(lid)
        s = np.array([link.sender], dtype=np.intp)
        r = np.array([link.receiver], dtype=np.intp)
        d_alpha = _row_major_d_alpha(inst, r, s)
        beta = np.array([thresholds.get(lid, link.threshold)])
        assert cands.index[lid] == k
        # row k holds every candidate's sender at k's receiver, column k k's
        # sender at every candidate's receiver
        assert _bits(cands.cross[k]) == _bits(_row_major_d_alpha(inst, [link.receiver] * len(ids),
                                                                 senders))
        assert _bits(cands.cross[:, k]) == _bits(_row_major_d_alpha(inst, receivers,
                                                                    [link.sender] * len(ids)))
        assert _bits(cands.d_alpha[k:k + 1]) == _bits(d_alpha)
        assert _bits(cands.beta[k:k + 1]) == _bits(beta)
        assert _bits(cands.sens[k:k + 1]) == _bits(beta * d_alpha)
        p = np.array([powers[lid]])
        margin = np.maximum(p / d_alpha - beta * inst.noise, 0.0)
        assert _bits(cands.margin[k:k + 1]) == _bits(margin)


def test_instance_arrays_follow_link_order():
    inst = _tied_instance(2.5, 7)
    for k, link in enumerate(inst.links):
        assert inst.positions([link.id]).tolist() == [k]
        assert inst.senders[k] == link.sender and inst.receivers[k] == link.receiver
        d_alpha = _row_major_d_alpha(inst, [link.receiver], [link.sender])
        assert _bits(inst.d_alpha[k:k + 1]) == _bits(d_alpha)
        assert inst.thresholds[k] == link.threshold
    with pytest.raises(KeyError, match="no link with id 999"):
        inst.positions([999])
    with pytest.raises(ValueError):
        inst.senders[0] = 1  # read-only


def test_solvers_still_call_public_layers(monkeypatch):
    # the benchmark traces these layers by rebinding the module attributes
    calls = {"sensitivity_order": 0}
    for name in calls:
        original = getattr(capacity, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(capacity, name, spy)
    inst = _demand_instance(2, 20, STEP)
    assert solve_unlimited(inst, thresholds={l: 1.0 for l in inst.link_ids}).selected
    assert calls["sensitivity_order"] == 1
    # the solvers measure through their candidates, not through a Geometry
    assert not hasattr(capacity, "geometry")


_between = MetricSpace.between


def _sqrt_then_power(self, a, b, alpha=1.0):
    """d^alpha as every caller computed it before ``between`` took alpha:
    the length, raised to alpha."""
    return _between(self, a, b) ** alpha


@pytest.mark.parametrize("mode,utility,p_max,power", CASES[:3])
def test_squared_distance_kernel_moves_no_slot(monkeypatch, mode, utility, p_max, power):
    # every slot of both schemes selects and accepts the same links as under
    # the old kernel; powers and SINRs move by at most 1e-12 relative
    for seed in range(500, 505):
        inst = _demand_instance(seed, 20, utility, p_max, power)
        with monkeypatch.context() as patch:
            patch.setattr(MetricSpace, "between", _sqrt_then_power)
            want = solve_latency(replace(inst), mode=mode)
        got = solve_latency(inst, mode=mode)
        assert (got.scheme, got.lengths) == (want.scheme, want.lengths)
        for scheme, run in want.runs.items():
            assert len(got.runs[scheme].slots) == len(run.slots)
            for new, old in zip(got.runs[scheme].slots, run.slots):
                new, old = new.solution, old.solution
                assert new.selected == old.selected
                assert [row[:2] for row in new.trace] == [row[:2] for row in old.trace]
                for lid in old.selected:
                    assert math.isclose(new.powers[lid], old.powers[lid], rel_tol=1e-12)
                    assert math.isclose(new.sinr[lid], old.sinr[lid], rel_tol=1e-12)
