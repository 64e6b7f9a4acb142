"""Latency scheduler: slot counts, residual bookkeeping, progress."""

import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import replace

import numpy as np
import pytest

from sinrsched import (
    GenConfig,
    Instance,
    Link,
    MetricSpace,
    ShannonUtility,
    StepUtility,
    UnschedulableDemand,
    check_admissible,
    gen_random,
    solve_latency,
)
from sinrsched import latency
from sinrsched.flexible import solo_sinr_cap
from sinrsched.latency import loose_length_bound, schedule_lower_bound
from sinrsched.utility import RoundedUtility, UtilityTable, inverse_threshold

U = StepUtility(((1.0, 1.0), (8.0, 2.0)))


def _single(demand):
    return Instance(
        metric=MetricSpace.euclidean([[0.0], [1.0]], dim=1),
        alpha=2.0,
        noise=1.0,
        links=(Link(id=0, sender=0, receiver=1, utility=U, demand=demand),),
    )


def _far_pair(demand):
    return Instance(
        metric=MetricSpace.euclidean([[0.0], [1.0], [100.0], [101.0]], dim=1),
        alpha=2.0,
        noise=0.1,
        links=(
            Link(id=0, sender=0, receiver=1, utility=U, demand=demand),
            Link(id=1, sender=2, receiver=3, utility=U, demand=demand),
        ),
    )


def test_single_link_full_demand_one_slot():
    sched = solve_latency(_single(2.0))  # demand == top value
    assert len(sched.slots) == 1
    assert sched.fulfilled and sched.fulfilled_original


def test_single_link_triple_demand_three_slots():
    sched = solve_latency(_single(6.0))
    assert len(sched.slots) == 3
    assert sched.scheme == 2  # scheme 1 stalls: floor(2*u/3u) rounds to zero
    assert sched.lengths[1] == math.inf
    assert sched.fulfilled and sched.fulfilled_original


def test_far_pair_scheduled_together():
    sched = solve_latency(_far_pair(2.0))
    assert len(sched.slots) == 1
    assert set(sched.slots[0].solution.selected) == {0, 1}


def test_empty_demand_set():
    inst = Instance(
        metric=MetricSpace.euclidean([[0.0], [1.0]], dim=1),
        alpha=2.0,
        noise=1.0,
        links=(Link(id=0, sender=0, receiver=1, utility=U, demand=0.0),),
    )
    sched = solve_latency(inst)
    assert sched.slots == () and sched.fulfilled
    # both schemes run, on no links, and give empty runs
    assert sched.lengths == {1: 0.0, 2: 0.0}
    assert [(run.scheme, run.slots, run.stalled) for run in sched.runs.values()] == [
        (1, (), False), (2, (), False)
    ]
    assert sched.to_dict() == {
        "scheme": 2,
        "slots": [],
        "residuals": [],
        "lengths": {"scheme1": 0.0, "scheme2": 0.0},
        "fulfilled": True,
        "fulfilled_original": True,
    }


def test_unschedulable_demand():
    dead = StepUtility(((1.0, 0.0),))
    inst = Instance(
        metric=MetricSpace.euclidean([[0.0], [1.0]], dim=1),
        alpha=2.0,
        noise=1.0,
        links=(Link(id=0, sender=0, receiver=1, utility=dead, demand=1.0),),
    )
    with pytest.raises(UnschedulableDemand):
        solve_latency(inst)


def test_link_out_of_reach_under_cap_is_unschedulable():
    # alone at the cap, link 1 reaches SINR 0.5 / (1 * 1^2) < 1: utility 0
    inst = Instance(
        metric=MetricSpace.euclidean([[0.0], [1.0], [50.0], [51.0]], dim=1),
        alpha=2.0,
        noise=1.0,
        p_max=0.5,
        links=(
            Link(id=0, sender=0, receiver=1, utility=U, demand=0.0),
            Link(id=1, sender=2, receiver=3, utility=U, demand=1.0),
        ),
    )
    with pytest.raises(UnschedulableDemand, match="link 1 demands 1.0"):
        solve_latency(inst, mode="limited")
    # the bounds are for the default mode, "unlimited", where the link
    # reaches U's top value 2 alone: one slot
    assert solve_latency(inst).lengths[2] == 1.0
    assert (schedule_lower_bound(inst), loose_length_bound(inst)) == (1, 4.0)


@pytest.mark.parametrize("p_max", [10.0, 0.5])
def test_bounds_take_the_unlimited_maximum(p_max):
    # alone at p_max, the link reaches SINR p_max / (1 * 1^2): 10 gives value
    # 1 (8 slots for demand 8), 0.5 gives nothing; without a power cap it
    # reaches value 4, and the default-mode schedule takes 2 slots either way
    inst = Instance(
        metric=MetricSpace.euclidean([[0.0], [1.0]], dim=1),
        alpha=2.0,
        noise=1.0,
        p_max=p_max,
        links=(Link(id=0, sender=0, receiver=1,
                    utility=StepUtility(((1.0, 1.0), (100.0, 4.0))), demand=8.0),),
    )
    assert len(solve_latency(inst).slots) == 2
    assert schedule_lower_bound(inst) == 2
    assert loose_length_bound(inst) == 4.0 * 2 * 1**2


def _random_demand_instance(seed, n=6):
    return gen_random(
        GenConfig(
            n=n,
            seed=seed,
            area=300.0,
            d_range=(1.0, 30.0),
            beta_range=(1.0, 2.0),
            utility={"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0},
            demand_range=(0.5, 3.0),
            noise=1.0,
        )
    )


def test_residuals_monotone_and_scheme1_rounded():
    for seed in range(6):
        inst = _random_demand_instance(400 + seed)
        sched = solve_latency(inst)
        for run in sched.runs.values():
            if run.stalled:
                continue
            n = len([l for l in inst.links if (l.demand or 0) > 0])
            # every link's residual, from the demands and each slot's changes
            residual = dict(run.demands)
            for slot in run.slots:
                for lid, r in slot.residuals.items():
                    assert r <= residual[lid] + 1e-12
                residual.update(slot.residuals)
                if run.scheme == 1:
                    for r in residual.values():
                        scaled = r * 2 * n
                        assert abs(scaled - round(scaled)) < 1e-6


def test_slots_store_only_the_residuals_they_change():
    for seed in range(6):
        inst = _random_demand_instance(400 + seed)
        for run in solve_latency(inst).runs.values():
            assert sum(len(s.residuals) for s in run.slots) == sum(
                len(s.solution.selected) for s in run.slots
            )
            for slot in run.slots:
                assert list(slot.residuals) == list(slot.solution.selected)


def test_scheme2_progress_per_slot():
    # each slot completes some link or carries summed scheme-2 value >= 1
    for seed in range(8):
        inst = _random_demand_instance(500 + seed)
        sched = solve_latency(inst)
        run2 = sched.runs[2]
        for slot in run2.slots:
            assert slot.completed or slot.utility >= 1.0 - 1e-9


def test_slots_individually_feasible():
    for seed in range(4):
        inst = _random_demand_instance(600 + seed)
        sched = solve_latency(inst)
        for slot in sched.slots:
            sol = slot.solution
            for lid in sol.selected:
                assert sol.sinr[lid] >= slot.thresholds[lid] * (1 - 1e-9)
            cert = check_admissible(inst, sol.selected, cap=math.inf, thresholds=slot.thresholds)
            assert cert.feasible


def test_demand_fulfillment_against_original_utilities():
    for seed in range(6):
        inst = _random_demand_instance(700 + seed)
        sched = solve_latency(inst)
        assert sched.fulfilled
        if sched.scheme == 2:
            assert sched.fulfilled_original
        delivered = {lid: 0.0 for lid in inst.link_ids if inst.link(lid).demand}
        for slot in sched.slots:
            for lid, gain in slot.original_gains.items():
                delivered[lid] += gain
        if sched.scheme == 2:
            for lid, total in delivered.items():
                assert total >= inst.link(lid).demand - 1e-9


def test_length_within_loose_bound():
    for seed in range(6):
        inst = _random_demand_instance(800 + seed)
        sched = solve_latency(inst)
        assert len(sched.slots) <= loose_length_bound(inst)
        assert len(sched.slots) >= schedule_lower_bound(inst)


def test_demand_without_utility_is_bad_input():
    inst = Instance(
        metric=MetricSpace.euclidean([[0.0], [1.0]], dim=1),
        alpha=2.0,
        noise=1.0,
        links=(Link(id=0, sender=0, receiver=1, threshold=1.0, demand=1.0),),
    )
    for call in (solve_latency, schedule_lower_bound, loose_length_bound):
        with pytest.raises(ValueError, match="^link 0 needs both a demand and a utility$"):
            call(inst)


def test_slot_cap_trips_runtime_error(monkeypatch):
    # each link needs one slot alone, so each passes the up-front demand
    # check at a cap of 1; each sender sits 0.5 from the other's receiver, so
    # no slot holds both, and the second slot trips the loop's safety net
    inst = Instance(
        metric=MetricSpace.euclidean([[0.0], [10.0], [10.5], [0.5]], dim=1),
        alpha=2.0,
        noise=1.0,
        links=(
            Link(id=0, sender=0, receiver=1, utility=U, demand=2.0),
            Link(id=1, sender=2, receiver=3, utility=U, demand=2.0),
        ),
    )
    monkeypatch.setattr(latency, "SLOT_CAP", 1)
    with pytest.raises(RuntimeError, match="cap"):
        solve_latency(inst)


def test_demand_beyond_the_slot_cap_is_rejected_up_front():
    inst = gen_random(GenConfig(
        n=4, seed=1, utility={"family": "step", "steps": 3, "value_max": 2.0},
        demand_range=(0.5, 2.0),
    ))
    inst = replace(inst, links=(replace(inst.links[0], demand=1e300), *inst.links[1:]))
    start = time.perf_counter()
    with pytest.raises(UnschedulableDemand, match=f"link {inst.links[0].id} .* slots"):
        solve_latency(inst)
    assert time.perf_counter() - start < 1.0


def test_slot_cap_bounds_a_lone_links_demand(monkeypatch):
    # U's top value 2.0 is a power of two, so demand / top is exact
    monkeypatch.setattr(latency, "SLOT_CAP", 4)
    sched = solve_latency(_single(4 * 2.0))
    assert len(sched.slots) == 4 and sched.fulfilled
    for demand in (math.nextafter(4 * 2.0, math.inf), 5 * 2.0):
        with pytest.raises(UnschedulableDemand, match="over the cap of 4"):
            solve_latency(_single(demand))


def _materialized_rounding(u, demand, n):
    """Scheme 1's rounding materialized: one step per k in 1..2n at
    inverse_threshold(u, k * demand / 2n) of value k / 2n, duplicates
    merged. The closed form must answer every query as this does."""
    steps = []
    denom = 2 * n
    for k in range(1, denom + 1):
        gamma = inverse_threshold(u, k * demand / denom)
        if gamma is None:
            break
        steps.append((gamma, k / denom))
    if not steps:
        return StepUtility(((1.0, 0.0),))
    dedup = {}
    for gamma, val in steps:
        dedup[gamma] = max(val, dedup.get(gamma, 0.0))
    return StepUtility(tuple(sorted(dedup.items())))


ROUNDING_BASES = [
    (StepUtility(((1.0, 0.5), (4.0, 1.25), (20.0, 3.0))), 2.0),
    (StepUtility(((2.0, 0.1),)), 5.0),  # no step ever reaches 1/2n of the demand
    (ShannonUtility(1.0, 3.0), 6.0),  # 6,669 distinct steps at n = 5,001
]


@pytest.mark.parametrize("n", [1, 2, 64, 5001])
@pytest.mark.parametrize("base,demand", ROUNDING_BASES)
def test_closed_form_rounding_matches_materialized(n, base, demand):
    ref = _materialized_rounding(base, demand, n)
    gammas = [g for g, _ in ref.steps]
    values = [v for _, v in ref.steps]
    u = RoundedUtility(base, demand, 2 * n)
    table = UtilityTable([u])
    # thresholds at every k / 2n, one float above it, between two of them
    # and past the last; the bisections are StepUtility.min_gamma_for and
    # .value on sorted steps
    targets = [k / (2 * n) for k in range(1, 2 * n + 1)]
    targets += [math.nextafter(t, math.inf) for t in targets]
    targets += [(k + 0.5) / (2 * n) for k in range(2 * n)] + [1.5]
    want = [gammas[j] if (j := bisect_left(values, t)) < len(values) else None for t in targets]
    assert [u.min_gamma_for(t) for t in targets] == want
    got = inverse_threshold(table, np.array(targets)[:, None])[:, 0].tolist()
    assert [None if math.isnan(g) else g for g in got] == want
    # values at, just below and between the step gammas
    probes = [1.0, 1e6] + gammas + [math.nextafter(g, 0.0) for g in gammas]
    probes += [(a + b) / 2 for a, b in zip(gammas, gammas[1:])]
    want = [values[j - 1] if (j := bisect_right(gammas, g)) else 0.0 for g in probes]
    assert [u.value(g) for g in probes] == want
    assert u.max_value(math.inf) == ref.max_value(math.inf)
    if n <= 64:  # the methods themselves, which scan the steps linearly
        assert [ref.min_gamma_for(t) for t in targets] == [u.min_gamma_for(t) for t in targets]
        assert [ref.value(g) for g in probes] == [u.value(g) for g in probes]


def test_closed_form_rounding_has_no_step_limit():
    # materialized, the rounding can need more than StepUtility's 10,000
    # steps from n = 5,001 on
    base = ShannonUtility(1.0, 1.0)
    with pytest.raises(ValueError, match="limited to 10000 steps"):
        _materialized_rounding(base, 6.0, 8000)
    u = RoundedUtility(base, 6.0, 16000)
    assert u.min_gamma_for(0.5) == inverse_threshold(base, 8000 * 6.0 / 16000)
    assert u.value(u.min_gamma_for(0.5)) == 0.5


@pytest.mark.parametrize("powers", [
    {"power": 100.0, "p_max": 1e4},  # read as "fixed", a link's maximum was 0
    {},  # read as "fixed", a link had no fixed power
])
def test_unknown_mode_is_rejected_up_front(powers):
    inst = gen_random(GenConfig(
        n=6, seed=1, demand_range=(0.5, 1.0), utility={"family": "step"}, **powers
    ))
    message = r"^mode must be one of \('unlimited', 'fixed', 'limited'\)$"
    with pytest.raises(ValueError, match=message):
        solve_latency(inst, mode="foo")
    with pytest.raises(ValueError, match=message):
        solo_sinr_cap(inst, 0, "foo")
