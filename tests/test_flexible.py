"""Flexible-rate wrapper: level construction, objectives, guarantees."""

import math

import pytest

from sinrsched import (
    FEAS_RTOL,
    GenConfig,
    Instance,
    Link,
    MetricSpace,
    ShannonUtility,
    StepUtility,
    gen_random,
    solve_flexible,
    solve_unlimited,
)


def _inst(links, points, noise=1.0, p_max=math.inf, alpha=2.0):
    return Instance(
        metric=MetricSpace.euclidean(points, dim=1),
        alpha=alpha,
        noise=noise,
        links=tuple(links),
        p_max=p_max,
    )


def test_single_link_shannon_closed_form():
    # cap p_max/(N d^alpha) = 3, so B = log2(4) = 2; level 0 threshold 3
    inst = _inst(
        [Link(id=0, sender=0, receiver=1, utility=ShannonUtility(1.0, 1.0))],
        [[0.0], [1.0]],
        noise=1.0,
        p_max=3.0,
    )
    run = solve_flexible(inst, mode="limited")
    assert run.top_value == pytest.approx(2.0)
    assert len(run.levels) == 1
    assert run.levels[0].thresholds[0] == pytest.approx(3.0)
    assert run.solution.selected == (0,)
    assert run.solution.powers[0] == pytest.approx(3.0)
    assert run.objective == pytest.approx(2.0)


def test_single_link_has_exactly_one_level():
    inst = _inst(
        [Link(id=0, sender=0, receiver=1, utility=StepUtility(((1.0, 1.0),)))],
        [[0.0], [1.0]],
        noise=0.1,
    )
    run = solve_flexible(inst, mode="unlimited")
    assert len(run.levels) == 1  # ceil(log2 1) + 1


def test_two_identical_far_links_level_zero():
    u = StepUtility(((1.0, 0.5), (4.0, 2.0)))
    inst = _inst(
        [
            Link(id=0, sender=0, receiver=1, utility=u),
            Link(id=1, sender=2, receiver=3, utility=u),
        ],
        [[0.0], [1.0], [100.0], [101.0]],
        noise=0.1,
    )
    run = solve_flexible(inst, mode="unlimited")
    assert run.top_value == pytest.approx(2.0)
    assert len(run.levels) == 2  # ceil(log2 2) + 1
    assert run.best_index == 0
    assert run.solution.selected == (0, 1)
    assert run.objective == pytest.approx(4.0)
    # independent confirmation through the threshold solver
    direct = solve_unlimited(inst, thresholds={0: 4.0, 1: 4.0})
    assert direct.selected == (0, 1)


def test_level_thresholds_monotone():
    u = ShannonUtility(1.0, 1.0)
    links = [
        Link(id=i, sender=2 * i, receiver=2 * i + 1, utility=u) for i in range(4)
    ]
    points = [[float(20 * i + d)] for i in range(4) for d in (0, 1)]
    inst = _inst(links, points, noise=0.01, p_max=500.0)
    run = solve_flexible(inst, mode="limited")
    for shallow, deep in zip(run.levels, run.levels[1:]):
        for lid, beta in deep.thresholds.items():
            assert shallow.thresholds[lid] >= beta


def test_levels_feasible_and_consistent():
    u = StepUtility(((1.0, 0.25), (2.0, 0.5), (8.0, 1.5)))
    links = [
        Link(id=i, sender=2 * i, receiver=2 * i + 1, utility=u) for i in range(5)
    ]
    points = [[float(7 * i + d)] for i in range(5) for d in (0, 1)]
    inst = _inst(links, points, noise=0.05)
    run = solve_flexible(inst, mode="unlimited")
    for level in run.levels:
        sol = level.solution
        for lid in sol.selected:
            assert sol.sinr[lid] >= level.thresholds[lid] * (1 - FEAS_RTOL)
        # realized value never undercuts count * level target
        assert level.objective >= len(sol.selected) * level.target * (1 - 1e-9)
    assert run.objective == max(l.objective for l in run.levels)


def test_unreachable_levels_drop_links_locally():
    # second link's top value is below B, so it sits level 0 out but joins
    # the deeper level whose target its maximum covers
    strong = StepUtility(((1.0, 4.0),))
    weak = StepUtility(((1.0, 2.0),))
    inst = _inst(
        [
            Link(id=0, sender=0, receiver=1, utility=strong),
            Link(id=1, sender=2, receiver=3, utility=weak),
        ],
        [[0.0], [1.0], [50.0], [51.0]],
        noise=0.1,
    )
    run = solve_flexible(inst, mode="unlimited")
    assert 1 not in run.levels[0].thresholds
    assert 1 in run.levels[-1].thresholds


def test_flexible_fixed_mode_uses_given_powers():
    # solo SINR is 10; jointly about 9.93, comfortably above the top step at 8
    u = StepUtility(((1.0, 1.0), (8.0, 2.0)))
    inst = _inst(
        [
            Link(id=0, sender=0, receiver=1, utility=u, fixed_power=1.0),
            Link(id=1, sender=2, receiver=3, utility=u, fixed_power=1.0),
        ],
        [[0.0], [1.0], [40.0], [41.0]],
        noise=0.1,
    )
    run = solve_flexible(inst, mode="fixed")
    assert run.solution.selected == (0, 1)
    assert run.objective == pytest.approx(4.0)
    assert all(p == 1.0 for p in run.solution.powers.values())


def test_unbounded_objective_rejected():
    inst = _inst(
        [Link(id=0, sender=0, receiver=1, utility=ShannonUtility(1.0, 1.0))],
        [[0.0], [1.0]],
    )
    with pytest.raises(ValueError, match="unbounded"):
        solve_flexible(inst, mode="unlimited")


def test_no_links_rejected():
    inst = _inst(
        [Link(id=0, sender=0, receiver=1, utility=StepUtility(((1.0, 1.0),)))],
        [[0.0], [1.0]],
    )
    with pytest.raises(ValueError, match="no links"):
        solve_flexible(inst, mode="unlimited", links=[])


def test_zero_value_world_returns_empty_run():
    inst = _inst(
        [Link(id=0, sender=0, receiver=1, utility=StepUtility(((1.0, 0.0),)))],
        [[0.0], [1.0]],
        noise=0.1,
    )
    run = solve_flexible(inst, mode="unlimited")
    assert run.best_index is None
    assert run.objective == 0.0
    assert run.solution.selected == ()


def test_level_thresholds_are_in_id_order_whatever_the_link_order():
    inst = gen_random(GenConfig(
        n=12, seed=5, area=300.0, d_range=(1.0, 30.0), beta_range=(1.0, 2.0),
        utility={"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0},
    ))
    ids = sorted(inst.link_ids)
    forward = solve_flexible(inst, links=ids)
    backward = solve_flexible(inst, links=ids[::-1])
    assert len(backward.levels) == len(forward.levels) > 1
    for fwd, bwd in zip(forward.levels, backward.levels):
        assert list(bwd.thresholds) == sorted(bwd.thresholds)
        assert list(bwd.thresholds.items()) == list(fwd.thresholds.items())
        assert bwd.thresholds
    assert backward.to_dict(include_trace=True) == forward.to_dict(include_trace=True)
