"""Threshold solvers: weights, affectance, greedy selection, power control."""

import json
import math

import pytest

from sinrsched import (
    FEAS_RTOL,
    GenConfig,
    affectance,
    check_admissible,
    gen_line,
    gen_random,
    sensitivity_order,
    sinr,
    solve_fixed,
    solve_limited,
    solve_unlimited,
    weight,
    weight_budget,
)
from sinrsched.capacity import check_power_preconditions


def test_weight_budget_small_for_alpha_at_least_one():
    for alpha in (1.0, 2.0, 2.5, 4.0):
        tau = weight_budget(alpha)
        assert 0 < tau <= 1 / 8


def test_weight_self_is_zero():
    inst = gen_line([(0, 1, 2), (10, 11, 2)], alpha=2, noise=0.1)
    assert weight(inst, 0, 0) == 0.0


def test_weight_directed():
    # link 0 and link 1 have equal sensitivity; id 0 takes rank 1, so only
    # the weight from the later-ranked link 1 onto link 0 is nonzero
    inst = gen_line([(0, 1, 2), (10, 11, 2)], alpha=2, noise=0.1)
    assert weight(inst, 0, 1) == 0.0
    assert weight(inst, 1, 0) > 0.0


def test_weight_worked_example():
    # three-term formula by hand: 4/9801 + 2/121 + 2/81
    inst = gen_line([(0, 1, 2), (10, 11, 2)], alpha=2, noise=0.1)
    expected = 4 / 9801 + 2 / 121 + 2 / 81
    assert weight(inst, 1, 0) == pytest.approx(expected, rel=1e-12)


def test_weight_clamps_at_one_for_coincident_nodes():
    # receiver of link 0 and sender of link 1 share a coordinate
    inst = gen_line([(0, 1, 1), (1, 2, 1)], alpha=2, noise=0.1)
    order = sensitivity_order(inst)
    late, early = order[1], order[0]
    assert weight(inst, late, early) == 1.0


def test_affectance_zero_for_silent_sender():
    inst = gen_line([(0, 1, 1), (4, 5, 1)], alpha=2, noise=0.1)
    assert affectance(inst, 1, 0, {0: 1.0, 1: 0.0}) == 0.0


def test_affectance_worked_example():
    # beta * (1/9) / (1 - 0.1) = 10/81
    inst = gen_line([(0, 1, 1), (4, 5, 1)], alpha=2, noise=0.1)
    assert affectance(inst, 1, 0, {0: 1.0, 1: 1.0}) == pytest.approx(10 / 81, rel=1e-12)


def test_affectance_saturates_on_degenerate_target():
    # p(target)/d^alpha equals beta*N exactly: denominator 0, clamp to 1
    inst = gen_line([(0, 1, 1), (4, 5, 1)], alpha=2, noise=0.1)
    assert affectance(inst, 1, 0, {0: 0.1, 1: 1.0}) == 1.0
    # a silent sender saturates it too
    assert affectance(inst, 1, 0, {0: 0.1, 1: 0.0}) == 1.0


def test_solve_unlimited_single_link():
    # power recurrence with empty interference: p = 2*2*0.1*1 = 0.4, sinr 4
    inst = gen_line([(0, 1, 2)], alpha=2, noise=0.1)
    sol = solve_unlimited(inst)
    assert sol.selected == (0,)
    assert sol.powers[0] == pytest.approx(0.4)
    assert sol.sinr[0] == pytest.approx(4.0)
    assert sol.objective == 1.0


def test_solve_unlimited_empty_input():
    inst = gen_line([(0, 1, 2)], alpha=2, noise=0.1)
    sol = solve_unlimited(inst, links=[])
    assert sol.selected == () and sol.objective == 0.0


def test_solve_unlimited_far_pair_both_selected():
    inst = gen_line([(0, 1, 2), (30, 31, 2)], alpha=2, noise=0.1)
    tau = weight_budget(2.0)
    order = sensitivity_order(inst)
    assert weight(inst, 1, 0, order=order) < tau
    sol = solve_unlimited(inst)
    assert sol.selected == (0, 1)
    for lid in sol.selected:
        gamma = sinr(inst, sol.selected, sol.powers, lid)
        assert gamma >= 2.0 * (1 - FEAS_RTOL)


def test_solve_unlimited_feasibility_random():
    for seed in range(30):
        inst = gen_random(GenConfig(n=12, seed=seed, beta_range=(1.0, 6.0)))
        sol = solve_unlimited(inst)
        for lid in sol.selected:
            gamma = sinr(inst, sol.selected, sol.powers, lid)
            assert gamma >= inst.link(lid).threshold * (1 - FEAS_RTOL)


def test_solve_unlimited_greedy_maximality_replay():
    # every rejected link must have been over budget against the links
    # accepted before it; replay with the pairwise weight operation
    inst = gen_random(GenConfig(n=14, seed=5, beta_range=(1.0, 4.0)))
    sol = solve_unlimited(inst)
    tau = weight_budget(inst.alpha)
    order = sensitivity_order(inst)
    accepted = []
    for cand in reversed(order):
        incoming = sum(weight(inst, a, cand, order=order) for a in accepted)
        if cand in sol.selected:
            assert incoming <= tau + 1e-15
            accepted.append(cand)
        else:
            assert incoming > tau
    assert sorted(accepted) == sorted(sol.selected)


def test_solve_fixed_single_feasible_link():
    inst = gen_line([(0, 1, 1)], alpha=2, noise=0.1)
    sol = solve_fixed(inst, powers={0: 1.0})
    assert sol.selected == (0,)


def test_solve_fixed_noise_infeasible_link_dropped():
    # p/d^alpha strictly below beta*N: cannot reach the threshold
    inst = gen_line([(0, 1, 1)], alpha=2, noise=0.1)
    sol = solve_fixed(inst, powers={0: 0.05})
    assert sol.selected == ()


def test_solve_fixed_exact_noise_boundary_kept():
    # at p/d^alpha == beta*N the solo SINR equals the threshold exactly
    inst = gen_line([(0, 1, 1)], alpha=2, noise=0.1)
    sol = solve_fixed(inst, powers={0: 0.1})
    assert sol.selected == (0,)
    assert sol.sinr[0] == pytest.approx(1.0)


def test_solve_fixed_close_pair_keeps_first_processed():
    # equal unit lengths and thresholds; mutual affectance 0.4938 each way,
    # so the bidirectional test fails for the second candidate
    inst = gen_line([(0, 1, 1), (2.5, 1.5, 1)], alpha=2, noise=0.1)
    uniform = {0: 1.0, 1: 1.0}
    a01 = affectance(inst, 0, 1, uniform)
    a10 = affectance(inst, 1, 0, uniform)
    assert a01 == pytest.approx(a10)
    assert a01 + a10 > 0.5
    sol = solve_fixed(inst, powers=uniform)
    first_processed = sensitivity_order(inst)[-1]
    assert sol.selected == (first_processed,)


def test_solve_fixed_missing_power():
    inst = gen_line([(0, 1, 1), (4, 5, 1)], alpha=2, noise=0.1)
    with pytest.raises(ValueError, match="power"):
        solve_fixed(inst, powers={0: 1.0})


def test_solve_fixed_precondition_warning():
    # longer link gets less power: monotonicity violated, still solved
    inst = gen_line([(0, 1, 1), (10, 12, 1)], alpha=2, noise=0.01)
    bad = {0: 5.0, 1: 1.0}
    assert check_power_preconditions(inst, [0, 1], bad)
    with pytest.warns(RuntimeWarning, match="monotone"):
        solve_fixed(inst, powers=bad)


def test_solve_fixed_filter_keeps_at_least_half_of_tentative():
    for seed in range(20):
        inst = gen_random(GenConfig(n=12, seed=seed, beta_range=(1.0, 3.0)))
        uniform = {lid: 1e6 for lid in inst.link_ids}
        sol = solve_fixed(inst, powers=uniform, warn_preconditions=False)
        tentative = [lid for lid, ok, _ in sol.trace if ok]
        assert len(sol.selected) >= len(tentative) / 2
        # the final filter replayed exactly: keep links whose incoming
        # affectance within the tentative set stays below 1
        replayed = [
            lid
            for lid in tentative
            if sum(affectance(inst, other, lid, uniform) for other in tentative) < 1.0
        ]
        assert sorted(sol.selected) == sorted(replayed)
        for lid in sol.selected:
            gamma = sinr(inst, sol.selected, {k: uniform[k] for k in sol.selected}, lid)
            assert gamma >= inst.link(lid).threshold * (1 - FEAS_RTOL)


def test_solve_limited_far_pair_within_cap():
    # sensitivities 0.2 <= p_max/4; both selected, powers under the cap
    inst = gen_line([(0, 1, 2), (30, 31, 2)], alpha=2, noise=0.1, p_max=1.0)
    sol = solve_limited(inst)
    assert sol.selected == (0, 1)
    assert all(p <= 1.0 for p in sol.powers.values())
    for lid in sol.selected:
        assert sol.sinr[lid] >= 2.0 * (1 - FEAS_RTOL)


def test_solve_limited_all_noise_infeasible():
    # beta*N*d^alpha = 0.2 > p_max: hopeless even alone
    inst = gen_line([(0, 1, 2)], alpha=2, noise=0.1, p_max=0.15)
    sol = solve_limited(inst)
    assert sol.selected == ()


def test_solve_limited_infinite_cap_matches_unlimited():
    inst = gen_random(GenConfig(n=10, seed=3, beta_range=(1.0, 5.0)))
    unlimited = solve_unlimited(inst)
    limited = solve_limited(inst)
    assert limited.selected == unlimited.selected
    assert limited.powers == unlimited.powers
    assert limited.sinr == unlimited.sinr


def test_solve_limited_cap_and_feasibility_random():
    for seed in range(30):
        p_max = 20.0 * 30.0**2
        inst = gen_random(GenConfig(n=12, seed=100 + seed, beta_range=(1.0, 6.0), p_max=p_max))
        sol = solve_limited(inst)
        for lid in sol.selected:
            assert sol.powers[lid] <= p_max * (1 + 1e-12)
            gamma = sinr(inst, sol.selected, sol.powers, lid)
            assert gamma >= inst.link(lid).threshold * (1 - FEAS_RTOL)


def test_solutions_certified_by_oracle():
    for seed in (0, 1, 2):
        inst = gen_random(GenConfig(n=8, seed=seed, beta_range=(1.0, 4.0), p_max=5e4))
        for sol, cap in (
            (solve_unlimited(inst), math.inf),
            (solve_limited(inst), inst.p_max),
        ):
            assert check_admissible(inst, sol.selected, cap=cap).feasible


def test_determinism_byte_for_byte():
    inst = gen_random(GenConfig(n=15, seed=11, beta_range=(1.0, 8.0)))
    a = json.dumps(solve_unlimited(inst).to_dict(), sort_keys=True)
    b = json.dumps(solve_unlimited(inst).to_dict(), sort_keys=True)
    assert a == b


def test_sub_unit_thresholds_run_when_flagged():
    inst = gen_line(
        [(0, 1, 0.25), (30, 31, 0.25)], alpha=2, noise=0.1, allow_sub_unit=True
    )
    sol = solve_unlimited(inst)
    assert sol.selected == (0, 1)
    for lid in sol.selected:
        assert sol.sinr[lid] >= 0.25 * (1 - FEAS_RTOL)
