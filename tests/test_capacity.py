"""Threshold solvers: weights, affectance, greedy selection, power control."""

import functools
import hashlib
import json
import math
import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinrsched import (
    FEAS_RTOL,
    GenConfig,
    Instance,
    Link,
    MetricSpace,
    brute_opt_threshold,
    check_admissible,
    evaluate_sinrs,
    gen_line,
    gen_random,
    sensitivity_order,
    solve_fixed,
    solve_limited,
    solve_unlimited,
    weight_budget,
)
from sinrsched import capacity
from sinrsched.capacity import (
    _ROW_ERRSTATE,
    ALL,
    _Candidates,
    _greedy,
    check_power_preconditions,
)
from sinrsched.experiments import experiment_ratio
from sinrsched.model import empty_solution, thresholds_for
from sinrsched.verify import verify_solution


def _candidates(inst, ids, powers=None):
    """The greedies' candidate arrays over ``ids`` at their own thresholds
    and, when given, the powers id -> p."""
    p = None if powers is None else np.array([powers[lid] for lid in ids], dtype=np.float64)
    return _Candidates(inst, ids, inst.positions(ids), thresholds_for(inst, ids), p)


def weight(inst, from_link, to_link):
    """Directed weight of ``from_link`` onto ``to_link``: the greedies' weight
    kernel, under the floating-point state of a greedy walk."""
    with np.errstate(**_ROW_ERRSTATE):
        return float(_candidates(inst, [from_link, to_link]).weights(0, 1))


def affectance(inst, from_link, to_link, powers):
    """Affectance of ``from_link`` on ``to_link``: the greedies' affectance
    kernel, zero for a link onto itself, under the floating-point state of a
    greedy walk."""
    if from_link == to_link:
        return 0.0
    with np.errstate(**_ROW_ERRSTATE):
        return float(_candidates(inst, [from_link, to_link], powers).affectances(0, 1))


def test_weight_budget_small_for_alpha_at_least_one():
    for alpha in (1.0, 2.0, 2.5, 4.0):
        tau = weight_budget(alpha)
        assert 0 < tau <= 1 / 8


def test_weight_budget_is_defined_for_every_alpha():
    # 6 * 3^alpha overflows from alpha ~644.6 on, 3^alpha itself from ~646.1
    budgets = [weight_budget(alpha) for alpha in (600.0, 644.0, 645.0, 647.0, 1000.0, 1e308)]
    assert budgets[0] > budgets[1] > 0.0
    assert budgets[2:] == [0.0] * 4


@pytest.mark.parametrize("kernel", ["weights", "affectances"])
def test_greedy_never_reads_a_walked_candidates_own_entry(kernel):
    # the kernels leave a candidate's value onto itself as the formula gives
    # it; a walk must not depend on it
    # candidate whole rows, walked entries included
    inst = gen_random(GenConfig(n=80, seed=4, area=300.0, d_range=(1.0, 30.0)))
    ids = sensitivity_order(inst)[::-1]  # walk order
    with np.errstate(**_ROW_ERRSTATE):
        cands = _candidates(inst, ids, dict.fromkeys(ids, 1e4))
        values = getattr(cands, kernel)
        walks = []
        for own in (0.0, math.nan):
            load = np.zeros(len(ids))
            walk = []

            def accept(k, own=own, load=load, walk=walk):
                walk.append((ids[k], load.item(k)))
                out = values(k, ALL) + values(ALL, k)
                out[k] = own
                load += out
                return load, k + 1

            _greedy(load, 0.5, accept)
            walks.append(walk)
    assert walks[0] == walks[1]
    assert 1 < len(walks[0]) < len(ids)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _kernel_instance(name):
    """A candidate set in dims 1-3, or with endpoints that coincide in a
    Euclidean or a matrix metric, and the ample power level for it."""
    if name.startswith("dim-"):
        dim = int(name[4:])
        return gen_random(GenConfig(n=40, seed=dim, dim=dim, area=60.0, d_range=(1.0, 20.0))), 1e3
    pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 5.0], [6.0, 5.0], [0.0, 0.0],
           [9.0, 1.0]]
    metric = MetricSpace.euclidean(pts)
    if name == "matrix":
        nodes = np.arange(len(pts))
        metric = MetricSpace.from_matrix(metric.distances(nodes[:, None], nodes[None, :]),
                                         validate=False)
    links = (Link(0, 0, 1, threshold=1.0), Link(1, 2, 3, threshold=1.0),
             Link(2, 4, 5, threshold=2.0), Link(3, 6, 3, threshold=1.5),
             Link(4, 7, 4, threshold=3.0), Link(5, 1, 7, threshold=1.0))
    return Instance(metric, 2.5, 0.1, links), 5.0


@pytest.mark.parametrize("name", ["dim-1", "dim-2", "dim-3", "euclidean", "matrix"])
def test_kernel_blocks_equal_rows_and_columns_bit_for_bit(name):
    inst, level = _kernel_instance(name)
    ids = list(inst.link_ids)
    n = len(ids)
    # zero powers, powers below and at the solo gate, and ample powers
    sens = thresholds_for(inst, ids) * inst.d_alpha * inst.noise
    scale = np.array([0.0, 0.5, 1.0, level])[np.arange(n) % 4]
    powers = dict(zip(ids, (sens * scale).tolist()))
    perm = np.random.default_rng(n).permutation(n)
    with np.errstate(**_ROW_ERRSTATE):
        cands = _candidates(inst, ids, powers)
        for kernel in (cands.weights, cands.affectances):
            block = kernel(perm[:, None], perm[None, :])
            assert block.shape == (n, n)
            for i, k in enumerate(perm.tolist()):
                assert np.array_equal(_bits(block[i]), _bits(kernel(k, ALL)[perm]))
                assert np.array_equal(_bits(block[:, i]), _bits(kernel(ALL, k)[perm]))


def _solution_bits(sol):
    """A solution's selection, trace and the bits of every float in it."""
    powers = [sol.powers[lid] for lid in sol.selected]
    sinrs = [sol.sinr[lid] for lid in sol.selected]
    loads = [row[2] for row in sol.trace]
    return (sol.selected, [row[:2] for row in sol.trace], _bits(powers).tolist(),
            _bits(sinrs).tolist(), _bits(loads).tolist())


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("name", ["dim-1", "dim-2", "dim-3", "euclidean", "matrix"])
def test_dense_and_streaming_candidates_solve_alike(monkeypatch, name, alpha):
    # a set of at most _DENSE candidates measures every pair into one matrix;
    # with the limit at 0 every set streams. Both must give the same bits
    inst, level = _kernel_instance(name)
    inst = replace(inst, alpha=alpha)
    ids = list(inst.link_ids)
    assert len(ids) <= capacity._DENSE
    sens = thresholds_for(inst, ids) * inst.d_alpha * inst.noise
    # a cap that splits the limited solver's branches, and fixed powers that
    # are zero, below and at the solo gate, and ample
    inst = replace(inst, p_max=4.0 * float(np.median(sens)))
    scale = np.array([0.0, 0.5, 1.0, level])[np.arange(len(ids)) % 4]
    powers = dict(zip(ids, (sens * scale).tolist()))

    def solve_all():
        return [_solution_bits(sol) for sol in (
            solve_unlimited(inst), solve_limited(inst),
            solve_fixed(inst, powers=powers, warn_preconditions=False))]

    dense = solve_all()
    monkeypatch.setattr(capacity, "_DENSE", 0)
    assert solve_all() == dense
    assert all(selected for selected, *_ in dense)


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


@pytest.mark.parametrize("thresholds", [{0: 1e300}, np.array([1e300, 2.0])],
                         ids=["mapping", "array"])
@pytest.mark.parametrize("algorithm", ["unlimited", "limited", "fixed"])
def test_threshold_override_whose_sensitivity_overflows_is_rejected(algorithm, thresholds):
    # d^alpha = 1e20 and 1e300 * 1e20 overflows. At p_max 1e30 the limited
    # solver puts link 0 in its fixed-power branch and link 1 in the other;
    # the suite turns a numpy warning inside the package into an error.
    inst = gen_line([(0, 1e10, 2.0), (10, 1e10 + 10, 2.0)], alpha=2, noise=1.0, p_max=1e30)
    solve = {
        "unlimited": solve_unlimited,
        "limited": solve_limited,
        "fixed": functools.partial(solve_fixed, powers={0: 1e30, 1: 1e30}),
    }[algorithm]
    message = (r"^link 0: sensitivity threshold \* distance\^alpha must be finite "
               r"\(threshold 1e\+300, distance\^alpha 1e\+20\)$")
    with pytest.raises(ValueError, match=message):
        solve(inst, thresholds=thresholds)


@pytest.mark.parametrize("algorithm", ["unlimited", "limited", "fixed"])
def test_the_first_overflowing_link_of_the_input_is_named(algorithm):
    # both overrides overflow; the solve names the first of its links as
    # given, whatever order it walks them in
    inst = gen_line([(0, 1e10, 2.0), (10, 1e10 + 10, 2.0)], alpha=2, noise=1.0, p_max=1e30)
    solve = {
        "unlimited": solve_unlimited,
        "limited": solve_limited,
        "fixed": functools.partial(solve_fixed, powers={0: 1e30, 1: 1e30}),
    }[algorithm]
    for links in ([0, 1], [1, 0]):
        for thresholds in ({0: 1e300, 1: 2e300}, np.array([1e300, 2e300])):
            with pytest.raises(ValueError, match=f"^link {links[0]}: sensitivity"):
                solve(inst, links, thresholds=thresholds)


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


def test_capped_solvers_take_empty_input():
    # a flexible level with no candidates relies on these
    inst = gen_line([(0, 1, 2)], alpha=2, noise=0.1, p_max=10.0)
    assert solve_limited(inst, links=[]) == empty_solution("limited")
    assert solve_fixed(inst, links=[]) == empty_solution("fixed")


def test_solve_unlimited_far_pair_both_selected():
    inst = gen_line([(0, 1, 2), (30, 31, 2)], alpha=2, noise=0.1)
    tau = weight_budget(2.0)
    # link 1 is the less sensitive one (equal sensitivity, larger id)
    assert sensitivity_order(inst) == [0, 1]
    assert weight(inst, 1, 0) < tau
    sol = solve_unlimited(inst)
    assert sol.selected == (0, 1)
    for gamma in evaluate_sinrs(inst, sol.selected, sol.powers).values():
        assert gamma >= 2.0 * (1 - FEAS_RTOL)


def test_solve_unlimited_feasibility_random():
    for seed in range(30):
        inst = gen_random(GenConfig(n=12, seed=seed, beta_range=(1.0, 6.0)))
        sol = solve_unlimited(inst)
        for lid, gamma in evaluate_sinrs(inst, sol.selected, sol.powers).items():
            assert gamma >= inst.link(lid).threshold * (1 - FEAS_RTOL)


def test_solve_unlimited_greedy_maximality_replay():
    # every rejected link must have been over budget against the links
    # accepted before it; replay with pairwise weights. Accepted links are
    # all less sensitive than the candidate, so every weight counts
    inst = gen_random(GenConfig(n=14, seed=5, beta_range=(1.0, 4.0)))
    sol = solve_unlimited(inst)
    tau = weight_budget(inst.alpha)
    order = sensitivity_order(inst)
    accepted = []
    for cand in reversed(order):
        incoming = sum(weight(inst, a, cand) for a in accepted)
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


def test_solve_fixed_keeps_the_trace_when_nothing_is_selected():
    # both powers miss the solo gate: the greedy still decides on both links,
    # least sensitive first (equal sensitivities, so the higher id first)
    inst = gen_line([(0, 1, 1), (10, 11, 1)], alpha=2, noise=0.1)
    sol = solve_fixed(inst, powers={0: 0.05, 1: 0.05})
    assert sol.selected == ()
    assert sol.trace == ((1, False, math.inf), (0, False, math.inf))
    assert sol.to_dict(include_trace=True)["trace"] == [[1, False, math.inf], [0, False, math.inf]]


def test_solve_fixed_drops_zero_powers_when_beta_noise_underflows():
    # beta * N = 1e-330 underflows to 0, so p / d^alpha >= beta * N holds at
    # p = 0; a zero power still cannot meet a positive threshold
    inst = gen_line([(0, 1, 1e-30), (5, 6, 1e-30)], noise=1e-300, allow_sub_unit=True)
    sol = solve_fixed(inst, powers={0: 0.0, 1: 0.0}, warn_preconditions=False)
    assert sol.selected == ()
    assert sol.trace == ((1, False, math.inf), (0, False, math.inf))
    assert verify_solution(inst, sol) == []


@pytest.mark.parametrize("p_max", [math.inf, 1e3])
def test_power_recurrence_drops_links_whose_beta_d_noise_underflows(p_max):
    # beta * d^alpha * N = 1e-330 underflows to 0, so the recurrence would
    # give each link power 0 and SINR 0; neither link is feasible even alone
    inst = gen_line([(0, 1, 1e-30), (5, 6, 1e-30)], noise=1e-300, p_max=p_max,
                    allow_sub_unit=True)
    regime = "variable" if p_max == math.inf else "variable_capped"
    assert brute_opt_threshold(inst, regime=regime) == ((), 0)
    for solve in (solve_unlimited, solve_limited):
        sol = solve(inst)
        assert sol.selected == ()
        assert sol.trace == ((1, False, math.inf), (0, False, math.inf))
        assert verify_solution(inst, sol) == []


def test_solve_fixed_drops_an_infinite_power():
    # an infinite power on the least sensitive link, walked first, would be
    # accepted at load 0 and then saturate every other link
    inst = gen_line([(0, 1, 1), (10, 12, 1), (20, 23, 1), (40, 44, 1), (60, 65, 1)])
    powers = dict.fromkeys(inst.link_ids, 1e3)
    powers[0] = math.inf
    sol = solve_fixed(inst, powers=powers, warn_preconditions=False)
    assert sol.selected == (1, 2, 3, 4)
    assert sol.trace[0] == (0, False, math.inf)
    assert verify_solution(inst, sol) == []


@st.composite
def gated_fixed_cases(draw):
    """A fixed-power instance whose links share endpoints on a small grid, at
    extreme length, noise and threshold magnitudes, with powers at, inside
    and past the solo gate's tolerance band, below it, zero and infinite."""
    n = draw(st.integers(2, 8))
    scale = draw(st.sampled_from([1e-60, 1e-3, 1.0, 1e3, 1e60]))
    grid = [[scale * x, scale * y] for x, y in ((0, 0), (1, 0), (0, 1), (2, 1), (3, 3))]
    noise = draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e200]))
    links = []
    for lid in range(n):
        sender, receiver = draw(st.lists(st.integers(0, len(grid) - 1), min_size=2, max_size=2,
                                         unique=True))
        beta = draw(st.sampled_from([1e-30, 1.0, 10.0, 1e30]))
        links.append(Link(lid, sender, receiver, threshold=beta))
    inst = Instance(MetricSpace.euclidean(grid), draw(st.sampled_from([1.5, 2.0, 3.0])), noise,
                    tuple(links), allow_sub_unit_threshold=True)
    powers = {}
    for link, d_alpha in zip(inst.links, inst.d_alpha.tolist()):
        level = link.threshold * noise * d_alpha
        powers[link.id] = draw(st.sampled_from([
            level, level * (1 - FEAS_RTOL / 2), level * (1 + 1e-15), level * 1e150, level / 2,
            0.0, math.inf]))
    return inst, powers


@given(case=gated_fixed_cases())
@settings(max_examples=300, deadline=None)
def test_affectances_past_the_gate_lie_in_unit_interval(case):
    inst, powers = case
    made = []

    class Recorded(_Candidates):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with mock.patch.object(capacity, "_Candidates", Recorded):
        sol = solve_fixed(inst, powers=powers, warn_preconditions=False)
    (cands,) = made
    assert ((0 < cands.p) & (cands.p < math.inf)).all()
    assert (cands.margin >= 0).all()
    m = len(cands.p)
    at = np.arange(m)
    with np.errstate(**_ROW_ERRSTATE):
        block = cands.affectances(at[:, None], at[None, :])
    assert block.shape == (m, m)
    assert ((0 <= block) & (block <= 1)).all(), block
    assert all(0 < powers[lid] < math.inf for lid in sol.selected)


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
    with pytest.raises(ValueError, match="power array does not match the links"):
        check_power_preconditions(inst, [0, 1], np.array([5.0]))
    # a mapping without a link reads as the solver reads it
    for call in (lambda: check_power_preconditions(inst, [0, 1], {0: 5.0}),
                 lambda: solve_fixed(inst, powers={0: 5.0})):
        with pytest.raises(ValueError, match="^missing power for link 1$"):
            call()


def test_fixed_powers_are_the_floats_the_pass_used():
    # solve_fixed and solve_limited's full-power branch return their pass's
    # float64 powers, even for int powers given in the mapping or as the cap
    inst = gen_line([(0, 1, 1), (100, 101, 1)], alpha=2, noise=1.0, p_max=2)
    for sol in (solve_fixed(inst, powers={0: 5, 1: 5}), solve_limited(inst)):
        assert sol.selected == (0, 1)
        assert all(type(p) is float for p in sol.powers.values())
    assert json.dumps(solve_fixed(inst, powers={0: 5, 1: 5}).to_dict()["powers"]) == (
        '{"0": 5.0, "1": 5.0}')
    assert solve_limited(inst).powers == {0: 2.0, 1: 2.0}


def pairwise_preconditions(instance, ids, powers, thresholds=None):
    """Reference: one message per violating pair, by the O(n^2) definition."""
    beta = thresholds_for(instance, ids, thresholds)
    issues = []
    rows = []  # (sensitivity, id, power, power / sensitivity) per link
    for k, lid in enumerate(ids):
        b, d_alpha = float(beta[k]), instance.length(lid) ** instance.alpha
        rows.append((b * d_alpha, lid, powers[lid], powers[lid] / (b * d_alpha)))
    rtol = 1e-12
    for s_a, a, p_a, q_a in rows:
        for s_b, b, p_b, q_b in rows:
            if a == b or s_a > s_b:
                continue
            if p_a > p_b * (1 + rtol):
                issues.append(f"power not monotone in sensitivity: links {a}, {b}")
            if q_a < q_b * (1 - rtol):
                issues.append(f"normalized power not antitone in sensitivity: links {a}, {b}")
    return issues


CONDITIONS = ("power not monotone in sensitivity", "normalized power not antitone in sensitivity")
PAIR = re.compile(r"links (\d+), (\d+)")
COUNT = re.compile(r"\((\d+) of (\d+) links with a violating partner\)$")


@st.composite
def precondition_cases(draw):
    """Links of length 1 or 2 with thresholds 1 or 4, so that sensitivities
    tie across links; powers near the 1e-12 tolerance of a tie in power or
    in power / sensitivity, zero, negative and NaN powers included. The
    check is given the powers as a mapping or as an array aligned with the
    links."""
    n = draw(st.integers(min_value=1, max_value=8))
    lengths = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n))
    inst = gen_line([(10.0 * k, 10.0 * k + d, 1.0) for k, d in enumerate(lengths)])
    ids = draw(st.permutations(list(inst.link_ids)))
    betas = draw(st.lists(st.sampled_from([1.0, 4.0, 4.0 + 4e-13]), min_size=n, max_size=n))
    rel = st.sampled_from([0.0, 1e-13, -1e-13, 2e-12, -2e-12])
    powers = {}
    for lid, beta in zip(ids, betas):
        sens = beta * lengths[lid] ** 2
        base = draw(st.sampled_from([0.0, 1.0, 4.0, sens, 2.0 * sens, -1.0, math.nan]))
        powers[lid] = base * (1.0 + draw(rel))
    if draw(st.booleans()):
        thresholds = np.array(betas)
    else:
        thresholds = dict(zip(ids, betas))
    given = np.array([powers[lid] for lid in ids]) if draw(st.booleans()) else powers
    return inst, ids, powers, given, thresholds


@given(case=precondition_cases())
@settings(max_examples=500, deadline=None)
def test_preconditions_match_pairwise_reference(case):
    inst, ids, powers, given, thresholds = case
    expected = pairwise_preconditions(inst, ids, powers, thresholds)
    issues = check_power_preconditions(inst, ids, given, thresholds)
    for condition in CONDITIONS:
        pairs = {
            tuple(map(int, PAIR.search(m).groups())) for m in expected if m.startswith(condition)
        }
        found = [m for m in issues if m.startswith(condition)]
        assert len(found) == (1 if pairs else 0)
        if found:
            assert tuple(map(int, PAIR.search(found[0]).groups())) in pairs
            count, total = map(int, COUNT.search(found[0]).groups())
            assert (count, total) == (len({b for _, b in pairs}), len(ids))


def test_all_link_fixed_solve_reads_its_links_in_place(monkeypatch):
    # a default solve hands the instance's own link_ids on: it reads each
    # link's fixed power and d^alpha in place, with no id lookup, and returns
    # the solution and the warning of a solve given the same ids as a list,
    # which looks every id up
    data = gen_random(GenConfig(n=40, seed=5, power=1e6)).to_dict()
    data["links"][sensitivity_order(Instance.from_dict(data))[0]]["power"] = 5e5
    inst = Instance.from_dict(data)

    def solve(links):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = solve_fixed(inst, links=links)
        return sol.to_dict(include_trace=True), [str(w.message) for w in caught]

    listed = solve(list(inst.link_ids))
    calls = []
    for name in ("positions", "link"):
        real = getattr(Instance, name)
        monkeypatch.setattr(Instance, name, lambda self, arg, real=real, name=name: (
            calls.append(name), real(self, arg))[1])
    assert solve(None) == listed
    assert calls == []
    assert len(listed[1]) == 1 and "not monotone" in listed[1][0]
    # a link without a fixed power is named as before
    del data["links"][7]["power"]
    bare = Instance.from_dict(data)
    for links in (None, list(bare.link_ids)):
        with pytest.raises(ValueError, match=f"^link {bare.link_ids[7]} has no fixed power$"):
            solve_fixed(bare, links=links)


def test_preconditions_scale_to_ten_thousand_links():
    # uniform power with the most sensitive link at half power: that link
    # is the one violating b, and power / sensitivity stays antitone
    n = 10_000
    inst = gen_random(GenConfig(n=n, seed=3, area=1000.0 * math.sqrt(n / 300)))
    powers = {lid: 1e6 for lid in inst.link_ids}
    most = sensitivity_order(inst)[0]
    powers[most] = 5e5
    issues = check_power_preconditions(inst, inst.link_ids, powers)
    assert len(issues) == 1 and issues[0].startswith(CONDITIONS[0])
    a, b = map(int, PAIR.search(issues[0]).groups())
    assert b == most and powers[a] > powers[b]
    assert COUNT.search(issues[0]).groups() == ("1", str(n))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_fixed(inst, powers=powers)
    assert [str(w.message).endswith(issues[0]) for w in caught] == [True]
    assert sol.selected


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
        for lid, gamma in evaluate_sinrs(inst, sol.selected, uniform).items():
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
        gammas = evaluate_sinrs(inst, sol.selected, sol.powers)
        for lid in sol.selected:
            assert sol.powers[lid] <= p_max * (1 + 1e-12)
            assert gammas[lid] >= inst.link(lid).threshold * (1 - FEAS_RTOL)


@st.composite
def line_cases_at_the_split(draw):
    """A ``gen_line`` instance of 1-7 links on the integer grid 0..6, so that
    endpoints of different links coincide, with p_max at, just past, just
    short of and well off 4 * beta_k * N * d_k^alpha of a drawn link k."""
    n = draw(st.integers(1, 7))
    entries = []
    for _ in range(n):
        sender, receiver = draw(st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True))
        entries.append((sender, receiver, draw(st.sampled_from([1.0, 2.0, 10.0, 1e3]))))
    inst = gen_line(entries, alpha=draw(st.sampled_from([1.5, 2.0, 3.0, 4.0])),
                    noise=draw(st.sampled_from([1e-6, 1.0, 100.0])))
    k = draw(st.integers(0, n - 1))
    factor = draw(st.sampled_from([1.0, 1 + 2**-52, 1 - 2**-53, 1 + 1e-9, 0.5, 3.0]))
    return replace(inst, p_max=4 * entries[k][2] * inst.noise * float(inst.d_alpha[k]) * factor)


@given(inst=line_cases_at_the_split())
@settings(max_examples=300, deadline=None)
@example(inst=gen_random(GenConfig(n=8, seed=0, beta_range=(1.0, 4.0), p_max=5e4)))
@example(inst=gen_random(GenConfig(n=8, seed=1, beta_range=(1.0, 4.0), p_max=5e4)))
@example(inst=gen_random(GenConfig(n=8, seed=2, beta_range=(1.0, 4.0), p_max=5e4)))
def test_solutions_certified_by_oracle(inst):
    uniform = dict.fromkeys(inst.link_ids, inst.p_max)
    for sol, cap in (
        (solve_unlimited(inst), math.inf),
        (solve_limited(inst), inst.p_max),
        (solve_fixed(inst, powers=uniform, warn_preconditions=False), inst.p_max),
    ):
        assert check_admissible(inst, sol.selected, cap=cap).feasible
        assert verify_solution(inst, sol) == []


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_threshold_overrides_must_be_finite_and_positive(bad):
    inst = gen_random(GenConfig(
        n=6, seed=0, area=100.0, d_range=(1.0, 10.0), beta_range=(1.0, 2.0), p_max=1e4
    ))
    ids = list(inst.link_ids)
    powers = {lid: 1e3 for lid in ids}
    solvers = {
        "unlimited": lambda t: solve_unlimited(inst, ids, thresholds=t),
        "limited": lambda t: solve_limited(inst, ids, thresholds=t),
        "fixed": lambda t: solve_fixed(inst, ids, powers=powers, thresholds=t),
        "oracle": lambda t: check_admissible(inst, ids, cap=inst.p_max, thresholds=t),
    }
    for name, solve in solvers.items():
        mapping = {ids[2]: bad}
        array = thresholds_for(inst, ids)
        array[2] = bad
        for thresholds in (mapping, array):
            with pytest.raises(ValueError, match=f"link {ids[2]}: threshold must be finite"):
                solve(thresholds)


@functools.cache
def _capacity_benchmark_instance(seed):
    return gen_random(GenConfig(
        n=2000, seed=seed, area=1000.0, d_range=(1.0, 100.0), beta_range=(1.0, 10.0),
        alpha=2.0, p_max=20.0 * 30.0**2,
    ))


@pytest.mark.parametrize("solver, want", [
    ("unlimited", "8522676647ec14c9a366d66709917ab8958c9d57f67ad94773ea1bdf1db2e8e8"),
    ("limited", "3a42ebdc29afa770c22028890c4c142f47ceca5ead96971a14021edf45a4a2ea"),
    ("fixed", "a135e91f84ed9afa82cb6d9e261af23379540c6d2ea91562f254de3660c461b5"),
], ids=["unlimited", "limited", "fixed"])
def test_capacity_benchmark_solutions_are_pinned(solver, want):
    # the benchmark's capacity-large instances (workload seed 1): a faster
    # solver must select, power and trace every link exactly as recorded
    digest = hashlib.sha256()
    for sol in _capacity_benchmark_solutions(solver):
        digest.update(json.dumps(sol.to_dict(include_trace=True), sort_keys=True).encode())
    assert digest.hexdigest() == want


@pytest.mark.parametrize("solver, want", [
    ("unlimited", "f289b1523e02f118d37cc884091fb19a64f5b4fe6872df90cfd407b60dc3af5b"),
    ("limited", "956a65f5077aa5bdb31a8e18631a06b0218f3972e9432400148602cb2130333d"),
    ("fixed", "1f10a980a4659c4c3c46e1a5b9dbff324d30b2f02bfc347b91baad8d889627c5"),
], ids=["unlimited", "limited", "fixed"])
def test_capacity_benchmark_decisions_are_pinned(solver, want):
    # the same solves without a float: the selected ids and each trace row's
    # id and accepted flag. Arithmetic that moves powers and SINRs in the
    # last bits, and so the digest above, must leave this one as it is
    digest = hashlib.sha256()
    for sol in _capacity_benchmark_solutions(solver):
        trace = [[row[0], bool(row[1])] for row in sol.trace]
        digest.update(json.dumps([list(sol.selected), trace]).encode())
    assert digest.hexdigest() == want


def _capacity_benchmark_solutions(solver):
    for seed in (1000, 1001, 1002):
        inst = _capacity_benchmark_instance(seed)
        if solver == "unlimited":
            yield solve_unlimited(inst)
        elif solver == "limited":
            yield solve_limited(inst)
        else:
            uniform = {lid: inst.p_max for lid in inst.link_ids}
            yield solve_fixed(inst, powers=uniform, warn_preconditions=False)


def test_fixed_pass_compacts_on_large_instances_only(monkeypatch):
    # the pass drops dead candidates through _Candidates.subset; checks run
    # after every 8th accept
    checks, compactions = [], []
    check, subset = capacity._FixedLoads._check, capacity._Candidates.subset

    def counted_check(self, j):
        checks.append(len(self.tracked))
        return check(self, j)

    def counted_subset(self, at):
        compactions.append(len(at))
        return subset(self, at)

    monkeypatch.setattr(capacity._FixedLoads, "_check", counted_check)
    monkeypatch.setattr(capacity._Candidates, "subset", counted_subset)
    # capacity-large: each compaction keeps at most half of the tracked links
    inst = _capacity_benchmark_instance(1000)
    solve_fixed(inst, powers=dict.fromkeys(inst.link_ids, inst.p_max), warn_preconditions=False)
    assert compactions and checks
    assert all(2 * kept <= tracked for kept, tracked in zip(compactions, [checks[0], *compactions]))
    # ratio-small's instances, n <= 10: no compaction. Ten far-apart links all
    # pass, so the check after the 8th accept finds 8 of 10 still mattering
    checks.clear()
    compactions.clear()
    experiment_ratio(n=10, trials=40, seed=0)
    sparse = gen_random(GenConfig(n=10, seed=5, area=1e5, d_range=(1.0, 10.0), p_max=1e4))
    assert len(solve_fixed(sparse, powers=dict.fromkeys(sparse.link_ids, 1e4),
                           warn_preconditions=False).selected) == 10
    assert checks == [10] and compactions == []


@pytest.mark.parametrize("solver", ["unlimited", "limited", "fixed"])
def test_solvers_name_a_bad_threshold_array(solver):
    # an array of overrides is checked once, where the solve sorts by it,
    # with thresholds_for's messages
    inst = gen_line([(0, 1, 1), (4, 5, 2), (9, 10, 1), (14, 15, 3)], alpha=2, noise=0.1,
                    p_max=1e3)
    solve = {"unlimited": solve_unlimited, "limited": solve_limited,
             "fixed": functools.partial(solve_fixed, powers=dict.fromkeys(range(4), 1e3),
                                        warn_preconditions=False)}[solver]
    for links in ([3, 1, 0, 2], None):
        ids = [3, 1, 0, 2] if links else [0, 1, 2, 3]
        for bad in (math.nan, 0.0, -1.0, math.inf):
            beta = np.array([2.0, 2.0, 3.0, 2.0])
            beta[ids.index(1)] = beta[ids.index(2)] = bad
            with pytest.raises(ValueError, match=f"link 1: threshold must be finite and "
                                                 f"positive, got {bad}"):
                solve(inst, links, thresholds=beta)
        with pytest.raises(ValueError, match="threshold array does not match the links"):
            solve(inst, links, thresholds=np.ones(3))
        assert solve(inst, links, thresholds=np.ones(4)).selected
