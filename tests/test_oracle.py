"""Admissibility oracles and brute-force optima.

The reference below is the monotone fixed-point power iteration the linear
solve replaced: p <- B p + beta * d^alpha * N from zero, run until it
converges, exceeds the cap or stops contracting. The solve must reproduce its
verdicts and, to a relative 1e-9, its powers. The brute-force searches decide
chunks of subsets on stacks of slices of matrices built once; a per-subset
search is their reference.
"""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrsched import (
    INF,
    oracle,
    GenConfig,
    StepUtility,
    brute_opt_flexible_fixed,
    brute_opt_threshold,
    check_admissible,
    gen_greedy_adversary,
    gen_line,
    gen_random,
    relative_interference_matrix,
    spectral_admissible,
    spectral_radius,
    evaluate_sinrs,
)
from sinrsched.model import FEAS_RTOL, Instance, Link, MetricSpace, geometry, sinr_vector, thresholds_for


# -- fixed-point reference -----------------------------------------------------

def _fixed_point(instance, ids, cap, max_iterations=100_000):
    """(feasible, minimal powers or None) from the iteration p <- B p + base."""
    coupling = relative_interference_matrix(instance, ids)
    beta = thresholds_for(instance, ids)
    base = beta * np.array([instance.length(lid) ** instance.alpha for lid in ids]) * instance.noise
    p = np.zeros(len(ids))
    limit = cap if cap != INF else 1e30
    iterations, budget = 0, max_iterations
    while True:
        p_next = coupling @ p + base
        iterations += 1
        assert np.all(p_next >= p), "fixed-point iteration lost monotonicity"
        over = p_next > limit
        if np.any(over):
            return False, None
        delta = p_next - p
        scale = np.where(p_next > 0, p_next, 1.0)
        if np.all(delta <= 1e-12 * scale):
            return True, p_next
        if iterations >= budget:
            # the update tail contracts by the spectral radius of the coupling
            growth = float(np.linalg.norm(coupling @ delta) / np.linalg.norm(delta))
            if growth >= 1.0 - 1e-12:
                return False, None
            tail = float(np.linalg.norm(delta)) * growth / (1.0 - growth)
            if tail <= 1e-11 * float(np.linalg.norm(scale)):
                return True, p_next
            budget += max_iterations
            if budget > 100 * max_iterations:
                return False, None
        p = p_next


def _random_subsets(seeds, n):
    for seed in seeds:
        inst = gen_random(GenConfig(n=n, seed=seed, beta_range=(1.0, 5.0), noise=1e-3))
        ids = list(inst.link_ids)
        for size in range(1, len(ids) + 1):
            for combo in combinations(ids, size):
                yield inst, list(combo)


def test_singleton_fixed_point_is_sensitivity():
    inst = gen_line([(0, 1, 3)], alpha=2, noise=0.5)
    cert = check_admissible(inst, [0], cap=math.inf)
    assert cert.feasible
    # beta * N * d^alpha, reached in one productive step
    assert cert.powers[0] == pytest.approx(3 * 0.5 * 1.0)


def test_symmetric_pair_quarter_coupling_feasible():
    # own length 1, cross distances 2: B = [[0, 1/4], [1/4, 0]], rho = 1/4
    inst = gen_line([(0, 1, 1), (3, 2, 1)], alpha=2, noise=1e-6)
    B = relative_interference_matrix(inst, [0, 1])
    assert B == pytest.approx(np.array([[0.0, 0.25], [0.25, 0.0]]))
    assert spectral_radius(B) == pytest.approx(0.25, rel=1e-9)
    assert check_admissible(inst, [0, 1], cap=math.inf).feasible
    assert spectral_admissible(inst, [0, 1])


def test_symmetric_pair_beta_five_infeasible():
    # rho = 5/4 > 1
    inst = gen_line([(0, 1, 5), (3, 2, 5)], alpha=2, noise=1e-6)
    assert spectral_radius(relative_interference_matrix(inst, [0, 1])) == pytest.approx(1.25, rel=1e-9)
    assert not check_admissible(inst, [0, 1], cap=math.inf).feasible
    assert not spectral_admissible(inst, [0, 1])


def test_certificate_powers_meet_thresholds():
    inst = gen_random(GenConfig(n=6, seed=4, beta_range=(1.0, 2.0)))
    cert = check_admissible(inst, list(inst.link_ids)[:3], cap=math.inf)
    if cert.feasible:
        sinrs = evaluate_sinrs(inst, list(cert.powers), cert.powers)
        for lid, gamma in sinrs.items():
            assert gamma >= inst.link(lid).threshold * (1 - FEAS_RTOL)


def test_cap_violation_names_first_link():
    inst = gen_line([(0, 1, 2)], alpha=2, noise=0.1, p_max=0.15)
    cert = check_admissible(inst, [0], cap=0.15)
    assert not cert.feasible
    assert cert.violated == 0
    assert cert.powers is None


@pytest.mark.parametrize("thresholds", [{1: 1e300}, np.array([2.0, 1e300])],
                         ids=["mapping", "array"])
def test_threshold_override_whose_sensitivity_overflows_is_rejected(thresholds):
    # finite thresholds and d^alpha = 1e20, but 1e300 * 1e20 overflows; the
    # suite turns a numpy warning inside the package into an error
    inst = gen_line([(0, 1e10, 2.0), (10, 1e10 + 10, 2.0)], alpha=2, noise=1.0)
    message = (r"^link 1: sensitivity threshold \* distance\^alpha must be finite "
               r"\(threshold 1e\+300, distance\^alpha 1e\+20\)$")
    with pytest.raises(ValueError, match=message):
        check_admissible(inst, [0, 1], cap=math.inf, thresholds=thresholds)


@pytest.mark.parametrize("cap", [math.nan, -1.0, 0.0])
def test_cap_must_be_positive(cap):
    # a NaN cap passed every power comparison and read as no cap at all
    inst = gen_line([(0, 1, 2)], alpha=2, noise=0.1)
    for subset in ([0], []):
        with pytest.raises(ValueError, match="cap must be positive"):
            check_admissible(inst, subset, cap=cap)


def test_empty_subset_trivially_feasible():
    inst = gen_line([(0, 1, 2)], alpha=2, noise=0.1)
    cert = check_admissible(inst, [], cap=math.inf)
    assert cert.feasible and cert.powers == {}


def test_subset_monotonicity_spot_checks():
    for seed in range(10):
        inst = gen_random(GenConfig(n=6, seed=200 + seed, beta_range=(1.0, 4.0)))
        ids = list(inst.link_ids)
        if check_admissible(inst, ids, cap=math.inf).feasible:
            for drop in ids:
                sub = [x for x in ids if x != drop]
                assert check_admissible(inst, sub, cap=math.inf).feasible


def test_fixed_point_agrees_with_spectral_smoke():
    # full agreement is acceptance criterion 3; spot-check here
    mismatches = 0
    for seed in range(25):
        inst = gen_random(GenConfig(n=5, seed=300 + seed, beta_range=(1.0, 5.0), noise=1e-9))
        ids = list(inst.link_ids)
        from itertools import combinations

        for size in range(1, len(ids) + 1):
            for combo in combinations(ids, size):
                fp = check_admissible(inst, combo, cap=math.inf).feasible
                sp = spectral_admissible(inst, combo)
                mismatches += fp != sp
    assert mismatches == 0


def test_brute_threshold_single_noise_feasible():
    inst = gen_line([(0, 1, 2)], alpha=2, noise=0.1)
    best, size = brute_opt_threshold(inst, regime="variable")
    assert best == (0,) and size == 1


def test_brute_threshold_adversary_reversed_quadruple():
    inst = gen_greedy_adversary(4)
    best, size = brute_opt_threshold(inst, regime="variable")
    assert size == 4
    assert best == (1, 2, 3, 4)
    # all five together are not admissible
    assert not check_admissible(inst, list(inst.link_ids), cap=math.inf).feasible


def test_brute_threshold_capped_empty():
    inst = gen_line([(0, 1, 2), (30, 31, 2)], alpha=2, noise=0.1, p_max=0.15)
    best, size = brute_opt_threshold(inst, regime="variable_capped")
    assert best == () and size == 0


def test_brute_threshold_limit():
    inst = gen_random(GenConfig(n=21, seed=0, beta_range=(1.0, 2.0)))
    with pytest.raises(ValueError, match="20"):
        brute_opt_threshold(inst)


def test_admissibility_oracles_refuse_large_subsets_before_measuring(monkeypatch):
    # the bound is checked against the subset's size before geometry builds
    # any k x k array; here the bound is lowered, so nothing large is built
    inst = gen_random(GenConfig(n=6, seed=0, beta_range=(1.0, 2.0)))
    measured = []

    def spy(*args):
        measured.append(args)
        return geometry(*args)

    monkeypatch.setattr(oracle, "ADMISSIBLE_LIMIT", 4)
    monkeypatch.setattr(oracle, "geometry", spy)
    ids = list(inst.link_ids)
    for decide in (check_admissible, spectral_admissible, relative_interference_matrix):
        with pytest.raises(ValueError, match="^admissibility oracle limited to 4 links, got 5$"):
            decide(inst, ids[:5])
    assert measured == []
    check_admissible(inst, ids[:4])
    spectral_admissible(inst, ids[:4])
    assert len(measured) == 2


def _flexible_instance(step_pairs, coords):
    points, links = [], []
    for idx, (s, r) in enumerate(coords):
        points.append([s])
        points.append([r])
        links.append(
            Link(
                id=idx,
                sender=2 * idx,
                receiver=2 * idx + 1,
                utility=StepUtility(step_pairs),
                fixed_power=1.0,
            )
        )
    return Instance(
        metric=MetricSpace.euclidean(points, dim=1),
        alpha=2.0,
        noise=0.1,
        links=tuple(links),
    )


def test_brute_flexible_single_link():
    inst = _flexible_instance(((1.0, 1.0), (8.0, 3.0)), [(0, 1)])
    best, util = brute_opt_flexible_fixed(inst)
    # solo SINR = 1/0.1 = 10 >= 8: top step
    assert best == (0,) and util == 3.0


def test_brute_flexible_joint_drop_prefers_singleton():
    # jointly each link sees interference 1/0.8^2, pushing both SINRs to
    # 1/(1.5625 + 0.1) < 1; alone each reaches 10, value 1
    inst = _flexible_instance(((1.0, 1.0),), [(0, 1), (1.8, 0.8)])
    sinrs = evaluate_sinrs(inst, [0, 1], {0: 1.0, 1: 1.0})
    assert max(sinrs.values()) < 1.0
    best, util = brute_opt_flexible_fixed(inst)
    assert best == (0,) and util == 1.0


def test_brute_flexible_all_zero_utilities():
    inst = _flexible_instance(((1.0, 0.0),), [(0, 1), (10, 11)])
    best, util = brute_opt_flexible_fixed(inst)
    assert best == () and util == 0.0


def test_brute_flexible_names_a_link_without_utility():
    inst = gen_line([(0, 1, 1), (10, 11, 1)], alpha=2, noise=0.1)
    with pytest.raises(ValueError, match="^link 0 has no utility$"):
        brute_opt_flexible_fixed(inst, powers={0: 1.0, 1: 1.0})


def test_spectral_radius_handles_two_cycle():
    # [[0, 4], [1, 0]] has eigenvalues +-2; plain power iteration would oscillate
    assert spectral_radius(np.array([[0.0, 4.0], [1.0, 0.0]])) == pytest.approx(2.0, rel=1e-9)
    assert spectral_radius(np.zeros((1, 1))) == 0.0
    assert spectral_radius(np.zeros((0, 0))) == 0.0
    # an infinite coupling (sender on a foreign receiver) is never admissible
    assert spectral_radius(np.array([[0.0, INF], [1.0, 0.0]])) == INF


def test_spectral_admissible_checks_small_subsets_like_any_other():
    # the empty set and one link have a zero coupling matrix of radius 0; an
    # unknown id or a bad threshold is an error at every size
    inst = gen_line([(0, 1, 1), (3, 2, 1)], alpha=2, noise=0.1)
    assert spectral_admissible(inst, [])
    assert spectral_admissible(inst, [0])
    with pytest.raises(KeyError, match="no link with id 999"):
        spectral_admissible(inst, [999])
    for bad in ([0], [0, 1]):
        with pytest.raises(ValueError, match="link 0: threshold must be finite and positive"):
            spectral_admissible(inst, bad, thresholds={0: -1.0})


# -- linear solve against the fixed-point reference ----------------------------

def test_linear_solve_matches_fixed_point_uncapped():
    feasible = infeasible = 0
    for inst, ids in _random_subsets(range(700, 720), n=6):
        cert = check_admissible(inst, ids, cap=INF)
        ok, p = _fixed_point(inst, ids, INF)
        assert cert.feasible == ok, (inst, ids)
        assert cert.iterations == 1 and cert.method == "linear_solve"
        assert cert.violated is None
        if ok:
            got = np.array([cert.powers[lid] for lid in ids])
            np.testing.assert_allclose(got, p, rtol=1e-9, atol=0)
            feasible += 1
        else:
            assert cert.powers is None
            infeasible += 1
    # the seeds exercise both verdicts
    assert feasible > 50 and infeasible > 50


def test_linear_solve_matches_fixed_point_capped():
    violations = 0
    for inst, ids in _random_subsets(range(720, 735), n=5):
        uncapped_ok, p_min = _fixed_point(inst, ids, INF)
        # a cap halfway between two middle minimal powers splits the links
        if uncapped_ok:
            ordered = np.sort(p_min)
            m = len(ordered) // 2
            cap = float(ordered[0] / 2 if m == 0 else (ordered[m - 1] + ordered[m]) / 2)
        else:
            cap = 1.0
        cert = check_admissible(inst, ids, cap=cap)
        ok, p = _fixed_point(inst, ids, cap)
        assert cert.feasible == ok, (inst, ids, cap)
        if ok:
            np.testing.assert_allclose([cert.powers[lid] for lid in ids], p, rtol=1e-9, atol=0)
            assert cert.violated is None
        elif uncapped_ok:
            # the first link, in subset order, whose minimal power exceeds the cap
            first = next(k for k in range(len(ids)) if p_min[k] > cap)
            assert cert.violated == ids[first]
            violations += 1
        else:
            # no positive power vector at all: no link to blame
            assert cert.violated is None
    assert violations > 20


@pytest.mark.parametrize("factor, admissible", [(1.0, False), (1 + 1e-9, False), (1 - 1e-9, True)])
def test_symmetric_pair_at_the_boundary(factor, admissible):
    # own length 1, cross distances 2: B = [[0, b/4], [b/4, 0]], rho = b/4
    beta = 4.0 * factor
    inst = gen_line([(0, 1, beta), (3, 2, beta)], alpha=2, noise=1e-6)
    B = relative_interference_matrix(inst, [0, 1])
    assert (spectral_radius(B) < 1.0) == admissible
    assert spectral_admissible(inst, [0, 1]) == admissible
    cert = check_admissible(inst, [0, 1], cap=INF)
    assert cert.feasible == admissible
    assert cert.violated is None
    if admissible:
        # p = b + (beta/4) p on both links
        expected = beta * 1e-6 / (1.0 - B[0, 1])
        assert cert.powers[0] == pytest.approx(expected, rel=1e-6)
        assert cert.powers[1] == pytest.approx(expected, rel=1e-6)
    if factor == 1.0:
        # I - B is exactly singular; the reference runs out its budget (cut
        # short here) and finds a non-contracting tail
        assert np.linalg.matrix_rank(np.eye(2) - B) == 1
        assert _fixed_point(inst, [0, 1], INF, max_iterations=1000)[0] is False


# -- sliced brute force against a per-subset search ----------------------------

def _feasible_subset(inst, regime, combo, powers=None, thresholds=None):
    if regime == "fixed":
        sinrs = evaluate_sinrs(inst, combo, powers)
        beta = thresholds_for(inst, combo, thresholds)
        return all(sinrs[lid] >= beta[k] * (1 - FEAS_RTOL) for k, lid in enumerate(combo))
    cap = INF if regime == "variable" else inst.p_max
    return check_admissible(inst, combo, cap=cap, thresholds=thresholds).feasible


def _brute_threshold_reference(inst, regime, powers=None, thresholds=None):
    ids = sorted(inst.link_ids)
    for size in range(len(ids), 0, -1):
        for combo in combinations(ids, size):
            if _feasible_subset(inst, regime, combo, powers, thresholds):
                return combo, size
    return (), 0


def _brute_flexible_reference(inst, powers):
    best_ids, best_value = (), 0.0
    ids = sorted(inst.link_ids)
    for size in range(1, len(ids) + 1):
        for combo in combinations(ids, size):
            sinrs = evaluate_sinrs(inst, combo, powers)
            total = sum(inst.link(lid).utility.value(sinrs[lid]) for lid in combo)
            if total > best_value or (total == best_value and list(combo) < list(best_ids)):
                best_ids, best_value = combo, total
    return best_ids, best_value


def test_sliced_brute_threshold_matches_per_subset_search():
    p_max = 20.0 * 30.0**2
    sizes = set()
    for seed in range(40):
        n = seed % 8 + 1
        inst = gen_random(GenConfig(n=n, seed=900 + seed, area=1000.0, beta_range=(1.0, 10.0), p_max=p_max))
        uniform = {lid: p_max for lid in inst.link_ids}
        halved = {lid: inst.link(lid).threshold / 2 for lid in inst.link_ids[::2]}
        for regime in ("variable", "variable_capped", "fixed"):
            for thresholds in (None, halved):
                powers = uniform if regime == "fixed" else None
                got = brute_opt_threshold(inst, regime=regime, powers=powers, thresholds=thresholds)
                assert got == _brute_threshold_reference(inst, regime, powers, thresholds), (seed, regime)
                sizes.add(got[1])
    assert len(sizes) >= 4


def test_sliced_brute_flexible_matches_per_subset_search():
    values = set()
    for seed in range(30):
        n = seed % 7 + 1
        inst = gen_random(GenConfig(
            n=n, seed=950 + seed, area=300.0, d_range=(1.0, 60.0), power=4e3,
            utility={"family": "step", "steps": 3, "value_max": 2.0},
        ))
        powers = {lid: inst.link(lid).fixed_power for lid in inst.link_ids}
        got = brute_opt_flexible_fixed(inst)
        assert got == _brute_flexible_reference(inst, powers), seed
        values.add(got[1])
    assert len(values) >= 4


# -- chunked, stacked brute force ----------------------------------------------

def _ratio_instance(n, seed):
    # the ratio experiment's recipe: mostly infeasible subsets, small optima
    return gen_random(GenConfig(
        n=n, seed=seed, area=1000.0, d_range=(1.0, 100.0), beta_range=(1.0, 10.0),
        noise=1.0, p_max=20.0 * 30.0**2,
    ))


def _degenerate_instance():
    # links 0 and 1: unit links with co-located receivers, so their I - B is
    # exactly [[1, -1], [-1, 1]]; link 3's sender sits on link 2's receiver
    return gen_line([(-1, 0, 1), (1, 0, 1), (50, 51, 1), (51, 60, 1)], alpha=2, noise=1.0, p_max=1e4)


def _assert_threshold_matches_reference(inst, powers, thresholds):
    for regime in ("variable", "variable_capped", "fixed"):
        p = powers if regime == "fixed" else None
        got = brute_opt_threshold(inst, regime=regime, powers=p, thresholds=thresholds)
        assert got == _brute_threshold_reference(inst, regime, p, thresholds), regime


@pytest.mark.parametrize("chunk", [3, oracle._CHUNK])
def test_chunked_brute_threshold_matches_per_subset_search(monkeypatch, chunk):
    # with 3 subsets per chunk, every size above 1 spans several chunks
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    sizes = set()
    for n, seed in [(1, 0), (4, 1), (7, 2), (9, 3), (10, 4), (11, 5), (12, 6)]:
        inst = _ratio_instance(n, 1_200 + seed)
        uniform = {lid: inst.p_max for lid in inst.link_ids}
        halved = {lid: inst.link(lid).threshold / 2 for lid in inst.link_ids[::2]}
        for thresholds in (None, halved):
            _assert_threshold_matches_reference(inst, uniform, thresholds)
        sizes.add(brute_opt_threshold(inst, thresholds=halved)[1])
    assert len(sizes) >= 4


@pytest.mark.parametrize("chunk", [3, oracle._CHUNK])
def test_singular_subset_falls_back_to_one_subset_at_a_time(monkeypatch, chunk):
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    inst = _degenerate_instance()
    B = relative_interference_matrix(inst, [0, 1, 2, 3])
    assert np.array_equal(np.eye(2) - B[:2, :2], [[1.0, -1.0], [-1.0, 1.0]])
    assert B[2, 3] == INF
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.eye(2) - B[:2, :2], np.ones(2))
    # the singular pair (0, 1) opens the chunk that holds the optimum (0, 2)
    assert brute_opt_threshold(inst, regime="variable") == ((0, 2), 2)
    assert brute_opt_threshold(inst, regime="variable_capped") == ((0, 2), 2)
    uniform = {lid: 1e3 for lid in inst.link_ids}
    for powers in (uniform, {**uniform, 0: 0.0}, {**uniform, 3: 0.0}, dict.fromkeys(uniform, 0.0)):
        for thresholds in (None, {1: 0.5}, {0: 0.25, 3: 0.1}):
            _assert_threshold_matches_reference(inst, powers, thresholds)


@st.composite
def brute_cases(draw):
    """An instance with fixed powers and threshold overrides. Dense areas,
    long links and small caps leave many links infeasible alone and many
    pairs clashing; powers include zero; the degenerate instance adds a
    singular pair and a sender on a foreign receiver."""
    if draw(st.booleans()):
        p_max = draw(st.sampled_from([2e3, 20.0 * 30.0**2, 1e5]))
        inst = gen_random(GenConfig(
            n=draw(st.integers(min_value=0, max_value=8)),
            seed=draw(st.integers(min_value=0, max_value=2**32)),
            area=draw(st.sampled_from([100.0, 300.0, 1000.0])),
            d_range=draw(st.sampled_from([(1.0, 100.0), (50.0, 100.0)])),
            beta_range=(1.0, 10.0), noise=1.0, p_max=p_max,
        ))
    else:
        inst = _degenerate_instance()
    ids = list(inst.link_ids)
    powers = {lid: draw(st.sampled_from([0.0, inst.p_max / 10, inst.p_max])) for lid in ids}
    thresholds = None
    if ids and draw(st.booleans()):
        thresholds = draw(st.dictionaries(st.sampled_from(ids), st.sampled_from([0.25, 2.0, 50.0])))
    return inst, powers, thresholds


@given(case=brute_cases())
@settings(max_examples=300, deadline=None)
def test_pruned_brute_threshold_matches_per_subset_search(case):
    _assert_threshold_matches_reference(*case)


def _dense_16():
    # the ratio experiment's thresholds and cap with lengths 50-100: 10 of 16
    # links miss their threshold alone at p_max, capped or at uniform power
    # p_max, and OPT is 7 links uncapped and 4 in the other two regimes
    return gen_random(GenConfig(
        n=16, seed=5002, area=1000.0, d_range=(50.0, 100.0), beta_range=(1.0, 10.0),
        noise=1.0, p_max=20.0 * 30.0**2,
    ))


@pytest.mark.parametrize("regime, decided, answer", [
    ("variable", 238, ((1, 7, 8, 9, 10, 12, 14), 7)),
    ("variable_capped", 17, ((2, 7, 9, 12), 4)),
    ("fixed", 33, ((2, 7, 9, 12), 4)),
])
def test_brute_threshold_decides_only_subsets_that_can_be_feasible(
        monkeypatch, regime, decided, answer):
    # the walk over every subset decided 47,395 subsets uncapped and 64,839
    # capped or fixed on this instance. Under variable powers the 16 single
    # links are decided from their base without a stacked call, so only
    # the fixed regime's count holds them
    inst = _dense_16()
    powers = {lid: inst.p_max for lid in inst.link_ids} if regime == "fixed" else None
    decide, stacks = oracle._decide, []

    def spy(feasible, combos):
        stacks.append(combos.copy())
        return decide(feasible, combos)

    monkeypatch.setattr(oracle, "_decide", spy)
    assert brute_opt_threshold(inst, regime=regime, powers=powers) == answer
    ids = sorted(inst.link_ids)
    alone = {k for k, lid in enumerate(ids) if _feasible_subset(inst, regime, [lid], powers)}
    clash = {pair for pair in combinations(sorted(alone), 2)
             if not _feasible_subset(inst, regime, [ids[k] for k in pair], powers)}
    assert alone and clash
    past_two = [row for combos in stacks if combos.shape[1] > 2 for row in combos.tolist()]
    assert past_two
    for row in past_two:
        assert set(row) <= alone and clash.isdisjoint(combinations(row, 2)), row
    assert sum(map(len, stacks)) == decided


def test_chunked_brute_flexible_matches_per_subset_search(monkeypatch):
    monkeypatch.setattr(oracle, "_CHUNK", 3)
    values = set()
    for n, seed in [(1, 0), (3, 1), (5, 2), (8, 3), (10, 4)]:
        inst = gen_random(GenConfig(
            n=n, seed=1_300 + seed, area=300.0, d_range=(1.0, 60.0), power=4e3,
            utility={"family": "step", "steps": 3, "value_max": 2.0},
        ))
        powers = {lid: inst.link(lid).fixed_power for lid in inst.link_ids}
        for zeroed in ((), inst.link_ids[::3]):
            powers.update(dict.fromkeys(zeroed, 0.0))
            got = brute_opt_flexible_fixed(inst, powers=powers)
            assert got == _brute_flexible_reference(inst, powers), (n, zeroed)
            values.add(got[1])
    assert len(values) >= 4


def test_stacked_kernels_equal_per_slice_calls():
    inst = _ratio_instance(12, 1_400)
    rng = np.random.default_rng(0)
    cross_alpha = geometry(inst).cross_alpha
    coupling, base = oracle._coupling(inst, list(inst.link_ids), None)
    for k in (1, 2, 5, 9):
        combos = np.array([rng.choice(12, size=k, replace=False) for _ in range(40)])
        powers = rng.uniform(0.0, 1e3, size=combos.shape)
        powers[rng.random(combos.shape) < 0.2] = 0.0
        stack = oracle._stacked(cross_alpha, combos)
        assert stack.shape == (40, k, k)
        gammas = sinr_vector(stack, powers, inst.noise)
        for j in range(len(combos)):
            assert gammas[j].tobytes() == sinr_vector(stack[j], powers[j], inst.noise).tobytes()
        p, positive = oracle._minimal_powers(oracle._stacked(coupling, combos), base[combos])
        assert positive.shape == (40,)
        for j, row in enumerate(combos):
            p_j, positive_j = oracle._minimal_powers(coupling[np.ix_(row, row)], base[row])
            assert p[j].tobytes() == p_j.tobytes() and positive[j] == positive_j


def test_brute_threshold_memory_is_bounded_by_the_chunk():
    # OPT is 4 of 18 links, so every size from 18 down to 5 is enumerated in
    # full; one stack per size would peak near 80 MB here
    inst = gen_random(GenConfig(n=18, seed=5, area=30.0, d_range=(1.0, 10.0), beta_range=(1.0, 10.0)))
    tracemalloc.start()
    try:
        _, size = brute_opt_threshold(inst, regime="variable")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 4
    assert peak < 20 * 2**20, peak


def test_repeated_link_is_rejected():
    # a repeated id used to count as two interfering copies of one link
    inst = gen_random(GenConfig(n=6, seed=1))
    calls = [
        lambda: check_admissible(inst, [0, 0]),
        lambda: check_admissible(inst, [2, 1, 2], cap=INF),
        lambda: relative_interference_matrix(inst, [3, 3]),
        lambda: spectral_admissible(inst, [0, 0]),
        lambda: brute_opt_threshold(inst, links=[1, 4, 1]),
        lambda: brute_opt_threshold(inst, links=[4, 4], regime="fixed"),
        lambda: brute_opt_flexible_fixed(inst, links=[5, 5]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"link \d appears more than once"):
            call()
    assert check_admissible(inst, [0]).feasible
