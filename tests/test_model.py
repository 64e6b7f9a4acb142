"""Core model: distances, SINR evaluation, sensitivity ordering, JSON."""

import copy
import dataclasses
import json
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sinrsched
from sinrsched import (
    Instance,
    GenConfig,
    Link,
    MetricSpace,
    Solution,
    evaluate_sinrs,
    gen_line,
    gen_random,
    sensitivity_order,
    solve_fixed,
    solve_flexible,
    solve_latency,
    solve_limited,
    solve_unlimited,
)
from sinrsched import latency
from sinrsched.model import float_sum, geometry, sinr_vector, thresholds_for
from sinrsched.utility import CappedUtility, StepUtility
from sinrsched.verify import verify_flexible_run, verify_schedule, verify_solution


def sinr(inst, active, powers, target):
    """SINR of ``target`` when the links in ``active`` transmit."""
    return evaluate_sinrs(inst, active, powers)[target]


def test_distance_unit_segment():
    space = MetricSpace.euclidean([[0.0], [1.0]], dim=1)
    assert space.distance(0, 1) == 1.0


def test_distance_identity():
    space = MetricSpace.euclidean([[3.0, 4.0], [1.0, 1.0]], dim=2)
    assert space.distance(1, 1) == 0.0


def test_distance_matrix_readback():
    space = MetricSpace.from_matrix([[0.0, 2.0], [2.0, 0.0]])
    assert space.distance(0, 1) == 2.0


def test_distance_index_out_of_range():
    space = MetricSpace.euclidean([[0.0], [1.0]], dim=1)
    with pytest.raises(IndexError):
        space.distance(0, 5)


def test_matrix_validation_rejects_triangle_violation():
    bad = [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]]
    with pytest.raises(ValueError, match="triangle"):
        MetricSpace.from_matrix(bad)
    # the skip flag loads the same matrix without complaint
    MetricSpace.from_matrix(bad, validate=False)


def test_matrix_validation_refuses_a_matrix_over_the_limit(monkeypatch):
    # the triangle check is O(n^3): above the limit from_matrix refuses the
    # matrix, naming the limit, before it checks anything, a violated
    # triangle included; validate=False still loads it
    pts = np.arange(4.0)[:, None]
    d = np.abs(pts - pts.T)
    bad = [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]]
    monkeypatch.setattr(sinrsched.model, "METRIC_VALIDATE_LIMIT", 3)
    MetricSpace.from_matrix(d[:3, :3])
    for matrix in (d, np.pad(bad, ((0, 1), (0, 1)))):
        with pytest.raises(ValueError, match="has 4 points; .* at most 3"):
            MetricSpace.from_matrix(matrix)
    assert MetricSpace.from_matrix(d, validate=False).n_points == 4


def test_matrix_validation_rejects_asymmetry():
    with pytest.raises(ValueError, match="symmetric"):
        MetricSpace.from_matrix([[0.0, 1.0], [2.0, 0.0]])


def test_sinr_single_link_no_interference():
    inst = gen_line([(0, 1, 1)], alpha=2, noise=0.1)
    assert sinr(inst, [0], {0: 1.0}, 0) == pytest.approx(10.0)


def test_sinr_line_worked_example():
    # gamma = (1/1) / (1/3^2 + 0.1) = 90/19, evaluated by hand
    inst = gen_line([(0, 1, 1), (4, 5, 1)], alpha=2, noise=0.1)
    assert sinr(inst, [0, 1], {0: 1.0, 1: 1.0}, 0) == pytest.approx(90.0 / 19.0)


def test_sinr_zero_power_interferer_vanishes():
    inst = gen_line([(0, 1, 1), (4, 5, 1)], alpha=2, noise=0.1)
    assert sinr(inst, [0, 1], {0: 1.0, 1: 0.0}, 0) == pytest.approx(10.0)


def test_sinr_errors():
    inst = gen_line([(0, 1, 1), (4, 5, 1)], alpha=2, noise=0.1)
    with pytest.raises(ValueError, match="missing power for link 1"):
        evaluate_sinrs(inst, [0, 1], {0: 1.0})


def _where_sinr(cross_alpha, p, noise):
    """SINRs with the zero-power guard applied to every entry."""
    with np.errstate(divide="ignore", invalid="ignore"):
        received = np.where(p[..., None, :] == 0, 0.0, p[..., None, :] / cross_alpha)
        signal = np.diagonal(received, axis1=-2, axis2=-1)
        return signal / (received.sum(axis=-1) - signal + noise)


def test_sinr_vector_equals_the_guarded_reference_row_by_row():
    # row 0 has a silent sender at zero distance from another receiver,
    # where p / d^alpha alone would read 0 / 0; row 1 has no zero power
    k = 11
    rng = np.random.default_rng(4)
    stack = rng.uniform(0.5, 50.0, size=(2, k, k)) ** 2.5
    powers = rng.uniform(1.0, 1e4, size=(2, k))
    stack[0, 3, 7] = 0.0
    powers[0, 7] = 0.0
    for cross, p in ((stack, powers), (stack[1:], powers[1:])):
        got = sinr_vector(cross, p, 0.3)
        assert got.tobytes() == _where_sinr(cross, p, 0.3).tobytes()
        for row in range(len(p)):
            assert sinr_vector(cross[row], p[row], 0.3).tobytes() == got[row].tobytes()
    # the silent sender adds nothing at receiver 3 and has SINR 0 itself
    guarded = sinr_vector(stack, powers, 0.3)[0]
    assert np.isfinite(guarded[3]) and guarded[7] == 0.0


@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.0, -1.0, math.inf])
def test_thresholds_for_names_the_first_bad_link(bad):
    inst = gen_line([(0, 1, 1), (4, 5, 2), (9, 10, 1), (14, 15, 3)], alpha=2, noise=0.1)
    ids = [3, 1, 0, 2]
    message = f"link 1: threshold must be finite and positive, got {bad}"
    with pytest.raises(ValueError, match=message):
        thresholds_for(inst, ids, np.array([2.0, bad, 3.0, bad]))
    with pytest.raises(ValueError, match=message):
        thresholds_for(inst, ids, {1: bad, 2: bad})
    assert thresholds_for(inst, ids, {1: 5.0}).tolist() == [3.0, 5.0, 1.0, 1.0]
    assert thresholds_for(inst, [], np.empty(0)).shape == (0,)
    assert thresholds_for(inst, []).shape == (0,)


def test_sensitivity_order_strict():
    # beta * d^alpha = 8 vs 2: the heavier link gets rank 1
    inst = gen_line([(0, 2, 2), (10, 11, 2)], alpha=2, noise=0.1)
    assert sensitivity_order(inst) == [0, 1]


def test_sensitivity_order_tie_break_by_id():
    metric = MetricSpace.euclidean([[0.0], [1.0], [5.0], [6.0]], dim=1)
    links = (
        Link(id=7, sender=0, receiver=1, threshold=2.0),
        Link(id=3, sender=2, receiver=3, threshold=2.0),
    )
    inst = Instance(metric=metric, alpha=2.0, noise=0.1, links=links)
    assert sensitivity_order(inst) == [3, 7]


def test_sensitivity_order_product_comparison():
    # beta=(1,2) with d^alpha=(4,1): sensitivities (4,2), first link rank 1
    inst = gen_line([(0, 2, 1), (10, 11, 2)], alpha=2, noise=0.1)
    assert sensitivity_order(inst) == [0, 1]


# -- the sensitivity order an instance caches --------------------------------

@st.composite
def _order_cases(draw):
    """An instance whose links share endpoints, repeat lengths and draw their
    thresholds from a few values, so that sensitivities tie, with ids out of
    order; and a list of its ids to sort: a subset, permuted, with repeats."""
    alpha = draw(st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0]))
    n = draw(st.integers(1, 24))
    points = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=4,
                           max_size=10, unique=True))
    ids = draw(st.permutations(range(0, 3 * n, 3)))
    links = []
    for lid in ids:
        s = draw(st.integers(0, len(points) - 1))
        r = draw(st.integers(0, len(points) - 1).filter(lambda r: r != s))
        links.append(Link(lid, s, r, threshold=draw(st.sampled_from([1.0, 2.0, 2.5, 4.0]))))
    inst = Instance(MetricSpace.euclidean([list(map(float, pt)) for pt in points]), alpha, 1.0,
                    tuple(links))
    chosen = draw(st.lists(st.sampled_from(ids), max_size=2 * n))
    return inst, chosen


def _explicit(inst, ids):
    """sensitivity_order under an explicit array of the links' own
    thresholds, which sorts its own keys."""
    return sensitivity_order(inst, ids, thresholds_for(inst, ids))


@given(_order_cases())
@settings(max_examples=300, deadline=None)
def test_cached_sensitivity_order_equals_the_sorted_keys(case):
    inst, chosen = case
    every = list(inst.link_ids)
    assert sensitivity_order(inst) == _explicit(inst, every)
    assert sensitivity_order(inst, every[::-1]) == _explicit(inst, every)
    assert sensitivity_order(inst, chosen) == _explicit(inst, chosen)
    assert sensitivity_order(inst, chosen[::-1]) == _explicit(inst, chosen)


def test_cached_sensitivity_order_keeps_the_known_ties():
    # mirrored link vectors (x, y) and (y, x) tie, and so does the squared
    # kernel's exact 4.0 at alpha = 4 with a threshold-4 link of length 1
    pts = [[0.0, 0.0]]
    mirrored = []
    for x, y in [(3.5, 1.25), (0.75, 7.0), (2.0, 9.5)]:
        pts += [[x, y], [y, x]]
        mirrored += [Link(len(mirrored), 0, len(pts) - 2, threshold=1.0),
                     Link(len(mirrored) + 1, 0, len(pts) - 1, threshold=1.0)]
    squared = Instance(MetricSpace.euclidean([[0, 0], [1, 0], [50, 50], [51, 51]]), 4.0, 1.0,
                       (Link(0, 0, 1, threshold=4.0), Link(1, 2, 3, threshold=1.0)))
    cases = [(Instance(MetricSpace.euclidean(pts), 2.5, 1.0, tuple(mirrored)), [4, 5, 2, 3, 0, 1]),
             (squared, [0, 1])]
    for inst, want in cases:
        assert sensitivity_order(inst) == want == _explicit(inst, list(inst.link_ids))
        assert sensitivity_order(inst, want[::-1]) == want
        assert sensitivity_order(inst, want[::-1] + want[:1]) == want[:1] + want


def test_cached_sensitivity_order_still_names_a_link_without_a_threshold():
    metric = MetricSpace.euclidean([[0.0], [1.0], [5.0], [7.0]], dim=1)
    inst = Instance(metric, 2.0, 1.0, (Link(4, 0, 1, threshold=2.0), Link(2, 2, 3),
                                       Link(9, 3, 0, threshold=1.0)))
    for links in (None, [9, 2], [2, 4, 2]):
        with pytest.raises(ValueError, match="^link 2 has no threshold$"):
            sensitivity_order(inst, links)
    assert sensitivity_order(inst, [4, 9]) == [9, 4] == _explicit(inst, [9, 4])
    assert sensitivity_order(inst, [2], {2: 1.0}) == [2]
    zero = Instance(metric, 2.0, 1.0, (Link(0, 0, 1, threshold=0.0), Link(1, 2, 3, threshold=0.5)),
                    allow_sub_unit_threshold=True)
    for links in (None, [1, 0]):
        with pytest.raises(ValueError, match="^link 0: threshold must be finite and positive"):
            sensitivity_order(zero, links)
    assert sensitivity_order(zero, [1]) == [1]


def test_cached_sensitivity_order_is_read_only_and_left_out_of_copies():
    inst = gen_random(GenConfig(n=200, seed=6))
    twin = dataclasses.replace(inst)

    def observed():
        return inst == twin, twin == inst, hash(inst), pickle.dumps(inst)

    before = observed()
    ids = list(inst.link_ids)[::3]
    order, part = sensitivity_order(inst), sensitivity_order(inst, ids)
    def cached(instance):
        order, rank, valid = vars(instance)["_by_sensitivity"]
        assert valid is True  # every link has a threshold
        return order, rank

    arrays = cached(inst)
    assert observed() == before
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    for other in (dataclasses.replace(inst), pickle.loads(pickle.dumps(inst)),
                  copy.copy(inst), copy.deepcopy(inst)):
        assert "_by_sensitivity" not in vars(other)
        assert other == inst and hash(other) == hash(inst)
        assert sensitivity_order(other) == order and sensitivity_order(other, ids) == part
        for array, kept in zip(cached(other), arrays):
            assert array.tobytes() == kept.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


def test_capacity_op_mix_sorts_sensitivities_once_per_instance():
    # capacity-large's ops on one instance: unlimited, limited (both
    # branches) and fixed at uniform power each walk an order under the
    # links' own thresholds; only the instance's first order sorts floats
    inst = gen_random(GenConfig(n=2000, seed=1000, area=1000.0, d_range=(1.0, 100.0),
                                beta_range=(1.0, 10.0), p_max=20.0 * 30.0**2))
    uniform = dict.fromkeys(inst.link_ids, inst.p_max)
    small = inst.thresholds * inst.noise * inst.d_alpha <= inst.p_max / 4.0
    assert small.any() and not small.all()  # limited runs both branches
    sorts = []

    def spy(original):
        def sort(keys, *args, **kwargs):
            arrays = keys if isinstance(keys, tuple) else (keys,)
            sorts.append(any(np.asarray(a).dtype.kind == "f" for a in arrays))
            return original(keys, *args, **kwargs)
        return sort

    with mock.patch.object(np, "lexsort", spy(np.lexsort)), \
            mock.patch.object(np, "argsort", spy(np.argsort)), \
            mock.patch.object(np, "sort", spy(np.sort)):
        solutions = [solve_unlimited(inst), solve_limited(inst),
                     solve_fixed(inst, powers=uniform, warn_preconditions=False)]
    # the order, then one integer argsort per limited branch
    assert sorts == [True, False, False]
    fresh = copy.copy(inst)
    own = thresholds_for(fresh, list(fresh.link_ids))
    assert solutions == [solve_unlimited(fresh, thresholds=own),
                         solve_limited(fresh, thresholds=own),
                         solve_fixed(fresh, powers=uniform, thresholds=own,
                                     warn_preconditions=False)]


def test_fixed_pass_sorts_an_override_that_only_starts_like_the_links_own():
    # a threshold array is an override, sorted as given, even when it holds
    # the links' own thresholds (whose order then equals the instance's own)
    # or matches them on its first link only
    inst = gen_random(GenConfig(n=30, seed=4, beta_range=(1.0, 3.0)))
    ids = list(inst.link_ids)
    uniform = dict.fromkeys(ids, 1e6)
    own = thresholds_for(inst, ids)
    changed = own.copy()
    changed[-1] *= 1e3  # now the most sensitive link
    for beta in (own, changed):
        order = sensitivity_order(inst, ids, beta)
        for sol in (solve_fixed(inst, powers=uniform, thresholds=beta, warn_preconditions=False),
                    solve_fixed(inst, ids, uniform, beta, warn_preconditions=False)):
            assert [row[0] for row in sol.trace] == order[::-1]
    assert sensitivity_order(inst, ids, changed)[0] == ids[-1] != sensitivity_order(inst)[0]


def test_instance_validation():
    metric = MetricSpace.euclidean([[0.0], [1.0]], dim=1)
    link = Link(id=0, sender=0, receiver=1, threshold=1.0)
    with pytest.raises(ValueError, match="noise"):
        Instance(metric=metric, alpha=2.0, noise=0.0, links=(link,))
    with pytest.raises(ValueError, match="alpha"):
        Instance(metric=metric, alpha=0.0, noise=1.0, links=(link,))
    with pytest.raises(ValueError, match="threshold"):
        Instance(
            metric=metric,
            alpha=2.0,
            noise=1.0,
            links=(Link(id=0, sender=0, receiver=1, threshold=0.5),),
        )
    # the sub-unit flag admits the same link
    Instance(
        metric=metric,
        alpha=2.0,
        noise=1.0,
        links=(Link(id=0, sender=0, receiver=1, threshold=0.5),),
        allow_sub_unit_threshold=True,
    )
    with pytest.raises(ValueError, match="coincide"):
        Link(id=0, sender=1, receiver=1)


def test_link_fields_are_frozen_compared_hashed_and_pickled():
    utility = StepUtility(((2.0, 1.0), (8.0, 3.0)))
    link = Link(id=3, sender=6, receiver=7, threshold=2.0, utility=utility, demand=1.5,
                fixed_power=4.0)
    assert (link.id, link.sender, link.receiver, link.threshold, link.utility, link.demand,
            link.fixed_power) == (3, 6, 7, 2.0, utility, 1.5, 4.0)
    assert Link(3, 6, 7, 2.0, utility, 1.5, 4.0) == link
    for name in ("id", "threshold", "fixed_power"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(link, name, 9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        link.other = 1
    assert getattr(link, "other", None) is None
    same, other = Link(3, 6, 7, 2.0, utility, 1.5, 4.0), Link(3, 6, 7, 2.0, utility, 1.5, 5.0)
    assert same == link and hash(same) == hash(link) and other != link
    assert hash(link) == hash((3, 6, 7, 2.0, utility, 1.5, 4.0))
    assert Link(1, 0, 1) == Link(id=1, sender=0, receiver=1, threshold=None)
    copy = pickle.loads(pickle.dumps(link))
    assert copy == link and hash(copy) == hash(link) and copy.utility == utility
    assert vars(copy) == vars(link)


def test_cached_pair_matrix_leaves_equality_hash_replace_and_pickle_alone():
    inst = gen_random(GenConfig(n=20, seed=6))
    twin = dataclasses.replace(inst)

    def observed():
        return inst == twin, twin == inst, hash(inst), pickle.dumps(inst)

    before = observed()
    solution = solve_unlimited(inst)
    assert verify_solution(inst, solution) == []
    assert "_cross_alpha" in vars(inst) and "_geometry_alpha" in vars(inst)
    assert observed() == before
    copy = dataclasses.replace(inst)
    loaded = pickle.loads(pickle.dumps(inst))
    for other in (copy, loaded):
        assert "_cross_alpha" not in vars(other) and "_geometry_alpha" not in vars(other)
        assert other.to_dict() == inst.to_dict()
        assert solve_unlimited(other) == solution
        assert verify_solution(other, solution) == []
        for name in ("_cross_alpha", "_geometry_alpha"):
            assert vars(other)[name].tobytes() == vars(inst)[name].tobytes()
    assert copy == inst and hash(copy) == hash(inst)



@pytest.mark.parametrize("kind", ["euclidean", "matrix"])
def test_copies_of_an_instance_stay_read_only(kind):
    inst = gen_random(GenConfig(n=20, seed=1))
    if kind == "matrix":
        n = inst.metric.n_points
        d = inst.metric.distances(np.arange(n)[:, None], np.arange(n)[None, :])
        inst = dataclasses.replace(inst, metric=MetricSpace.from_matrix(d, validate=False))
    solution = solve_unlimited(inst)
    limited = solve_limited(inst)
    checked = geometry(inst)
    assert "_cross_alpha" in vars(inst) and "_geometry_alpha" in vars(inst)
    for other in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst), copy.copy(inst)):
        metric = other.metric
        arrays = [other.senders, other.receivers, other.d_alpha, other.thresholds,
                  metric._coords if kind == "euclidean" else metric._matrix]
        assert "_cross_alpha" not in vars(other) and "_geometry_alpha" not in vars(other)
        assert other == inst and hash(other) == hash(inst) and metric == inst.metric
        assert solve_unlimited(other) == solution and solve_limited(other) == limited
        assert geometry(other).cross_alpha.tobytes() == checked.cross_alpha.tobytes()
        arrays += [vars(other)["_cross_alpha"], vars(other)["_geometry_alpha"]]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

def test_length_is_the_metric_distance():
    metric = MetricSpace.euclidean([[0.1, 0.7], [3.3, -1.9], [2.0, 2.0]])
    links = (Link(id=4, sender=0, receiver=1), Link(id=9, sender=2, receiver=0))
    inst = Instance(metric=metric, alpha=3.0, noise=1.0, links=links)
    for link in links:
        assert inst.length(link.id) == metric.distance(link.sender, link.receiver)
    with pytest.raises(KeyError, match="no link with id 5"):
        inst.length(5)


@pytest.mark.parametrize("sender,receiver", [(3, -1), (-2, 0), (1, 4), (4, 0)])
def test_instance_rejects_a_node_outside_the_metric(sender, receiver):
    # numpy would wrap a negative index to a real node without the check
    metric = MetricSpace.euclidean([[0.0], [1.0], [3.0], [7.0]])
    links = (Link(id=0, sender=0, receiver=1), Link(id=1, sender=sender, receiver=receiver))
    with pytest.raises(IndexError, match=rf"\({sender}, {receiver}\) with 4 nodes"):
        Instance(metric=metric, alpha=2.0, noise=1.0, links=links)
    with pytest.raises(IndexError, match=rf"\({sender}, {receiver}\)"):
        metric.distance(sender, receiver)


@pytest.mark.parametrize("length", [0.0, 1e-150])
def test_instance_rejects_a_link_whose_d_alpha_is_zero(length):
    # 1e-150 ** 3 underflows to 0, which no sensitivity or SINR survives
    metric = MetricSpace.euclidean([[1.0], [2.0], [0.0], [length]])
    links = (Link(id=0, sender=0, receiver=1), Link(id=7, sender=2, receiver=3))
    with pytest.raises(ValueError, match="link 7: sender-receiver distance\\^alpha must be > 0"):
        Instance(metric=metric, alpha=3.0, noise=1.0, links=links)


@pytest.mark.parametrize("length, alpha, shown", [(100.0, 400.0, "100"), (1e200, 1.0, "inf")])
def test_instance_rejects_a_link_whose_d_alpha_overflows(length, alpha, shown):
    # 100 ** 400 overflows, and so does the square of a 1e200 length
    metric = MetricSpace.euclidean([[1.0], [2.0], [0.0], [length]])
    links = (Link(id=0, sender=0, receiver=1), Link(id=7, sender=2, receiver=3))
    with pytest.raises(ValueError) as caught:
        Instance(metric=metric, alpha=alpha, noise=1.0, links=links)
    assert str(caught.value) == (
        f"link 7: sender-receiver distance^alpha must be finite (distance {shown}, alpha {alpha:g})"
    )


def test_instance_rejects_a_link_whose_sensitivity_overflows():
    # finite thresholds and d^alpha = 1e20, but 1e300 * 1e20 overflows
    with pytest.raises(ValueError) as caught:
        gen_line([(0, 1e10, 1e300), (10, 1e10 + 10, 1e300)], alpha=2, noise=1.0)
    assert str(caught.value) == (
        "link 0: sensitivity threshold * distance^alpha must be finite "
        "(threshold 1e+300, distance^alpha 1e+20)"
    )


def _three_link_instance():
    return gen_line([(0, 1, 1), (4, 5, 1), (9, 8, 1)], alpha=2, noise=0.1)


@given(lam=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_sinr_homogeneous_in_powers_and_noise(lam):
    inst = _three_link_instance()
    scaled = gen_line([(0, 1, 1), (4, 5, 1), (9, 8, 1)], alpha=2, noise=0.1 * lam)
    powers = {0: 1.0, 1: 0.7, 2: 0.3}
    scaled_powers = {k: v * lam for k, v in powers.items()}
    for target in (0, 1, 2):
        a = sinr(inst, [0, 1, 2], powers, target)
        b = sinr(scaled, [0, 1, 2], scaled_powers, target)
        assert b == pytest.approx(a, rel=1e-12)


def test_adding_zero_power_link_is_noop():
    inst = _three_link_instance()
    with_two = sinr(inst, [0, 1], {0: 1.0, 1: 0.7}, 0)
    with_three = sinr(inst, [0, 1, 2], {0: 1.0, 1: 0.7, 2: 0.0}, 0)
    assert with_three == with_two


def test_removing_interferer_never_decreases_sinr():
    inst = _three_link_instance()
    full = sinr(inst, [0, 1, 2], {0: 1.0, 1: 0.7, 2: 0.3}, 0)
    assert sinr(inst, [0, 1], {0: 1.0, 1: 0.7}, 0) >= full
    assert sinr(inst, [0, 2], {0: 1.0, 2: 0.3}, 0) >= full


@given(perm=st.permutations([0, 1, 2]))
@settings(max_examples=30, deadline=None)
def test_sensitivity_order_invariant_under_input_permutation(perm):
    inst = gen_line([(0, 1, 3), (4, 5, 2), (9, 8, 1)], alpha=2, noise=0.1)
    assert sensitivity_order(inst, list(perm)) == sensitivity_order(inst, [0, 1, 2])


def test_sensitivity_order_is_total_order():
    inst = gen_line([(0, 1, 3), (4, 5, 2), (9, 8, 1)], alpha=2, noise=0.1)
    order = sensitivity_order(inst)
    assert sorted(order) == [0, 1, 2]
    sens = [inst.link(i).threshold * inst.length(i) ** 2 for i in order]
    assert sens == sorted(sens, reverse=True)


def test_instance_json_round_trip():
    inst = gen_line([(0, 1, 2), (10, 11, 3)], alpha=2.5, noise=0.25, p_max=7.0)
    data = inst.to_dict()
    back = Instance.from_dict(json.loads(json.dumps(data)))
    assert back.to_dict() == data
    assert back.p_max == 7.0


def test_instance_json_infinite_cap():
    inst = gen_line([(0, 1, 2)], alpha=2, noise=0.1)
    data = inst.to_dict()
    assert data["p_max"] == "inf"
    assert Instance.from_dict(data).p_max == math.inf


def _generated(case):
    step = {"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0}
    configs = {
        "step": GenConfig(n=30, seed=4, utility=step, demand_range=(1.0, 5.0), power="sqrt"),
        "shannon": GenConfig(n=30, seed=5, utility={"family": "shannon"},
                             demand_range=(0.5, 2.0), p_max=1e5, power=7.5),
        "matrix": GenConfig(n=12, seed=6, utility=step, power="linear"),
        "sub-unit": GenConfig(n=30, seed=7, beta_range=(0.25, 4.0), allow_sub_unit=True,
                              power=2.0, p_max=1e3),
    }
    inst = gen_random(configs[case])
    if case == "matrix":
        nodes = np.arange(inst.metric.n_points)
        matrix = inst.metric.distances(nodes[:, None], nodes[None, :])
        inst = dataclasses.replace(inst, metric=MetricSpace.from_matrix(matrix))
    return inst


@pytest.mark.parametrize("case", ["step", "shannon", "matrix", "sub-unit"])
def test_generated_instance_json_round_trip_is_byte_identical(case):
    inst = _generated(case)
    text = json.dumps(inst.to_dict(), sort_keys=True)
    back = Instance.from_dict(json.loads(text))
    assert json.dumps(back.to_dict(), sort_keys=True) == text
    assert back.links == inst.links
    assert np.array_equal(back.d_alpha, inst.d_alpha)


def _exact(value):
    """value with its types and, for a float, its bits spelled out, so that
    == compares bit for bit (NaN included) and in dict and list order."""
    if isinstance(value, float):
        return "float", value.hex()
    if isinstance(value, dict):
        return "dict", [(_exact(k), _exact(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_exact(v) for v in value]
    return type(value).__name__, value


@st.composite
def solved(draw):
    """A capacity solver's output on a small random instance, dense areas
    (traces with inf loads) and uncapped, capped, zero and mixed fixed powers
    included."""
    inst = gen_random(GenConfig(
        n=draw(st.integers(min_value=0, max_value=12)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        area=draw(st.sampled_from([100.0, 300.0, 1000.0])),
        p_max=draw(st.sampled_from([math.inf, 1e2, 1.8e4])),
    ))
    solver = draw(st.sampled_from(["unlimited", "limited", "fixed"]))
    if solver == "unlimited":
        return solve_unlimited(inst)
    if solver == "limited":
        return solve_limited(inst)
    level = st.sampled_from([0.0, 1.0, 1e2, 1.8e4, 1e6])
    powers = {lid: draw(level) for lid in inst.link_ids}
    return solve_fixed(inst, powers=powers, warn_preconditions=False)


@given(sol=solved())
@settings(max_examples=200, deadline=None)
def test_solution_json_round_trip_is_bit_identical(sol):
    back = Solution.from_dict(json.loads(json.dumps(sol.to_dict(include_trace=True))))
    for field in dataclasses.fields(Solution):
        assert _exact(getattr(back, field.name)) == _exact(getattr(sol, field.name)), field.name


# (mode, utility, p_max, fixed power): every mode, and limited both capped
# and uncapped; Shannon utilities need a finite SINR cap, so they run only
# where the power is bounded
_STEP = {"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0}
_SHANNON = {"family": "shannon", "scale_range": (0.5, 2.0), "cutoff_range": (1.0, 4.0)}
_DEMAND_CASES = [
    ("unlimited", _STEP, math.inf, None),
    ("limited", _STEP, math.inf, None),
    ("limited", _STEP, 5e4, None),
    ("fixed", _STEP, 3e3, 3e3),
    ("limited", _SHANNON, 5e4, None),
    ("fixed", _SHANNON, 3e3, 3e3),
]


@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32),
    case=st.sampled_from(_DEMAND_CASES),
)
@settings(max_examples=100, deadline=None)
def test_flexible_run_and_schedule_json_round_trips_are_bit_identical(n, seed, case):
    mode, utility, p_max, power = case
    inst = gen_random(GenConfig(
        n=n, seed=seed, area=400.0, d_range=(1.0, 40.0), beta_range=(1.0, 2.0),
        utility=utility, demand_range=(0.5, 3.0), p_max=p_max, power=power,
    ))
    run = solve_flexible(inst, mode=mode)
    with mock.patch.object(latency, "_run_scheme", wraps=latency._run_scheme) as spy:
        schedule = solve_latency(inst, mode=mode)
    for x, check in ((run, verify_flexible_run), (schedule, verify_schedule)):
        data = x.to_dict(include_trace=True)
        back = json.loads(json.dumps(data))
        assert _exact(back) == _exact(data)
        assert check(inst, back) == []

    for level in run.levels:
        sol = level.solution
        values = tuple(inst.link(lid).utility.value(sol.sinr[lid]) for lid in sol.selected)
        assert _exact(level.values) == _exact(values)
        assert _exact(level.objective) == _exact(float_sum(values))
    # each slot's values are its links' scheme utilities, capped at the
    # residuals the slot started from, at the slot's SINRs
    scheme_utils = {call.args[1]: call.args[4] for call in spy.call_args_list}
    for scheme, scheme_run in schedule.runs.items():
        residual = dict(scheme_run.demands)
        for slot in scheme_run.slots:
            sol = slot.solution
            values = tuple(
                CappedUtility(scheme_utils[scheme][lid], residual[lid]).value(sol.sinr[lid])
                for lid in sol.selected
            )
            assert _exact(slot.level.values) == _exact(values)
            assert _exact(slot.utility) == _exact(float_sum(values))
            residual.update(slot.residuals)


def _three_links():
    return {
        "alpha": 2.0,
        "noise": 1.0,
        "metric": {"type": "euclidean", "dim": 1,
                   "points": [[0.0], [1.0], [10.0], [11.0], [20.0], [21.0]]},
        "links": [
            {"id": 0, "s": 0, "r": 1, "beta": 1.0, "power": 2.0},
            {"id": 1, "s": 2, "r": 3, "beta": 2.0, "demand": 1.0,
             "utility": {"type": "step", "steps": [[1.0, 1.0]]}},
            {"id": 2, "s": 4, "r": 5},
        ],
    }


def _edited(*edits):
    data = _three_links()
    for path, value in edits:
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return data


# Inputs with two or more faults: the message pins which fault is reported.
SEVERAL_FAULTS = [
    ([(["links", 0, "beta"], "x"), (["links", 1, "s"], None)],
     "links[0].beta must be a number, got a string"),
    ([(["links", 0, "id"], 1.5), (["links", 0, "s"], "0")],
     "links[0].s must be an integer, got a string"),
    ([(["links", 0, "id"], True), (["links", 0, "beta"], "x")],
     "links[0].id must be an integer, got a boolean"),
    ([(["links", 1, "demand"], [1]), (["links", 1, "power"], "p")],
     "links[1].demand must be a number, got a list"),
    ([(["links", 1, "utility"], 3), (["links", 1, "id"], None)],
     "links[1].utility must be an object, got int"),
    ([(["links", 0, "r"], 99), (["links", 0, "s"], None)],
     "links[0].s must be an integer, got null"),
    ([(["links", 0, "s"], 99), (["links", 0, "r"], -1)],
     "links[0].s: node 99 is not in the metric"),
    ([(["links", 0, "beta"], math.nan), (["links", 1, "id"], "1")],
     "link 0: threshold must be finite"),
    ([(["links", 0, "demand"], math.inf), (["links", 0, "power"], "x")],
     "links[0].power must be a number, got a string"),
    ([(["links", 0, "r"], 0), (["links", 0, "power"], -1.0)],
     "link 0: sender and receiver coincide"),
    ([(["links", 0, "beta"], 0.5), (["links", 2, "id"], "2")],
     "links[2].id must be an integer, got a string"),
    ([(["links", 0, "beta"], 0.5), (["metric", "points", 5], [20.0])],
     "link 0: threshold 0.5 < 1 (set allow_sub_unit_threshold to permit)"),
    ([(["links", 2, "beta"], 0.5), (["metric", "points", 5], [20.0])],
     "link 2: sender-receiver distance^alpha must be > 0 (distance 0, alpha 2)"),
    ([(["links", 1, "beta"], 0.5), (["links", 2, "id"], 0), (["metric", "points", 5], [20.0])],
     "link 0 appears more than once"),
    ([(["links", 0, "s"], "0"), (["alpha"], "2")],
     "links[0].s must be an integer, got a string"),
    ([(["allow_sub_unit_threshold"], "x"), (["alpha"], "2")],
     "allow_sub_unit_threshold must be a boolean, got a string"),
    ([(["links", 0, "utility"], {"type": "step"}), (["links", 0, "id"], 0.0)],
     "links[0].utility: missing field 'steps'"),
    ([(["links", 0, "utility"], {"type": "step", "steps": ["12"]}), (["links", 0, "id"], 0.0)],
     "links[0].utility: steps[0] must be a [gamma, value] pair, got a string"),
    ([(["links", 0, "utility"], {"type": "step", "steps": [[1, 2], [3, True]]})],
     "links[0].utility: steps[1][1] must be a number, got a boolean"),
    ([(["links", 0, "utility"], {"type": "step", "steps": [[1, 2, 3]]})],
     "links[0].utility: steps[0] must be a [gamma, value] pair, got 3 entries"),
    ([(["links", 0, "utility"], {"type": "step", "steps": "12"})],
     "links[0].utility: steps must be a list, got a string"),
    ([(["links", 1, "utility"], {"type": "shannon", "scale": "2", "cutoff": True})],
     "links[1].utility: scale must be a number, got a string"),
    ([(["links", 1, "utility"], {"type": "shannon", "scale": 2, "cutoff": True})],
     "links[1].utility: cutoff must be a number, got a boolean"),
    ([(["links", 1, "utility"], {"type": "shannon", "scale": None})],
     "links[1].utility: scale must be a number, got null"),
    ([(["links", 0, "utility"], {"type": "step", "steps": [[10**400, 1]]})],
     "links[0].utility: steps[0][0] is too large for a float"),
    ([(["links", 0, "r"], 1.0), (["links", 0, "beta"], "x")],
     "links[0].r must be an integer, got float"),
]


# Explicit ids, frozen at the names these cases had when pytest derived them
# from the expected messages: editing a message no longer renames its case.
SEVERAL_FAULT_IDS = [
    "edits0-links[0].beta must be a number, got a string",
    "edits1-links[0].s must be an integer, got a string",
    "edits2-links[0].id must be an integer, got a boolean",
    "edits3-links[1].demand must be a number, got a list",
    "edits4-links[1].utility must be an object, got int",
    "edits5-links[0].s must be an integer, got null",
    "edits6-links[0].s: node 99 is not in the metric",
    "edits7-link 0: threshold must be finite",
    "edits8-links[0].power must be a number, got a string",
    "edits9-link 0: sender and receiver coincide",
    "edits10-links[2].id must be an integer, got a string",
    "edits11-link 0: threshold 0.5 < 1 (set allow_sub_unit_threshold to permit)",
    "edits12-link 2: sender-receiver distance^alpha must be > 0 (distance 0, alpha 2)",
    "edits13-link 0 appears more than once",
    "edits14-links[0].s must be an integer, got a string",
    "edits15-allow_sub_unit_threshold must be a boolean, got a string",
    "edits16-links[0].utility: missing field 'steps'",
    "edits17-links[0].utility: steps[0] must be a [gamma, value] pair, got a string",
    "edits18-links[0].utility: steps[1][1] must be a number, got a boolean",
    "edits19-links[0].utility: steps[0] must be a [gamma, value] pair, got 3 entries",
    "edits20-links[0].utility: steps must be a list, got a string",
    "edits21-links[1].utility: scale must be a number, got a string",
    "edits22-links[1].utility: cutoff must be a number, got a boolean",
    "edits23-links[1].utility: scale must be a number, got null",
    "edits24-links[0].utility: steps[0][0] is too large for a float",
    "edits25-links[0].r must be an integer, got float",
]


@pytest.mark.parametrize("edits,message", SEVERAL_FAULTS, ids=SEVERAL_FAULT_IDS)
def test_first_of_several_faults_is_reported(edits, message):
    with pytest.raises(ValueError) as caught:
        Instance.from_dict(_edited(*edits))
    assert str(caught.value) == message


def test_evaluate_sinrs_matches_pointwise():
    # received strength p / d^alpha summed one sender at a time
    inst = _three_link_instance()
    powers = {0: 1.0, 1: 0.7, 2: 0.3}
    batch = evaluate_sinrs(inst, [0, 1, 2], powers)
    for target in (0, 1, 2):
        receiver = inst.link(target).receiver
        received = {
            lid: powers[lid] / inst.metric.distance(inst.link(lid).sender, receiver) ** 2
            for lid in (0, 1, 2)
        }
        interference = sum(v for lid, v in received.items() if lid != target)
        want = received[target] / (interference + inst.noise)
        assert batch[target] == pytest.approx(want, rel=1e-12)


def test_every_exported_name_resolves():
    for name in sinrsched.__all__:
        assert hasattr(sinrsched, name), name


def _repeated_id_instance():
    step = {"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0}
    return sinrsched.gen_random(sinrsched.GenConfig(
        n=6, seed=1, utility=step, demand_range=(0.5, 3.0), p_max=1e6, power=1e5,
    ))


_WITNESS = {lid: 1.0 for lid in range(6)}

# every entry point that takes a list of link ids, each given one link twice
REPEATED_ID_CALLS = {
    "Instance": lambda inst: Instance(
        inst.metric, inst.alpha, inst.noise, inst.links + inst.links[3:4]
    ),
    "solve_unlimited": lambda inst: sinrsched.solve_unlimited(inst, [3, 3, 3]),
    "solve_fixed": lambda inst: sinrsched.solve_fixed(inst, [3, 0, 3, 1]),
    # silent, both copies miss the solo gate, which leaves them out of the
    # fixed pass's candidate arrays
    "solve_fixed_below_gate": lambda inst: sinrsched.solve_fixed(
        inst, [3, 0, 3, 1], powers={0: 1e5, 1: 1e5, 3: 0.0}
    ),
    "solve_limited": lambda inst: sinrsched.solve_limited(inst, [2, 3, 3]),
    # one copy of link 3 fits a quarter of the cap and the other does not,
    # so each branch of the split would see it once
    "solve_limited_split": lambda inst: sinrsched.solve_limited(
        inst, [3, 3], thresholds=np.array([1.0, 1e9])
    ),
    "solve_flexible": lambda inst: sinrsched.solve_flexible(inst, links=[3, 3, 3, 3]),
    "solve_latency": lambda inst: sinrsched.solve_latency(inst, links=[3, 3, 1]),
    "loose_length_bound": lambda inst: sinrsched.latency.loose_length_bound(inst, [1, 3, 3]),
    "schedule_lower_bound": lambda inst: sinrsched.latency.schedule_lower_bound(inst, [3, 3]),
    "evaluate_sinrs": lambda inst: evaluate_sinrs(inst, [3, 3], _WITNESS),
    "check_admissible": lambda inst: sinrsched.check_admissible(inst, [3, 0, 3]),
    "brute_opt_threshold": lambda inst: sinrsched.brute_opt_threshold(inst, links=[3, 4, 3]),
    "brute_opt_flexible_fixed": lambda inst: sinrsched.brute_opt_flexible_fixed(
        inst, links=[3, 3]
    ),
    "strengthen": lambda inst: sinrsched.strengthen(inst, [3, 3], _WITNESS, 1.0),
    "markov_survivors": lambda inst: sinrsched.markov_survivors(inst, [3, 3], _WITNESS),
    "reverse_dual": lambda inst: sinrsched.reverse_dual(inst, [3, 3], _WITNESS),
}


@pytest.mark.parametrize("name", REPEATED_ID_CALLS)
def test_repeated_link_id_is_rejected(name):
    # a repeated id counts as two interfering copies of one link, or twice
    # in a link count
    with pytest.raises(ValueError, match="^link 3 appears more than once$"):
        REPEATED_ID_CALLS[name](_repeated_id_instance())


@pytest.mark.parametrize("points, message", [
    pytest.param([[0, 0], [1, 2, 3]], "points have dimension 3, declared 2", id="ragged"),
    pytest.param([[0, 0], [1, [2]]], "metric.points[1][1] must be a number, got a list",
                 id="ragged-one-level-down"),
    pytest.param([[0, 0], [1, "a"]], "metric.points[1][1] must be a number, got a string",
                 id="string"),
    pytest.param([[0, 0], [1, {"x": 1}]], "metric.points[1][1] must be a number, got an object",
                 id="object"),
    ([[0, 0], [1, math.inf]], "coordinates must be finite"),
    ([[0, 0], [math.nan, 1]], "coordinates must be finite"),
    ([[0, 0], [-math.inf, 1]], "coordinates must be finite"),
    ([[0, 0, 0], [1, 2, 3]], "points have dimension 3, declared 2"),
    ([[0], [1]], "points have dimension 1, declared 2"),
    pytest.param([[0, 0], [1, None]], "metric.points[1][1] must be a number, got null",
                 id="null"),
    pytest.param([[[0], [1]], [[5], [3]]], "metric.points[0][0] must be a number, got a list",
                 id="nested-deeper"),
    pytest.param([[0, 0], [1, 10**400]], "metric.points[1][1] is too large for a float",
                 id="huge-int"),
    pytest.param([[0, 0], ["2", 1]], "metric.points[1][0] must be a number, got a string",
                 id="numeric-string"),
    pytest.param([[True, 0], [1, 1]], "metric.points[0][0] must be a number, got a boolean",
                 id="bool"),
    pytest.param([[0, 0], 7], "metric.points[1] must be a list, got int", id="bare-number"),
])
def test_bad_points_keep_their_messages(points, message):
    with pytest.raises(ValueError) as exc:
        MetricSpace.from_dict({"type": "euclidean", "dim": 2, "points": points})
    assert str(exc.value) == message


def test_numpy_coordinates_read_as_the_floats_they_hold():
    # numpy scalars are no JSON type, so they take the checked path
    data = _three_links()
    plain = json.dumps(Instance.from_dict(data).to_dict())
    data["metric"]["points"] = [[np.float64(x) for x in p] for p in data["metric"]["points"]]
    assert json.dumps(Instance.from_dict(data).to_dict()) == plain


@pytest.mark.parametrize("dim", [0, -1])
def test_declared_dim_below_one_is_bad_input(dim):
    with pytest.raises(ValueError, match="^metric.dim must be >= 1"):
        MetricSpace.from_dict({"type": "euclidean", "dim": dim, "points": []})


@pytest.mark.parametrize("points", [
    [[0.5, 1], [2, 3.25], [-4, 1e300]],
    [(0, 1), [2, 3]],  # tuples and lists
    [[True, 1], ["2.5", 3]],  # numpy converts bools and numeric strings
    [[1, 2, 3]],
    [1.0, 2.0],  # one point
    ["12", "34"],  # one point of two coordinates
    [[], []],
    [],
    np.arange(6.0).reshape(3, 2),
])
def test_points_convert_as_numpy_converts_them(points):
    want = np.atleast_2d(np.asarray(points, dtype=np.float64))
    coords = MetricSpace.euclidean(points)._coords
    if want.size == 0:
        assert coords.size == 0
    else:
        assert coords.tolist() == want.T.tolist()
