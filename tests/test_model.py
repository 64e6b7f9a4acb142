"""Core model: distances, SINR evaluation, sensitivity ordering, JSON."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sinrsched
from sinrsched import (
    Instance,
    Link,
    MetricSpace,
    evaluate_sinrs,
    gen_line,
    sensitivity_order,
)


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
