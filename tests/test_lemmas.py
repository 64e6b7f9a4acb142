"""Constructive lemma procedures and the adversarial constructions."""

import hashlib
import json
import math

import pytest

from sinrsched import (
    AdmissibilityCertificate,
    CertificationError,
    GenConfig,
    Instance,
    Link,
    MetricSpace,
    aloha_instance,
    check_admissible,
    gen_greedy_adversary,
    gen_line,
    gen_random,
    markov_survivors,
    reverse_dual,
    simulate_aloha,
    solve_unlimited,
    strengthen,
)
from sinrsched import experiments, lemmas, model
from sinrsched.experiments import experiment_reverse, experiment_strengthen
from sinrsched.lemmas import PERTURB


def _certified_pair():
    # symmetric pair whose minimal power vector meets the thresholds exactly
    inst = gen_line([(0, 1, 1), (3, 2, 1)], alpha=2, noise=1e-6)
    cert = check_admissible(inst, [0, 1], cap=math.inf)
    assert cert.feasible
    return inst, cert.powers


def test_strengthen_singleton_single_part():
    inst = gen_line([(0, 1, 2)], alpha=2, noise=0.1)
    cert = check_admissible(inst, [0], cap=math.inf)
    deco = strengthen(inst, [0], cert.powers, c=3.0)
    assert deco.parts == ((0,),)


def test_strengthen_scale_one_certified():
    inst, powers = _certified_pair()
    deco = strengthen(inst, [0, 1], powers, c=1.0)
    assert set(sum(deco.parts, ())) == {0, 1}
    for part in deco.parts:
        assert check_admissible(inst, part, cap=math.inf).feasible


def test_strengthen_exact_pair_separates_at_scale_two():
    inst, powers = _certified_pair()
    deco = strengthen(inst, [0, 1], powers, c=2.0)
    assert deco.parts == ((0,), (1,))
    for part in deco.parts:
        cert = check_admissible(
            inst, part, cap=math.inf, thresholds={lid: 2.0 for lid in part}
        )
        assert cert.feasible


def test_strengthen_partition_and_bound():
    for seed in range(8):
        inst = gen_random(GenConfig(n=10, seed=900 + seed, beta_range=(1.0, 3.0)))
        sol = solve_unlimited(inst)
        if not sol.selected:
            continue
        for c in (1.0, 2.0, 3.0):
            deco = strengthen(inst, sol.selected, sol.powers, c)
            flat = sorted(sum(deco.parts, ()))
            assert flat == sorted(sol.selected)  # exact partition
            assert len(deco.parts) <= math.ceil(2 * c) ** 2


def test_strengthen_rejects_non_admissible_witness():
    inst = gen_line([(0, 1, 1), (3, 2, 1)], alpha=2, noise=1e-6)
    with pytest.raises(ValueError, match="not admissible"):
        strengthen(inst, [0, 1], {0: 1e-9, 1: 1e-9}, c=2.0)


@pytest.mark.parametrize("c", [0.5, math.nan])
def test_strengthen_rejects_a_scale_below_one(c):
    inst, powers = _certified_pair()
    with pytest.raises(ValueError, match="scale c must be >= 1"):
        strengthen(inst, [0, 1], powers, c=c)


def test_reverse_singleton():
    inst = gen_line([(0, 1, 2)], alpha=2, noise=0.1)
    cert = check_admissible(inst, [0], cap=math.inf)
    subset, fragment = reverse_dual(inst, [0], cert.powers)
    assert subset == (0,)
    rev = fragment.link(0)
    assert (rev.sender, rev.receiver) == (inst.link(0).receiver, inst.link(0).sender)
    assert check_admissible(fragment, subset, cap=math.inf).feasible


def test_reverse_symmetric_pair_survives_markov():
    inst, powers = _certified_pair()
    assert markov_survivors(inst, [0, 1], powers) == (0, 1)


def test_reverse_zero_witness_power_rejected():
    inst = gen_line([(0, 1, 1), (30, 31, 1)], alpha=2, noise=0.1)
    with pytest.raises(ValueError):
        reverse_dual(inst, [0, 1], {0: 0.0, 1: 1.0})


@pytest.mark.parametrize("procedure", [
    lambda inst, w: strengthen(inst, [0, 1], w, c=2.0),
    lambda inst, w: markov_survivors(inst, [0, 1], w),
    lambda inst, w: reverse_dual(inst, [0, 1], w),
], ids=["strengthen", "markov_survivors", "reverse_dual"])
def test_nan_witness_power_is_rejected(procedure):
    # NaN compares false both ways, so a `sinr < beta` check lets it through
    inst = gen_line([(0, 1, 1), (30, 31, 1)], alpha=2, noise=0.1)
    with pytest.raises(ValueError, match="not admissible under the witness powers: link 0 "):
        procedure(inst, {0: math.nan, 1: 1.0})


def test_strengthen_builds_one_geometry(monkeypatch):
    inst = gen_random(GenConfig(n=10, seed=935, beta_range=(1.0, 3.0)))
    sol = solve_unlimited(inst)
    calls = {"geometry": 0, "evaluate_sinrs": 0}

    def spy(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    # the oracle's own geometry, built to certify each part, is not counted
    geometry = spy("geometry", model.geometry)
    monkeypatch.setattr(model, "geometry", geometry)
    monkeypatch.setattr(lemmas, "geometry", geometry)
    evaluate = spy("evaluate_sinrs", model.evaluate_sinrs)
    monkeypatch.setattr(model, "evaluate_sinrs", evaluate)
    monkeypatch.setattr(lemmas, "evaluate_sinrs", evaluate, raising=False)
    deco = strengthen(inst, sol.selected, sol.powers, c=2.0)
    assert deco.parts == ((0, 4, 5, 7), (1,), (8,))  # first fit tried bins
    assert calls == {"geometry": 1, "evaluate_sinrs": 0}


def _report_digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]


# sha256 of each experiment's JSON report, recorded when every first-fit trial
# built its own geometry and the witness was checked link by link
@pytest.mark.parametrize("experiment, sets, seed, digest", [
    (experiment_strengthen, 60, 3, "1acbfb48bdbbecf3"),
    (experiment_strengthen, 100, 0, "a73ede5476832445"),
    (experiment_reverse, 60, 3, "d5983a29d23678c5"),
    (experiment_reverse, 100, 0, "76a9bb86a752812a"),
], ids=["strengthen-60-3", "strengthen-100-0", "reverse-60-3", "reverse-100-0"])
def test_lemma_experiment_rows_are_pinned(experiment, sets, seed, digest):
    report = experiment(sets, seed=seed)
    assert report["summary"]["violations"] == 0
    assert _report_digest(report) == digest


def test_strengthen_experiment_certifies_each_part_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return check_admissible(*args, **kwargs)

    monkeypatch.setattr(lemmas, "check_admissible", counted)
    monkeypatch.setattr(experiments, "check_admissible", counted)
    report = experiment_strengthen(60, seed=3)
    assert len(calls) == sum(row["parts"] for row in report["rows"]) == 194


def test_strengthen_experiment_counts_a_failed_certification(monkeypatch):
    def strengthen_failing_at_3(instance, selected, powers, c):
        if c == 3:
            raise CertificationError("decomposition part failed certification")
        return strengthen(instance, selected, powers, c)

    monkeypatch.setattr(experiments, "strengthen", strengthen_failing_at_3)
    report = experiment_strengthen(5, seed=3)
    failed = [row for row in report["rows"] if not row["certified"]]
    assert [row["c"] for row in failed] == [3] * 5
    assert all(row["parts"] == 0 for row in failed)
    assert report["summary"]["violations"] == 5


def test_reverse_on_harvested_sets():
    for seed in range(8):
        inst = gen_random(GenConfig(n=10, seed=950 + seed, beta_range=(1.0, 3.0)))
        sol = solve_unlimited(inst)
        if not sol.selected:
            continue
        subset, fragment = reverse_dual(inst, sol.selected, sol.powers)
        assert len(subset) >= max(1, len(sol.selected) // 72)
        assert check_admissible(fragment, subset, cap=math.inf).feasible


# -- the line constructions, built point by point as references ---------------

def _line_reference(points, k, alpha):
    links = [Link(id=i, sender=2 * i, receiver=2 * i + 1, threshold=1.0 / k)
             for i in range(len(points) // 2)]
    return Instance(metric=MetricSpace.euclidean(points, dim=1), alpha=alpha, noise=1e-9,
                    links=tuple(links), p_max=math.inf, allow_sub_unit_threshold=True)


def _reversed_points(k):
    return [p for j in range(1, k + 1) for p in ([1.0 + j * PERTURB], [-j * PERTURB])]


def _adversary_reference(k, alpha):
    return _line_reference([[0.0], [1.0]] + _reversed_points(k), k, alpha)


def _aloha_reference(k):
    forward = [p for i in range(k) for p in ([i * PERTURB], [1.0 - i * PERTURB])]
    return _line_reference(forward + _reversed_points(k), k, 2.0)


@pytest.mark.parametrize("alpha", [2.0, 3.0])
@pytest.mark.parametrize("k", [1, 2, 3, 8, 33])
def test_adversary_equals_point_by_point_construction(k, alpha):
    want = _adversary_reference(k, alpha).to_dict()
    assert gen_greedy_adversary(k, alpha=alpha).to_dict() == want


@pytest.mark.parametrize("k", [2, 4, 32])
def test_aloha_instance_equals_point_by_point_construction(k):
    assert aloha_instance(k).to_dict() == _aloha_reference(k).to_dict()


def test_adversary_k1():
    inst = gen_greedy_adversary(1)
    assert len(inst.links) == 2
    assert all(l.threshold == 1.0 for l in inst.links)


def test_adversary_k4_reversed_links_admissible():
    inst = gen_greedy_adversary(4)
    assert len(inst.links) == 5
    assert all(l.threshold == 0.25 for l in inst.links)
    cert = check_admissible(inst, [1, 2, 3, 4], cap=math.inf)
    assert cert.feasible
    # with the forward link added the set collapses
    assert not check_admissible(inst, [0, 1, 2, 3, 4], cap=math.inf).feasible


def test_adversary_k8_greedy_gap():
    inst = gen_greedy_adversary(8)
    sol = solve_unlimited(inst)
    assert sol.selected == (0,)  # greedy commits to the forward link
    cert = check_admissible(inst, list(range(1, 9)), cap=math.inf)
    assert cert.feasible
    assert 8 / len(sol.selected) >= 8


def test_aloha_rejects_bad_arguments():
    with pytest.raises(ValueError):
        simulate_aloha(32, trials=0)
    with pytest.raises(ValueError):
        simulate_aloha(3, trials=1)
    with pytest.raises(ValueError):
        simulate_aloha(4, probs=[1.5], trials=1)


def test_aloha_all_transmitting_always_collide():
    # k=2: both directions always transmit; every SINR stays far below 1/2,
    # nobody ever succeeds and the trial never finishes
    res = simulate_aloha(2, probs=[1.0], trials=3, seed=1, max_rounds=50)
    assert res.rounds == (math.inf, math.inf, math.inf)
    assert res.fraction_fast == 0.0


def test_aloha_single_side_succeeds_immediately():
    # probability 1 with only one link per side never helps, but with the
    # uniform policy and fixed seed the distribution is reproducible
    a = simulate_aloha(8, trials=10, seed=42)
    b = simulate_aloha(8, trials=10, seed=42)
    assert a.rounds == b.rounds
    assert a.threshold_rounds == 0.5


def test_aloha_empirical_bound_small():
    res = simulate_aloha(16, trials=40, seed=5)
    assert res.fraction_fast <= 0.5


def _rejecting_oracle(instance, subset, cap=None, thresholds=None):
    return AdmissibilityCertificate(False, None, 1)


def test_strengthen_uncertified_part_raises_named_error(monkeypatch):
    inst, powers = _certified_pair()
    monkeypatch.setattr(lemmas, "check_admissible", _rejecting_oracle)
    with pytest.raises(CertificationError, match="decomposition part"):
        strengthen(inst, [0, 1], powers, c=1.0)


def test_reverse_dual_uncertified_survivors_raise_named_error(monkeypatch):
    inst, powers = _certified_pair()
    monkeypatch.setattr(lemmas, "check_admissible", _rejecting_oracle)
    with pytest.raises(CertificationError, match="third-threshold"):
        reverse_dual(inst, [0, 1], powers)
