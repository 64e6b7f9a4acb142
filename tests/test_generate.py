"""Instance generators: determinism, invariants, line constructions."""

import json
import math

import pytest

from sinrsched import GenConfig, Instance, gen_line, gen_random


def test_empty_instance():
    inst = gen_random(GenConfig(n=0, seed=1))
    assert inst.links == ()


def test_single_unit_length_link():
    inst = gen_random(GenConfig(n=1, seed=2, d_range=(1.0, 1.0)))
    assert len(inst.links) == 1
    assert inst.length(0) == pytest.approx(1.0)


def test_same_seed_byte_identical():
    cfg = GenConfig(
        n=9,
        seed=77,
        utility={"family": "step", "steps": 3},
        demand_range=(0.5, 2.0),
    )
    a = json.dumps(gen_random(cfg).to_dict(), sort_keys=True)
    b = json.dumps(gen_random(cfg).to_dict(), sort_keys=True)
    assert a == b


def test_different_seeds_differ():
    a = gen_random(GenConfig(n=5, seed=1)).to_dict()
    b = gen_random(GenConfig(n=5, seed=2)).to_dict()
    assert a != b


def test_generated_instances_valid():
    for seed in range(5):
        cfg = GenConfig(n=10, seed=seed, d_range=(2.0, 50.0), beta_range=(1.0, 9.0))
        inst = gen_random(cfg)
        # re-validation through the constructor raises on any broken invariant
        Instance.from_dict(inst.to_dict())
        for link in inst.links:
            d = inst.length(link.id)
            assert 2.0 <= d <= 50.0 + 1e-9
            assert 1.0 <= link.threshold <= 9.0


def test_link_lengths_respect_ring():
    inst = gen_random(GenConfig(n=30, seed=3, d_range=(5.0, 6.0)))
    for link in inst.links:
        assert 5.0 - 1e-9 <= inst.length(link.id) <= 6.0 + 1e-9


def test_impossible_geometry_rejected():
    with pytest.raises(ValueError, match="impossible geometry"):
        GenConfig(n=1, seed=0, d_range=(5.0, 1.0))
    with pytest.raises(ValueError, match="seed"):
        GenConfig(n=1, seed=None)


def test_beta_set_draws_from_set():
    inst = gen_random(GenConfig(n=20, seed=4, beta_range=None, beta_set=(1.0, 2.0, 4.0)))
    assert {l.threshold for l in inst.links} <= {1.0, 2.0, 4.0}


def test_power_rules():
    for rule in ("linear", "sqrt", 3.5):
        inst = gen_random(GenConfig(n=4, seed=5, power=rule))
        for link in inst.links:
            sens = link.threshold * inst.length(link.id) ** inst.alpha
            if rule == "linear":
                assert link.fixed_power == pytest.approx(sens)
            elif rule == "sqrt":
                assert link.fixed_power == pytest.approx(math.sqrt(sens))
            else:
                assert link.fixed_power == 3.5


def test_gen_line_worked_geometry():
    inst = gen_line([(0, 1, 2), (10, 11, 2)], alpha=2, noise=0.1)
    assert inst.length(0) == 1.0
    assert inst.length(1) == 1.0
    assert inst.metric.distance(0, 3) == 11.0  # sender 0 to receiver of link 1


def test_gen_line_singleton():
    inst = gen_line([(0, 1, 1)])
    assert len(inst.links) == 1


def test_gen_line_rejects_loop():
    with pytest.raises(ValueError, match="coincide"):
        gen_line([(1, 1, 1)])
