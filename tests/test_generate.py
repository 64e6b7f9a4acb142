"""Instance generators: determinism, invariants, line constructions."""

import hashlib
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrsched import GenConfig, Instance, gen_line, gen_random
from sinrsched.generate import _BLOCK, _link_seeds, _seed_words, _seeded

STEP = {"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0}
SHANNON = {"family": "shannon"}
TAGS = range(7)  # every field tag


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


@pytest.mark.parametrize("fields, name", [
    ({"d_range": (-5.0, -1.0), "alpha": 2.5, "power": "sqrt"}, "d_range"),
    ({"d_range": (1.0, math.nan)}, "d_range"),
    ({"d_range": (0.0, 0.0)}, "d_range"),
    ({"d_range": (1.0, math.inf)}, "d_range"),
    ({"noise": 0.0}, "noise"),
    ({"noise": math.nan}, "noise"),
    ({"alpha": -2.0}, "alpha"),
    ({"alpha": math.inf}, "alpha"),
    ({"area": math.nan}, "area"),
    ({"area": math.inf}, "area"),
    ({"beta_range": (1.0, math.inf)}, "beta_range"),
    ({"beta_range": (math.nan, 10.0)}, "beta_range"),
    ({"beta_range": None, "beta_set": (1.0, math.inf)}, "beta_set"),
    ({"beta_range": None, "beta_set": (2.0, math.nan)}, "beta_set"),
    ({"utility": STEP, "demand_range": (math.nan, 1.0)}, "demand_range"),
    ({"utility": STEP, "demand_range": (0.5, math.inf)}, "demand_range"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -1}, "seed"),
    ({"n": 2.5}, "n must"),
], ids=["negative-lengths", "nan-length", "zero-lengths", "infinite-length", "zero-noise",
        "nan-noise", "negative-alpha", "infinite-alpha", "nan-area", "infinite-area",
        "infinite-beta", "nan-beta", "infinite-beta-set", "nan-beta-set", "nan-demand",
        "infinite-demand", "float-seed", "negative-seed", "float-n"])
def test_bad_lengths_noise_and_alpha_are_value_errors(fields, name):
    with pytest.raises(ValueError, match=name):
        gen_random(GenConfig(**{"n": 2, "seed": 1, **fields}))


def test_numpy_integer_seed_and_n_are_the_same_integers():
    a = gen_random(GenConfig(n=np.int64(4), seed=np.uint64(2**40 + 9)))
    assert a.to_dict() == gen_random(GenConfig(n=4, seed=2**40 + 9)).to_dict()


# sha256 of json.dumps(gen_random(config).to_dict(), sort_keys=True), recorded
# with one numpy SeedSequence generator per (link, tag); one case per draw
# path, and n=1100 spans two seeding blocks
PINNED = {
    "beta-range": (dict(n=12, seed=3),
                   "03c92d89b9b9ac596a3f9639d3533039dd3d45b849351bd4cf4da44b2c0a0801"),
    "beta-set": (dict(n=12, seed=4, beta_range=None, beta_set=(1.0, 2.0, 4.0, 8.0)),
                 "684c4c6d732fa8ebeec270777a3bb178bdd4aceb06f4a2445925a263361624f3"),
    "step-demands": (dict(n=10, seed=5, utility=STEP, demand_range=(0.5, 3.0)),
                     "47ab9b3f8d0cf494b356b2f49610ddb65109ac4efe3b42590099b6781eeef64e"),
    "shannon-demands": (dict(n=10, seed=6, utility=SHANNON, demand_range=(0.5, 2.0), p_max=1e6),
                        "923fcf16d8855badc37b5263490114dc4734e866200cd7e554828ea59aa07080"),
    "power-float": (dict(n=6, seed=7, power=3.5),
                    "d885de6502a5107f071792f122f184575f9bbc438ce9d3e4757a813d4dae0d83"),
    "power-linear": (dict(n=6, seed=8, power="linear"),
                     "bf068e11e5c53f396789d042c7bc6f8e5f6411b4bcd0e6945feef71e8b1bdfcb"),
    "power-sqrt": (dict(n=6, seed=9, power="sqrt", alpha=3.0),
                   "f9d7b48ab33980435552e3cf478841bde0c93deacaa086b59612e66b038ff0ee"),
    "dim-1": (dict(n=8, seed=10, dim=1),
              "eb97d50ee19fd3a290c7d274062d42d9c5b8b7000a51f9d29e525ad032eb8665"),
    "dim-3": (dict(n=8, seed=11, dim=3, d_range=(2.0, 40.0)),
              "8ee6a9f1bf13c63249200921fa5f70aee9ff6f5e5fd8cff35ad725b2514d1799"),
    "seed-2^32": (dict(n=5, seed=2**32),
                  "360858c8351feee20eb5c5e2575d6ec2725b08e4d461edbcbe9ea6d3c2fa4e73"),
    "seed-2^100+3": (dict(n=5, seed=2**100 + 3, utility=STEP),
                     "44bfa1bc9df14b229b24c9ec059ad1a86342f157e188b96f8fd434662055a1d7"),
    "n-0": (dict(n=0, seed=12),
            "fa999ecf8887f6945f83b14c3581ee8c37ce0692784ad51c53ae6d5724a7d5f1"),
    "n-1": (dict(n=1, seed=13, utility=SHANNON),
            "50a1d97a5e786c6dbdef0d52e241a14a0a7fa4d2fc3aade5639fe4691bb9679e"),
    "n-1100": (dict(n=1100, seed=14, area=2000.0),
               "7af9d8f6f47f52532c5f3581d239afcddd3df424a3718c6d2ebf151a638a4af4"),
}


def _digest(config: GenConfig) -> str:
    return hashlib.sha256(json.dumps(gen_random(config).to_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", PINNED)
def test_generated_bytes_are_pinned(name):
    fields, digest = PINNED[name]
    assert _digest(GenConfig(**fields)) == digest


def _numpy_state(seed, i, tag):
    return np.random.PCG64(np.random.SeedSequence([seed, i, tag])).state


def _array_state(words):
    return _seeded(np.random.Generator(np.random.PCG64(0)), words).bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 5 * 1_000_003 * 1000, 2**64 + 5,
                                  2**100 + 3])
def test_array_seeding_equals_numpy_seed_sequence(seed):
    # seeds of 1 to 5 entropy words, and the links on both sides of a block edge
    for i, seeds in enumerate(_link_seeds(seed, _BLOCK + 3, TAGS)):
        if i < 3 or i >= _BLOCK - 3:
            for tag in TAGS:
                assert _array_state(seeds[tag]) == _numpy_state(seed, i, tag), (i, tag)


@given(seed=st.integers(0, 2**160), i=st.integers(0, 2**32 - 1), tag=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_array_seeding_property(seed, i, tag):
    words = _seed_words(seed, range(i, i + 1), [tag])
    assert words.shape == (1, 1, 4)
    assert _array_state(words[0, 0].tolist()) == _numpy_state(seed, i, tag)


def test_seeding_builds_no_generator_per_link(monkeypatch):
    built = []

    def counting(cls):
        def make(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)
        return make

    for name in ("SeedSequence", "default_rng", "Generator", "PCG64"):
        monkeypatch.setattr(np.random, name, counting(getattr(np.random, name)))
    config = GenConfig(n=2000, seed=100_000, utility=STEP, demand_range=(0.5, 2.0))
    made = []
    # a fresh thread, so that its one reused generator is built inside the count
    worker = threading.Thread(target=lambda: made.append(gen_random(config)))
    worker.start()
    worker.join()
    made.append(gen_random(config))
    assert [len(inst.links) for inst in made] == [2000, 2000]
    assert len(built) <= 4, built


def test_threads_generate_the_same_bytes():
    configs = [GenConfig(n=300, seed=s, utility=STEP, demand_range=(0.5, 2.0)) for s in range(4)]
    expected = [_digest(c) for c in configs]
    got = [None] * len(configs)

    def work(k):
        for _ in range(3):
            got[k] = _digest(configs[k])

    workers = [threading.Thread(target=work, args=(k,)) for k in range(len(configs))]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert got == expected


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
