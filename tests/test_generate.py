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
from sinrsched import generate
from sinrsched.generate import _BLOCK, MAX_DIM, _seed_words, _seeded, _span, _uniform_draws

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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_shortest_accepted_lengths_stay_in_range(dim):
    # area * 2^-30, the shortest length GenConfig accepts, comes out within
    # 2^-20 of itself: a coordinate keeps 22 of its 52 bits for the length
    d = 1000.0 * 2.0**-30
    inst = gen_random(GenConfig(n=200, seed=1, area=1000.0, d_range=(d, d), dim=dim))
    assert max(abs(inst.length(lid) / d - 1.0) for lid in inst.link_ids) < 2.0**-20


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
    # a config is valid or invalid whatever its n, and names the bad field
    ({"n": 0, "demand_range": (1.0, 2.0)}, "demand_range"),
    ({"n": 0, "utility": {"family": "bogus"}}, "'family'"),
    ({"n": 0, "utility": {"family": "step", "steps": 0}}, "'steps'"),
    ({"n": 0, "power": "bogus"}, "power"),
    ({"n": 0, "power": -1.0}, "power"),
    ({"n": 0, "power": math.inf}, "power"),
    ({"n": 0, "power": True}, "power"),
    ({"utility": {"family": "step", "gamma_max": 0.5}}, "'gamma_max'"),
    ({"utility": {"family": "step", "value_max": -1.0}}, "'value_max'"),
    # spans of width -0.0 (0.0 to -0.0), which Generator.uniform rejects
    ({"n": 0, "utility": {"family": "step", "value_max": -0.0}}, "'value_max'"),
    ({"n": 0, "utility": STEP, "demand_range": (0.0, -0.0)}, "demand_range"),
    ({"utility": {"family": "step", "steps": 10**12}}, "'steps'"),
    ({"utility": {"family": "step", "steps": 10_001}}, "'steps'"),
    ({"utility": {"family": "shannon", "scale_range": (2.0, 1.0)}}, "'scale_range'"),
    ({"utility": {"family": "shannon", "scale_range": (0.0, 1.0)}}, "'scale_range'"),
    ({"utility": {"family": "shannon", "cutoff_range": (0.5, 2.0)}}, "'cutoff_range'"),
    ({"utility": {"family": "shannon"}, "demand_range": (1.0, 2.0)}, "p_max"),
    ({"n": 0, "utility": STEP, "demand_range": (-2.0, -1.0)}, "demand_range"),
    ({"n": 0, "utility": STEP, "demand_range": (2.0, 1.0)}, "demand_range"),
    ({"n": 0, "beta_range": (3.0, 2.0)}, "beta_range"),
    ({"n": 0, "beta_range": None, "beta_set": ()}, "beta_set"),
    ({"n": 0, "dim": 0}, "dim"),
    ({"n": 0, "dim": -1}, "dim"),
    ({"n": 0, "dim": 1.5}, "dim"),
    ({"n": 0, "dim": True}, "dim"),
    ({"n": 0, "dim": MAX_DIM + 1}, "dim"),
    ({"dim": 10**10}, "dim"),
    ({"beta_range": (-1e308, 1e308), "allow_sub_unit": True}, "beta_range"),
    ({"n": 0, "beta_range": (-2.0, -1.0), "allow_sub_unit": True}, "beta_range"),
    ({"beta_range": (0.0, 1.0), "allow_sub_unit": True}, "beta_range"),
    ({"beta_range": (-2.0, -1.0)}, "beta_range"),
    ({"beta_range": None, "beta_set": (0.5, 0.0), "allow_sub_unit": True}, "beta_set"),
    ({"beta_range": None, "beta_set": (2.0, -1.0), "allow_sub_unit": True}, "beta_set"),
    # the longest link's d^alpha, and its square, must be floats
    ({"alpha": 400.0}, "d_range"),
    ({"area": 1e308, "d_range": (1.0, 1e308)}, "d_range"),
    ({"n": 0, "area": 1e300, "d_range": (1.0, 1e200), "alpha": 1.0}, "d_range"),
    # a length below the coordinates' resolution rounds away, whatever n is
    ({"d_range": (1e-20, 1e-20)}, "d_range"),
    ({"n": 0, "d_range": (1e-20, 1e-20)}, "d_range"),
    ({"d_range": (1e-13, 1e-13)}, "d_range"),
    ({"area": 1e9, "d_range": (0.5, 2.0)}, "d_range"),
    # a field of the wrong type, or an int beyond float range, is named too
    ({"area": "10"}, "area"),
    ({"d_range": ("a", 2.0)}, "d_range"),
    ({"noise": 10**400}, "noise"),
    ({"alpha": [2.0]}, "alpha"),
    ({"beta_range": None, "beta_set": (1.0, "2")}, "beta_set"),
    ({"utility": STEP, "demand_range": (1.0, None)}, "demand_range"),
    ({"n": 0, "power": 10**400}, "power"),
], ids=["negative-lengths", "nan-length", "zero-lengths", "infinite-length", "zero-noise",
        "nan-noise", "negative-alpha", "infinite-alpha", "nan-area", "infinite-area",
        "infinite-beta", "nan-beta", "infinite-beta-set", "nan-beta-set", "nan-demand",
        "infinite-demand", "float-seed", "negative-seed", "float-n",
        "empty-demands-without-utility", "empty-unknown-family", "empty-zero-steps",
        "empty-unknown-power", "empty-negative-power", "empty-infinite-power", "empty-bool-power",
        "gamma-max-below-one", "negative-value-max", "empty-minus-zero-value-max",
        "empty-minus-zero-demand-width", "huge-steps", "steps-over-max",
        "reversed-scale-range", "zero-scale", "cutoff-below-one", "shannon-demands-uncapped",
        "empty-negative-demands", "empty-reversed-demands", "empty-reversed-beta",
        "empty-beta-set", "empty-zero-dim", "empty-negative-dim", "empty-float-dim",
        "empty-bool-dim", "empty-dim-over-max", "huge-dim", "beta-range-overflowing-span",
        "empty-negative-beta-range", "zero-beta", "negative-beta-without-sub-unit",
        "zero-beta-in-set", "negative-beta-in-set", "overflowing-d-alpha", "overflowing-lengths",
        "empty-overflowing-squares", "unresolved-lengths", "empty-unresolved-lengths",
        "rounded-lengths", "short-for-the-area", "string-area", "string-length", "huge-noise",
        "list-alpha", "string-in-beta-set", "null-demand", "empty-huge-power"])
def test_bad_lengths_noise_and_alpha_are_value_errors(fields, name):
    with pytest.raises(ValueError, match=name):
        gen_random(GenConfig(**{"n": 2, "seed": 1, **fields}))


def test_numpy_integer_seed_and_n_are_the_same_integers():
    a = gen_random(GenConfig(n=np.int64(4), seed=np.uint64(2**40 + 9)))
    assert a.to_dict() == gen_random(GenConfig(n=4, seed=2**40 + 9)).to_dict()


# sha256 of json.dumps(gen_random(config).to_dict(), sort_keys=True), recorded
# with one numpy SeedSequence generator per (link, tag); one case per draw
# path, and the n-1100 cases span two seeding blocks
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
    # each further draw path across a block edge
    "n-1100-step-demands": (
        dict(n=1100, seed=15, area=2000.0, utility=STEP, demand_range=(0.5, 3.0)),
        "f38f24c849fab553311b644b4e239723f9cbf42dd8c6b5f55ef111e961c0c0ea"),
    "n-1100-shannon-demands": (
        dict(n=1100, seed=16, area=2000.0, utility=SHANNON, demand_range=(0.5, 2.0), p_max=1e6),
        "97dcf4bec7c9dc2954e727cad746d3719626c4570e26013221910384e3e550b5"),
    "n-1100-power-linear": (
        dict(n=1100, seed=17, area=2000.0, power="linear"),
        "e0de810feba5932169031b18931866678ba0ee0d61648b02b34ec678a841ede5"),
    "n-1100-beta-set": (
        dict(n=1100, seed=18, area=2000.0, beta_range=None, beta_set=(1.0, 2.0, 4.0, 8.0)),
        "86cd186006684813064c60cd028af61a6a27e2b47cf4b202aea930685a784860"),
    "n-1100-dim-3": (
        dict(n=1100, seed=19, area=2000.0, dim=3, d_range=(2.0, 40.0)),
        "66931c777db898126ddd51736761613c0eca6dbe12dbde9349d4e3392923fb3e"),
    # 405 draws a link: the block shrinks to 161 links, and n=200 crosses its edge
    "many-steps": (
        dict(n=200, seed=20, utility={**STEP, "steps": 200}, demand_range=(0.5, 3.0)),
        "f0bc19e55e97e5ceb7c9ed9098f1942e921e6d1169da2eca88cbd3643d2f27d8"),
}


def _digest(config: GenConfig) -> str:
    return hashlib.sha256(json.dumps(gen_random(config).to_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", PINNED)
def test_generated_bytes_are_pinned(name):
    fields, digest = PINNED[name]
    assert _digest(GenConfig(**fields)) == digest


NUMPY_UTILITIES = [
    (STEP, {"family": "step", "steps": np.int64(3), "gamma_max": np.float32(32.0),
            "value_max": np.int8(2)}),
    ({"family": "shannon", "scale_range": (0.5, 2.0), "cutoff_range": [1, 4.0]},
     {"family": "shannon", "scale_range": (np.float16(0.5), np.float64(2.0)),
      "cutoff_range": [np.uint8(1), np.longdouble(4.0)]}),
]


def test_numpy_utility_parameters_build_the_same_instance():
    config = dict(n=10, seed=5, demand_range=(0.5, 2.0), p_max=1e6)
    for params, numpy_params in NUMPY_UTILITIES:
        want = gen_random(GenConfig(utility=params, **config))
        got = gen_random(GenConfig(utility=numpy_params, **config))
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        # the instance file reads back to equal utility objects
        assert Instance.from_dict(got.to_dict()).links == got.links
    with pytest.raises(ValueError, match="utility field 'value_max' must be a number"):
        GenConfig(n=1, seed=1, utility={"value_max": np.bool_(True)})


def _numpy_state(seed, i, tag):
    return np.random.PCG64(np.random.SeedSequence([seed, i, tag])).state


def _array_state(words):
    return _seeded(np.random.Generator(np.random.PCG64(0)), words).bit_generator.state


def _blocks(seed, n, tags):
    """Each block's first link and seed words, seeded as gen_random seeds
    them, _BLOCK links at a time."""
    return [(start, _seed_words(seed, range(start, min(start + _BLOCK, n)), tags))
            for start in range(0, n, _BLOCK)]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 5 * 1_000_003 * 1000, 2**64 + 5,
                                  2**100 + 3])
def test_array_seeding_equals_numpy_seed_sequence(seed):
    # seeds of 1 to 5 entropy words, and the links on both sides of a block edge
    for start, words in _blocks(seed, _BLOCK + 3, TAGS):
        for i in range(start, start + len(words)):
            if i < 3 or i >= _BLOCK - 3:
                for tag in TAGS:
                    assert _array_state(words[i - start, tag].tolist()) == _numpy_state(seed, i, tag)


@given(seed=st.integers(0, 2**160), i=st.integers(0, 2**32 - 1), tag=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_array_seeding_property(seed, i, tag):
    words = _seed_words(seed, range(i, i + 1), [tag])
    assert words.shape == (1, 1, 4)
    assert _array_state(words[0, 0].tolist()) == _numpy_state(seed, i, tag)


def _numpy_uniforms(seed, i, tag, segments):
    """numpy's draws for ``segments`` of (low, high, k): one ``uniform(low,
    high, size=k)`` call each, in order, on the stream of (seed, i, tag)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i, tag])))
    return [x for low, high, k in segments for x in rng.uniform(low, high, size=k).tolist()]


def _spans(segments):
    return [_span(low, high) for low, high, k in segments for _ in range(k)]


def _hex_draws(words, segments_per_tag):
    """``_uniform_draws`` of a block as float.hex strings, [link][tag] -> draws."""
    draws = _uniform_draws(words, [_spans(segments) for segments in segments_per_tag])
    assert [d.shape for d in draws] == [(len(_spans(s)), len(words)) for s in segments_per_tag]
    # float.hex tells -0.0 from 0.0: the draws must be the same bits
    return [[[x.hex() for x in d[:, k].tolist()] for d in draws] for k in range(len(words))]


_FINITE = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def _segments(draw):
    """Up to three runs of draws, each on its own span low <= high."""
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        low, high = sorted((draw(_FINITE), draw(_FINITE)))
        if math.copysign(1.0, high - low) < 0:  # 0.0, -0.0: _span and numpy reject it
            low, high = high, low
        runs.append((low, high, draw(st.integers(1, 5))))
    return runs


@given(seed=st.integers(0, 2**160), i=st.integers(0, 2**32 - 4), links=st.integers(1, 3),
       tags=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True),
       segments=st.lists(_segments(), min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_uniform_draws_equal_numpy_uniform(seed, i, links, tags, segments):
    # streams of unequal draw counts, several links a pass
    words = _seed_words(seed, range(i, i + links), tags)
    got = _hex_draws(words, segments[: len(tags)])
    for k in range(links):
        for t, tag in enumerate(tags):
            want = _numpy_uniforms(seed, i + k, tag, segments[t])
            assert got[k][t] == [x.hex() for x in want], (k, tag)


@pytest.mark.parametrize("seed", [0, 2**64 + 5])
def test_uniform_draws_across_a_block_edge(seed):
    segments = [(0.0, 1000.0, 2), (1.0, 100.0, 1), (0.5, 3.0, 1)]
    for start, words in _blocks(seed, _BLOCK + 2, TAGS):
        got = _hex_draws(words, [segments] * len(TAGS))
        for i in range(start, start + len(words)):
            if i >= _BLOCK - 2:
                for tag in TAGS:
                    want = _numpy_uniforms(seed, i, tag, segments)
                    assert got[i - start][tag] == [x.hex() for x in want], (i, tag)


def test_span_raises_as_numpy_uniform_raises():
    rng = np.random.Generator(np.random.PCG64(0))
    for error, cases in [(OverflowError, [(-1e308, 1e308), (0.0, math.nan), (-math.inf, 1.0)]),
                         (ValueError, [(0.0, -0.0), (5.0, 1.0), (-1e-300, -2e-300)])]:
        for low, high in cases:
            with pytest.raises(error) as want:
                rng.uniform(low, high)
            with pytest.raises(error, match="^" + str(want.value) + "$"):
                _span(low, high)
    # numpy draws from a span of width +0.0, whatever the zeros' signs
    for low, high in [(-0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (2.5, 2.5)]:
        assert _span(low, high) == (low, 0.0) and math.copysign(1.0, _span(low, high)[1]) > 0
        assert rng.uniform(low, high) == low



@pytest.mark.parametrize("fields, per_link", [
    ({}, 1),  # the angle's normal draw
    ({"beta_range": None, "beta_set": (1.0, 2.0, 4.0)}, 2),  # and the threshold's choice
])
def test_only_the_angle_and_beta_set_use_a_numpy_generator(monkeypatch, fields, per_link):
    calls = []

    def spy(rng, words):
        calls.append(words)
        return _seeded(rng, words)

    monkeypatch.setattr(generate, "_seeded", spy)
    for utility in (STEP, SHANNON):
        calls.clear()
        config = GenConfig(n=40, seed=5, utility=utility, demand_range=(0.5, 2.0), p_max=1e6,
                           **fields)
        gen_random(config)
        assert len(calls) == per_link * 40


def test_a_zero_direction_points_along_the_first_axis(monkeypatch):
    drawn = []

    class Fixed:  # every other link's direction is zero
        def normal(self, size):
            drawn.append(size)
            return np.zeros(size) if len(drawn) % 2 else np.array([3.0, 4.0])

    monkeypatch.setattr(generate, "_seeded", lambda rng, words: Fixed())
    inst = gen_random(GenConfig(n=40, seed=3, d_range=(5.0, 9.0)))
    points = inst.metric.to_dict()["points"]
    for link in inst.links:
        (s0, s1), (r0, r1) = points[link.sender], points[link.receiver]
        assert 5.0 - 1e-9 <= math.hypot(r0 - s0, r1 - s1) <= 9.0 + 1e-9
        if link.id % 2 == 0:
            assert r1 == s1 and r0 > s0
        else:
            assert (r1 - s1) == pytest.approx(4.0 / 3.0 * (r0 - s0))


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
