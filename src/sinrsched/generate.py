"""Reproducible instance generation for tests and experiments.

Random draws are keyed by (seed, link index, field tag): each (link, tag)
pair draws from the stream of ``PCG64(SeedSequence([seed, i, tag]))``, so
adding a field never reshuffles earlier draws and identical configs always
produce byte-identical instances. The streams are not built one by one:
SeedSequence's hashing runs in integer arrays over a block of links and every
tag the config draws from, and one reused Generator is set to each stream's
PCG64 state just before numpy draws from it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .model import INF, Instance, Link, MetricSpace
from .utility import ShannonUtility, StepUtility, UtilitySpec

# field tags for the per-draw substreams
_SENDER, _RADIUS, _ANGLE, _BETA, _UTILITY, _DEMAND, _POWER = range(7)

# numpy's SeedSequence (a pool of four uint32 words) and PCG64 seeding constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# 0-d arrays: numpy broadcasts them faster than Python or numpy scalars
_MIX_L, _MIX_R, _SHIFT = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_BLOCK = 1024  # links seeded per array pass


def _hash_pairs(init: int, mult: int, ks: Sequence[int]) -> tuple:
    """The two constants of SeedSequence's k-th hash, init * mult**k and
    init * mult**(k + 1), for each k of ``ks``: one row of a pool per k."""
    lo = [init * pow(mult, k, 1 << 32) & _MASK32 for k in ks]
    hi = [c * mult & _MASK32 for c in lo]
    return tuple(np.array(c, dtype=np.uint32)[:, None, None] for c in (lo, hi))


# Hashes 0-3 fill the pool. In mixing round ``src`` (hashes 4 + 3 * src on),
# pool[src] is hashed into each other word in ascending order; its own row
# takes a spare constant and is restored. generate_state(4, uint64) hashes
# pool[j % 4] into word j of eight with a second sequence.
_FILL = _hash_pairs(_INIT_A, _MULT_A, range(_POOL))
_ROUNDS = [
    _hash_pairs(_INIT_A, _MULT_A, [4 + 3 * src + dst - (dst > src) for dst in range(_POOL)])
    for src in range(_POOL)
]
_STATE = tuple(c.reshape(2, _POOL, 1, 1) for c in _hash_pairs(_INIT_B, _MULT_B, range(2 * _POOL)))


def _uint32_words(value: int) -> list:
    """The little-endian 32-bit words SeedSequence splits an entropy int into."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value: np.ndarray, pairs: tuple) -> np.ndarray:
    lo, hi = pairs
    value = (value ^ lo) * hi
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _SHIFT)


def _seed_words(seed: int, links: range, tags: Sequence[int]) -> np.ndarray:
    """``SeedSequence([seed, i, tag]).generate_state(4, np.uint64)`` for every
    link ``i`` of ``links`` and every tag, shaped (len(links), len(tags), 4).

    The pool is one (4, links, tags) array, so each step of the hashing runs
    once for the whole block."""
    seed_words = _uint32_words(int(seed))
    n_words = len(seed_words) + 2
    # rows past the entropy stay zero: SeedSequence hashes zeros into a short pool
    entropy = np.zeros((max(n_words, _POOL), len(links), len(tags)), dtype=np.uint32)
    entropy[: n_words - 2] = np.array(seed_words, dtype=np.uint32)[:, None, None]
    entropy[n_words - 2] = np.arange(links.start, links.stop, dtype=np.uint32)[:, None]
    entropy[n_words - 1] = tags
    pool = _hashmix(entropy[:_POOL], _FILL)
    for src, pairs in enumerate(_ROUNDS):
        mixed = _mix(pool, _hashmix(pool[src], pairs))
        mixed[src] = pool[src]
        pool = mixed
    for extra, word in enumerate(entropy[_POOL:]):  # hashed into every pool word
        first = _POOL * (_POOL + extra)  # after the pool's 4 + 12 hashes
        pool = _mix(pool, _hashmix(word, _hash_pairs(_INIT_A, _MULT_A, range(first, first + _POOL))))
    words = _hashmix(pool, _STATE).reshape(2 * _POOL, len(links), len(tags))
    # as numpy reads them: pairs of little-endian uint32 words as little-endian uint64s
    return np.ascontiguousarray(words.transpose(1, 2, 0), dtype="<u4").view("<u8")


def _link_seeds(seed: int, n: int, tags: Sequence[int]):
    """Each link's {tag: seed words} in link order, seeded _BLOCK links at a time."""
    for start in range(0, n, _BLOCK):
        for words in _seed_words(seed, range(start, min(start + _BLOCK, n)), tags):
            yield dict(zip(tags, words.tolist()))


class _ThreadGenerator(threading.local):
    """Each thread's one Generator, built on first use: building one per call
    would add about a tenth to a 1-link call. Every draw first sets a
    stream's whole state, so no call sees what another drew."""

    rng = None


_THREAD = _ThreadGenerator()


def _seeded(rng: np.random.Generator, words: list) -> np.random.Generator:
    """``rng`` set to the PCG64 stream numpy seeds from ``words``: PCG64's
    128-bit ``srandom`` step, and no buffered 32-bit half."""
    s_hi, s_lo, i_hi, i_lo = words
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


@dataclass(frozen=True)
class GenConfig:
    n: int
    seed: int
    area: float = 1000.0
    d_range: tuple = (1.0, 100.0)
    beta_range: Optional[tuple] = (1.0, 10.0)
    beta_set: Optional[tuple] = None
    utility: Optional[dict] = None
    demand_range: Optional[tuple] = None
    alpha: float = 2.0
    noise: float = 1.0
    p_max: float = INF
    dim: int = 2
    power: Union[float, str, None] = None
    allow_sub_unit: bool = False

    def __post_init__(self):
        for name in ("n", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, not {value!r}")
        d_min, d_max = self.d_range
        if not 0.0 < d_min <= d_max < INF:
            raise ValueError(
                f"d_range: impossible geometry {self.d_range}, need 0 < d_min <= d_max < inf"
            )
        for name in ("area", "alpha", "noise"):
            if not 0.0 < getattr(self, name) < INF:
                raise ValueError(f"{name} must be finite and > 0, not {getattr(self, name)}")
        if d_max > self.area * math.sqrt(self.dim):
            raise ValueError("link length range exceeds the area diagonal")
        if self.beta_set is None and self.beta_range is None:
            raise ValueError("one of beta_range / beta_set is required")
        betas_name = "beta_set" if self.beta_set is not None else "beta_range"
        betas = getattr(self, betas_name)
        for name in (betas_name, "demand_range"):
            values = getattr(self, name)
            if values is not None and not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be finite, not {values}")
        if not self.allow_sub_unit and any(b < 1 for b in betas):
            raise ValueError("thresholds below 1 need allow_sub_unit")


def _pair(value) -> tuple:
    lo, hi = (float(v) for v in value)
    return lo, hi


def _field(params: Mapping, name: str, default, parse=float):
    """``parse`` of utility parameter ``name``, or of ``default`` when it is
    absent; a value it cannot parse, or that is not finite, is a ValueError
    naming the field."""
    try:
        value = parse(params.get(name, default))
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            raise ValueError
        return value
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"utility field {name!r}: bad value {params[name]!r}") from None


def _random_utility(params: Mapping, rng: np.random.Generator) -> UtilitySpec:
    if not isinstance(params, Mapping):
        raise ValueError(f"utility must be an object of parameters, not {params!r}")
    family = params.get("family", "step")
    if family == "step":
        n_steps = _field(params, "steps", 3, int)
        if n_steps < 1:
            raise ValueError(f"utility field 'steps' must be >= 1, not {n_steps}")
        gamma_max = _field(params, "gamma_max", 64.0)
        value_max = _field(params, "value_max", 1.0)
        gammas = np.sort(rng.uniform(1.0, gamma_max, size=n_steps))
        gammas[0] = max(1.0, gammas[0])
        values = np.sort(rng.uniform(0.0, value_max, size=n_steps))
        steps, last_g = [], None
        for g, v in zip(gammas, values):
            if last_g is not None and g <= last_g:
                g = math.nextafter(last_g, math.inf)
            steps.append((float(g), float(v)))
            last_g = g
        return StepUtility(tuple(steps))
    if family == "shannon":
        lo, hi = _field(params, "scale_range", (0.5, 2.0), _pair)
        clo, chi = _field(params, "cutoff_range", (1.0, 4.0), _pair)
        return ShannonUtility(
            scale=float(rng.uniform(lo, hi)), cutoff=float(rng.uniform(clo, chi))
        )
    raise ValueError(f"unknown utility family {family!r}")


def gen_random(config: GenConfig) -> Instance:
    """Uniform senders in a square, receivers on a ring around their sender;
    thresholds, utilities, demands and powers drawn per the config."""
    points: list[list[float]] = []
    links: list[Link] = []
    d_min, d_max = config.d_range
    tags = [_SENDER, _RADIUS, _ANGLE, _BETA]
    if config.utility is not None:
        tags.append(_UTILITY)
    if config.demand_range is not None:
        tags.append(_DEMAND)
    rng = _THREAD.rng
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.PCG64(0))
    for i, seeds in enumerate(_link_seeds(config.seed, config.n, tags)):
        sender = _seeded(rng, seeds[_SENDER]).uniform(0.0, config.area, size=config.dim)
        radius = float(_seeded(rng, seeds[_RADIUS]).uniform(d_min, d_max))
        direction = _seeded(rng, seeds[_ANGLE]).normal(size=config.dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            direction = np.zeros(config.dim)
            direction[0] = 1.0
            norm = 1.0
        receiver = sender + radius * direction / norm

        if config.beta_set is not None:
            beta = float(_seeded(rng, seeds[_BETA]).choice(np.asarray(config.beta_set)))
        else:
            beta = float(_seeded(rng, seeds[_BETA]).uniform(*config.beta_range))

        utility = None
        if config.utility is not None:
            utility = _random_utility(config.utility, _seeded(rng, seeds[_UTILITY]))

        demand = None
        if config.demand_range is not None:
            if utility is None:
                raise ValueError("demands need utilities")
            rel = float(_seeded(rng, seeds[_DEMAND]).uniform(*config.demand_range))
            # UnboundedObjective for a Shannon utility without a power cap
            demand = rel * utility.max_value(config.p_max / (config.noise * radius**config.alpha))

        power = None
        if config.power is not None:
            sens = beta * radius**config.alpha
            if config.power == "linear":
                power = sens
            elif config.power == "sqrt":
                power = math.sqrt(sens)
            elif isinstance(config.power, str):
                raise ValueError(f"unknown power rule {config.power!r}")
            else:
                power = float(config.power)

        s_idx = len(points)
        points.append([float(x) for x in sender])
        points.append([float(x) for x in receiver])
        links.append(
            Link(
                id=i,
                sender=s_idx,
                receiver=s_idx + 1,
                threshold=beta,
                utility=utility,
                demand=demand,
                fixed_power=power,
            )
        )
    metric = MetricSpace.euclidean(points if points else np.zeros((0, config.dim)), dim=config.dim)
    return Instance(
        metric=metric,
        alpha=config.alpha,
        noise=config.noise,
        p_max=config.p_max,
        links=tuple(links),
        allow_sub_unit_threshold=config.allow_sub_unit,
    )


def gen_line(
    entries: Sequence[tuple],
    alpha: float = 2.0,
    noise: float = 1.0,
    p_max: float = INF,
    allow_sub_unit: bool = False,
) -> Instance:
    """1-D instance exactly as specified by (sender, receiver, beta) triples."""
    points: list[list[float]] = []
    links: list[Link] = []

    def add_point(x: float) -> int:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError("coordinates must be finite")
        points.append([x])
        return len(points) - 1

    for idx, (s, r, beta) in enumerate(entries):
        if s == r:
            raise ValueError(f"entry {idx}: sender and receiver coincide")
        links.append(Link(id=idx, sender=add_point(s), receiver=add_point(r), threshold=float(beta)))
    return Instance(
        metric=MetricSpace.euclidean(points if points else [[0.0]], dim=1),
        alpha=alpha,
        noise=noise,
        p_max=p_max,
        links=tuple(links),
        allow_sub_unit_threshold=allow_sub_unit,
    )
