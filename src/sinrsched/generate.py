"""Reproducible instance generation for tests and experiments.

Random draws are keyed by (seed, link index, field tag): each (link, tag)
pair draws from the stream of ``PCG64(SeedSequence([seed, i, tag]))``, so
adding a field never reshuffles earlier draws and identical configs always
produce byte-identical instances. The streams are not built one by one:
SeedSequence's hashing runs in integer arrays over a block of links and every
tag the config draws from.

Uniform draws (sender coordinates, radius, ``beta_range`` thresholds, step
and Shannon utility parameters, demands) step the stream on Python ints:
PCG64's 128-bit LCG step and XSL-RR output, then ``Generator.uniform``'s own
arithmetic, ``low + (high - low) * ((x >> 11) * 2**-53)``, so they equal
numpy's draws bit for bit, without a numpy call per draw. The angle's
``normal`` draw (numpy's ziggurat tables) and ``beta_set``'s ``choice``
(numpy's bounded integers) stay with numpy: the call's one Generator is set
to the stream's PCG64 state just before each of them, so no state outlives
a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .model import INF, Instance, Link, MetricSpace, _integer, _number, _require
from .utility import MAX_STEPS, ShannonUtility, StepUtility, UnboundedObjective, UtilitySpec

# field tags for the per-draw substreams
_SENDER, _RADIUS, _ANGLE, _BETA, _UTILITY, _DEMAND, _POWER = range(7)

# numpy's SeedSequence (a pool of four uint32 words) and PCG64 seeding constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# 0-d arrays: numpy broadcasts them faster than Python or numpy scalars
_MIX_L, _MIX_R, _SHIFT = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_DOUBLE_UNIT = 1.0 / (1 << 53)  # numpy's next_double: the top 53 bits of a draw
_BLOCK = 1024  # links seeded per array pass
# the largest dim GenConfig takes: the plane and space are all any caller
# uses, and each coordinate is one Python-level draw per link
MAX_DIM = 3


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


def _pcg_state(words: list) -> tuple:
    """(state, inc) of the PCG64 stream numpy seeds from ``words``: PCG64's
    128-bit ``srandom`` step."""
    s_hi, s_lo, i_hi, i_lo = words
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    return ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


def _seeded(rng: np.random.Generator, words: list) -> np.random.Generator:
    """``rng`` set to the PCG64 stream numpy seeds from ``words``, with no
    buffered 32-bit half."""
    state, inc = _pcg_state(words)
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _span(low, high) -> tuple:
    """(low, high - low) of a uniform draw, checked as ``Generator.uniform``
    checks them."""
    low, high = float(low), float(high)
    width = high - low
    if not math.isfinite(width):
        raise OverflowError("high - low range exceeds valid bounds")
    return low, width


def _uniforms(words: list, spans: Sequence[tuple]) -> list:
    """One draw per ``_span`` of ``spans``, in order, from the PCG64 stream
    numpy seeds from ``words``: the floats ``Generator.uniform`` gives, one
    call per run of equal spans (``size=k`` for k of them)."""
    state, inc = _pcg_state(words)
    draws = []
    for low, width in spans:
        state = (state * _PCG_MULT + inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        draws.append(low + width * ((x >> 11) * _DOUBLE_UNIT))
    return draws


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
    # the utility parameters, parsed and checked once (see _utility_params)
    _utility: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # the fields are checked, not converted: each keeps the value given
        for name in ("n", "seed"):
            if _finite(getattr(self, name), name, _integer) < 0:
                raise ValueError(f"{name} must be >= 0, not {getattr(self, name)!r}")
        d_min, d_max = _pair(self.d_range, "d_range")
        if not 0.0 < d_min <= d_max:
            raise ValueError(
                f"d_range: impossible geometry {self.d_range}, need 0 < d_min <= d_max < inf"
            )
        for name in ("area", "alpha", "noise"):
            if not _finite(getattr(self, name), name) > 0.0:
                raise ValueError(f"{name} must be > 0, not {getattr(self, name)}")
        try:  # the metric squares a length, and an instance needs every d^alpha finite
            d_max ** max(2.0, float(self.alpha))
        except OverflowError:
            message = f"d_range: length {d_max} overflows squared or at alpha {self.alpha}"
            raise ValueError(message) from None
        # a coordinate near the area's size carries 52 bits; keep 22 for a length
        if d_min < self.area * 2.0**-30:
            raise ValueError(f"d_range: length {d_min} is below area * 2^-30 = "
                             f"{self.area * 2.0**-30:g}, the coordinates' resolution")
        dim = _finite(self.dim, "dim", _integer)
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dim must be in 1..{MAX_DIM}, not {dim}")
        if d_max > self.area * math.sqrt(dim):
            raise ValueError("link length range exceeds the area diagonal")
        if self.beta_set is not None:
            name = "beta_set"
            _require(self.beta_set, (list, tuple), "a list of thresholds", name)
            betas = [_finite(b, f"{name}[{k}]") for k, b in enumerate(self.beta_set)]
            if not betas:
                raise ValueError("beta_set must not be empty")
        elif self.beta_range is not None:
            name, betas = "beta_range", _pair(self.beta_range, "beta_range")
            if not betas[0] <= betas[1]:
                raise ValueError(f"beta_range must have lo <= hi, not {self.beta_range}")
        else:
            raise ValueError("one of beta_range / beta_set is required")
        if not min(betas) > 0.0:
            raise ValueError(f"{name}: thresholds must be > 0, not {getattr(self, name)}")
        if self.demand_range is not None:
            demands = _pair(self.demand_range, "demand_range")
            if not 0.0 <= demands[0] <= demands[1]:
                raise ValueError(f"demand_range must have 0 <= lo <= hi, not {self.demand_range}")
        if not self.allow_sub_unit and any(b < 1 for b in betas):
            raise ValueError("thresholds below 1 need allow_sub_unit")
        utility = None if self.utility is None else _utility_params(self.utility)
        object.__setattr__(self, "_utility", utility)
        if self.demand_range is not None:
            if utility is None:
                raise ValueError("demand_range: demands need a utility")
            if utility[0] == "shannon" and not self.p_max < INF:
                raise UnboundedObjective(
                    "p_max must be finite for demands on Shannon utilities (objective unbounded)"
                )
        power = self.power
        if isinstance(power, str):
            if power not in ("linear", "sqrt"):
                raise ValueError(f"power must be a number, 'linear' or 'sqrt', not {power!r}")
        elif power is not None and not _finite(power, "power") >= 0.0:
            raise ValueError(f"power must be >= 0, not {power}")


def _finite(value, key: str, read=_number):
    """Config field or utility parameter ``value`` read by model's ``read``, a
    numpy scalar first taken as the Python value it holds (so numpy integers
    and floats pass); a float must be finite."""
    if isinstance(value, np.generic):
        value = float(value) if isinstance(value, np.floating) else value.item()
    value = read(value, key)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, not {value}")
    return value


def _pair(value, key: str) -> tuple:
    """A [lo, hi] utility parameter: a list or tuple of two finite numbers."""
    _require(value, (list, tuple), "a [lo, hi] pair", key)
    if len(value) != 2:
        raise ValueError(f"{key} must be a [lo, hi] pair, got {len(value)} entries")
    return _finite(value[0], key + "[0]"), _finite(value[1], key + "[1]")


def _utility_params(params) -> tuple:
    """The utility parameters, parsed and checked: ("step", steps, gamma_max,
    value_max) or ("shannon", scale_range, cutoff_range). A ValueError names
    the field."""
    _require(params, Mapping, "an object of parameters", "utility")
    family = params.get("family", "step")
    if family == "step":
        n_steps = _finite(params.get("steps", 3), "utility field 'steps'", _integer)
        if not 1 <= n_steps <= MAX_STEPS:
            raise ValueError(f"utility field 'steps' must be in 1..{MAX_STEPS}, not {n_steps}")
        gamma_max = _finite(params.get("gamma_max", 64.0), "utility field 'gamma_max'")
        if not gamma_max >= 1.0:
            raise ValueError(f"utility field 'gamma_max' must be >= 1, not {gamma_max}")
        value_max = _finite(params.get("value_max", 1.0), "utility field 'value_max'")
        if not value_max >= 0.0:
            raise ValueError(f"utility field 'value_max' must be >= 0, not {value_max}")
        return family, n_steps, gamma_max, value_max
    if family == "shannon":
        scale = _pair(params.get("scale_range", (0.5, 2.0)), "utility field 'scale_range'")
        if not 0.0 < scale[0] <= scale[1]:
            raise ValueError(f"utility field 'scale_range' must have 0 < lo <= hi, not {scale}")
        cutoff = _pair(params.get("cutoff_range", (1.0, 4.0)), "utility field 'cutoff_range'")
        if not 1.0 <= cutoff[0] <= cutoff[1]:
            raise ValueError(f"utility field 'cutoff_range' must have 1 <= lo <= hi, not {cutoff}")
        return family, scale, cutoff
    raise ValueError(f"utility field 'family': unknown family {family!r}")


def _utility_spans(params: tuple) -> list:
    """The spans of one utility's draws, from ``_utility_params``' parsed
    parameters: a step utility's gammas, then its values; a Shannon
    utility's scale, then its cutoff."""
    if params[0] == "step":
        _, n_steps, gamma_max, value_max = params
        return [_span(1.0, gamma_max)] * n_steps + [_span(0.0, value_max)] * n_steps
    _, scale, cutoff = params
    return [_span(*scale), _span(*cutoff)]


def _random_utility(params: tuple, draws: list) -> UtilitySpec:
    """One utility from its ``_utility_spans`` draws."""
    if params[0] == "step":
        n_steps = params[1]
        gammas, values = sorted(draws[:n_steps]), sorted(draws[n_steps:])
        gammas[0] = max(1.0, gammas[0])
        steps, last_g = [], None
        for g, v in zip(gammas, values):
            if last_g is not None and g <= last_g:
                g = math.nextafter(last_g, math.inf)
            steps.append((g, v))
            last_g = g
        return StepUtility(tuple(steps))
    scale, cutoff = draws
    return ShannonUtility(scale=scale, cutoff=cutoff)


def gen_random(config: GenConfig) -> Instance:
    """Uniform senders in a square, receivers on a ring around their sender;
    thresholds, utilities, demands and powers drawn per the config."""
    coords: list[float] = []  # sender i's, then receiver i's, for each link i
    links: list[Link] = []
    dim = config.dim
    sender_spans = [_span(0.0, config.area)] * dim
    radius_span = [_span(*config.d_range)]
    tags = [_SENDER, _RADIUS, _ANGLE, _BETA]
    if config.beta_set is not None:
        beta_choices = np.asarray(config.beta_set)
    else:
        beta_span = [_span(*config.beta_range)]
    if config.utility is not None:
        tags.append(_UTILITY)
        utility_spans = _utility_spans(config._utility)
    if config.demand_range is not None:
        tags.append(_DEMAND)
        demand_span = [_span(*config.demand_range)]
    rng = np.random.Generator(np.random.PCG64(0))
    for i, seeds in enumerate(_link_seeds(config.seed, config.n, tags)):
        sender = _uniforms(seeds[_SENDER], sender_spans)
        (radius,) = _uniforms(seeds[_RADIUS], radius_span)
        direction = _seeded(rng, seeds[_ANGLE]).normal(size=dim)
        # np.linalg.norm of a 1-D float array, without its call overhead
        norm = math.sqrt(direction.dot(direction))
        if norm == 0.0:
            direction, norm = [1.0] + [0.0] * (dim - 1), 1.0
        else:
            direction = direction.tolist()
        # numpy's elementwise sender + radius * direction / norm, on floats
        receiver = [s + radius * d / norm for s, d in zip(sender, direction)]

        if config.beta_set is not None:
            beta = float(_seeded(rng, seeds[_BETA]).choice(beta_choices))
        else:
            (beta,) = _uniforms(seeds[_BETA], beta_span)

        utility = None
        if config.utility is not None:
            utility = _random_utility(config._utility, _uniforms(seeds[_UTILITY], utility_spans))

        demand = None
        if config.demand_range is not None:
            (rel,) = _uniforms(seeds[_DEMAND], demand_span)
            demand = rel * utility.max_value(config.p_max / (config.noise * radius**config.alpha))

        power = None
        if config.power is not None:
            sens = beta * radius**config.alpha
            if config.power == "linear":
                power = sens
            elif config.power == "sqrt":
                power = math.sqrt(sens)
            else:
                power = float(config.power)

        coords += sender
        coords += receiver
        links.append(
            Link(
                id=i,
                sender=2 * i,
                receiver=2 * i + 1,
                threshold=beta,
                utility=utility,
                demand=demand,
                fixed_power=power,
            )
        )
    metric = MetricSpace.euclidean(np.array(coords, dtype=np.float64).reshape(-1, dim), dim=dim)
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
    coords: list[float] = []
    links: list[Link] = []
    for idx, (s, r, beta) in enumerate(entries):
        if s == r:
            raise ValueError(f"entry {idx}: sender and receiver coincide")
        coords += (float(s), float(r))
        if not all(map(math.isfinite, coords[-2:])):
            raise ValueError("coordinates must be finite")
        links.append(Link(id=idx, sender=2 * idx, receiver=2 * idx + 1, threshold=float(beta)))
    return Instance(
        metric=MetricSpace.euclidean(np.array(coords or [0.0]).reshape(-1, 1), dim=1),
        alpha=alpha,
        noise=noise,
        p_max=p_max,
        links=tuple(links),
        allow_sub_unit_threshold=allow_sub_unit,
    )
