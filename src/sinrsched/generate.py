"""Reproducible instance generation for tests and experiments.

Random draws are keyed by (seed, link index, field tag): each (link, tag)
pair draws from the stream of ``PCG64(SeedSequence([seed, i, tag]))``, so
adding a field never reshuffles earlier draws and identical configs always
produce byte-identical instances. The streams are not built one by one:
SeedSequence's hashing runs in integer arrays over a block of links and every
tag the config draws from.

Uniform draws (sender coordinates, radius, ``beta_range`` thresholds, step
and Shannon utility parameters, demands) are taken a block of links at a
time: each link's 128-bit PCG64 state is one 256-bit lane of a Python int, so
one multiply-add takes the LCG step of a field's streams for the whole
block, and PCG64's XSL-RR output and ``Generator.uniform``'s own arithmetic,
``low + (high - low) * ((x >> 11) * 2**-53)``, run once per block on the
uint64 and float64 arrays read back from the steps' bytes. The draws equal
numpy's bit for bit. Receivers are computed as arrays too. The angle's
``normal`` draw (numpy's ziggurat tables, out of Python's reach) and
``beta_set``'s ``choice`` (numpy's bounded integers) stay per link with
numpy: the call's one Generator is set to the stream's PCG64 state just
before each of them, so no state outlives a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
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
_U11, _U58, _U63 = (np.array(c, dtype=np.uint64) for c in (11, 58, 63))
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# the low 128 bits, and the lowest bit, of each stream's 256-bit lane
_LANE_MASK, _LANE_ONE = b"\xff" * 16 + bytes(16), b"\x01" + bytes(31)
_DOUBLE_UNIT = 1.0 / (1 << 53)  # numpy's next_double: the top 53 bits of a draw
_BLOCK = 1024  # links seeded per array pass
# uniform draws per pass at most: a pass holds 32 bytes per draw, so links
# with many draws (a step utility of many steps) take smaller blocks
_PASS_DRAWS = 1 << 16
# the largest dim GenConfig takes: the plane and space are all any caller uses
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
    if math.copysign(1.0, width) < 0.0:  # a width of -0.0 too, from 0.0 to -0.0
        raise ValueError("high - low < 0")
    return low, width


def _uniform_draws(words: np.ndarray, spans: Sequence[Sequence[tuple]]) -> list:
    """The draws of ``spans[t]`` (``_span`` pairs, in order) from the PCG64
    stream numpy seeds from ``words[i, t]``, for every link ``i`` of a
    block: one (len(spans[t]), links) float array per ``t``, the floats
    ``Generator.uniform`` gives, one call per run of equal spans.

    Each link's stream of a field is one 256-bit lane of a Python int, so
    ``(state * _PCG_MULT + inc) & mask`` steps the field's streams of every
    link at once: a lane's product and sum stay below 2**256 and carry
    nothing into the next lane. The output and the draw run once, on the
    bytes of every step."""
    links = words.shape[0]
    mask = int.from_bytes(_LANE_MASK * links, "little")
    ones = int.from_bytes(_LANE_ONE * links, "little")
    chunks = []
    for t, field_spans in enumerate(spans):
        # a lane holds initseq in its low 128 bits and initstate above
        seeds = int.from_bytes(words[:, t, ::-1].tobytes(), "little")
        # PCG64's srandom: inc = initseq << 1 | 1, state = (initstate + inc) * mult + inc
        inc = (seeds << 1 | ones) & mask
        state = (((seeds >> 128 & mask) + inc) * _PCG_MULT + inc) & mask
        for _ in field_spans:
            state = (state * _PCG_MULT + inc) & mask
            chunks.append(state.to_bytes(32 * links, "little"))
    lanes = np.frombuffer(b"".join(chunks), dtype="<u8").reshape(-1, links, 4)
    lo, hi = lanes[..., 0], lanes[..., 1]
    x, rot = lo ^ hi, hi >> _U58  # XSL-RR; a rotation by 0 leaves x as it is
    x = x >> rot | x << (-rot & _U63)
    low, width = np.array([span for s in spans for span in s]).T[..., None]
    draws = low + width * ((x >> _U11) * _DOUBLE_UNIT)
    ends = accumulate(map(len, spans))
    return [draws[end - len(s) : end] for s, end in zip(spans, ends)]


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
            # (0.0, -0.0) too: its width is -0.0, which Generator.uniform rejects
            sign = math.copysign(1.0, demands[1] - demands[0])
            if not 0.0 <= demands[0] <= demands[1] or sign < 0.0:
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
        if math.copysign(1.0, value_max) < 0.0:  # -0.0 too: its values span 0.0 to -0.0
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
    dim, n = config.dim, config.n
    spans = {_SENDER: [_span(0.0, config.area)] * dim, _RADIUS: [_span(*config.d_range)]}
    if config.beta_set is not None:
        beta_choices = np.asarray(config.beta_set)
    else:
        spans[_BETA] = [_span(*config.beta_range)]
    if config.utility is not None:
        spans[_UTILITY] = _utility_spans(config._utility)
    if config.demand_range is not None:
        spans[_DEMAND] = [_span(*config.demand_range)]
    # the streams numpy draws from per link follow the uniform ones
    tags = [*spans, _ANGLE] + ([_BETA] if config.beta_set is not None else [])
    block = max(1, min(_BLOCK, _PASS_DRAWS // sum(map(len, spans.values()))))
    coords = np.empty((n, 2, dim))  # sender i's, then receiver i's, for each link i
    links: list[Link] = []
    rng = np.random.Generator(np.random.PCG64(0))
    for start in range(0, n, block):
        ids = range(start, min(start + block, n))
        words = _seed_words(config.seed, ids, tags)
        draws = dict(zip(spans, _uniform_draws(words[:, : len(spans)], list(spans.values()))))
        seeds = words[:, len(spans):].tolist()
        directions = [_seeded(rng, w[0]).normal(size=dim) for w in seeds]
        # np.linalg.norm's sqrt(dot(d, d)) of each, without its call overhead
        norms = [math.sqrt(d.dot(d)) for d in directions]
        if 0.0 in norms:  # a zero direction points along the first axis
            directions = [d if norm else np.eye(dim)[0] for d, norm in zip(directions, norms)]
            norms = [norm or 1.0 for norm in norms]
        senders, radii = draws[_SENDER].T, draws[_RADIUS][0]
        coords[start : ids.stop, 0] = senders
        # numpy's elementwise sender + radius * direction / norm
        coords[start : ids.stop, 1] = (
            senders + radii[:, None] * np.array(directions) / np.array(norms)[:, None]
        )
        radii = radii.tolist()

        if config.beta_set is not None:
            betas = [float(_seeded(rng, w[1]).choice(beta_choices)) for w in seeds]
        else:
            betas = draws[_BETA][0].tolist()
        utilities = demands = [None] * len(ids)
        if config.utility is not None:
            utilities = [_random_utility(config._utility, u) for u in draws[_UTILITY].T.tolist()]
        if config.demand_range is not None:
            demands = [
                rel * utility.max_value(config.p_max / (config.noise * radius**config.alpha))
                for rel, utility, radius in zip(draws[_DEMAND][0].tolist(), utilities, radii)
            ]

        for i, radius, beta, utility, demand in zip(ids, radii, betas, utilities, demands):
            power = None
            if config.power is not None:
                sens = beta * radius**config.alpha
                if config.power == "linear":
                    power = sens
                elif config.power == "sqrt":
                    power = math.sqrt(sens)
                else:
                    power = float(config.power)
            # positional: keywords add a fifth to what a Link costs
            links.append(Link(i, 2 * i, 2 * i + 1, beta, utility, demand, power))
    metric = MetricSpace.euclidean(coords.reshape(-1, dim), dim=dim)
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
