"""Reproducible instance generation for tests and experiments.

Random draws are keyed by (seed, link index, field tag) through numpy's
SeedSequence, so adding a field never reshuffles earlier draws and identical
configs always produce byte-identical instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .model import INF, Instance, Link, MetricSpace
from .utility import ShannonUtility, StepUtility, UtilitySpec

# field tags for the per-draw substreams
_SENDER, _RADIUS, _ANGLE, _BETA, _UTILITY, _DEMAND, _POWER = range(7)


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
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.seed is None:
            raise ValueError("seed is mandatory")
        d_min, d_max = self.d_range
        if d_min > d_max:
            raise ValueError("impossible geometry: d_min > d_max")
        if d_max > self.area * math.sqrt(self.dim):
            raise ValueError("link length range exceeds the area diagonal")
        if self.beta_set is None and self.beta_range is None:
            raise ValueError("one of beta_range / beta_set is required")
        betas = self.beta_set if self.beta_set is not None else self.beta_range
        if not self.allow_sub_unit and any(b < 1 for b in betas):
            raise ValueError("thresholds below 1 need allow_sub_unit")


def _stream(seed: int, link_index: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, link_index, tag]))


def _random_utility(params: Mapping, rng: np.random.Generator) -> UtilitySpec:
    family = params.get("family", "step")
    if family == "step":
        n_steps = int(params.get("steps", 3))
        gamma_max = float(params.get("gamma_max", 64.0))
        value_max = float(params.get("value_max", 1.0))
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
        lo, hi = params.get("scale_range", (0.5, 2.0))
        clo, chi = params.get("cutoff_range", (1.0, 4.0))
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
    for i in range(config.n):
        sender = _stream(config.seed, i, _SENDER).uniform(0.0, config.area, size=config.dim)
        radius = float(_stream(config.seed, i, _RADIUS).uniform(d_min, d_max))
        direction = _stream(config.seed, i, _ANGLE).normal(size=config.dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            direction = np.zeros(config.dim)
            direction[0] = 1.0
            norm = 1.0
        receiver = sender + radius * direction / norm

        if config.beta_set is not None:
            beta = float(_stream(config.seed, i, _BETA).choice(np.asarray(config.beta_set)))
        else:
            beta = float(_stream(config.seed, i, _BETA).uniform(*config.beta_range))

        utility = None
        if config.utility is not None:
            utility = _random_utility(config.utility, _stream(config.seed, i, _UTILITY))

        demand = None
        if config.demand_range is not None:
            if utility is None:
                raise ValueError("demands need utilities")
            rel = float(_stream(config.seed, i, _DEMAND).uniform(*config.demand_range))
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
