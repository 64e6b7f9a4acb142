"""Utility functions mapping SINR to data-rate value.

Algorithms never inspect a utility's shape; they only use the two queries
``max_value`` (the method: value at a given SINR cap) and
``inverse_threshold`` (smallest SINR reaching a target value). Every family
returns 0 below SINR 1.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Optional, Union

MAX_STEPS = 10_000


class UnboundedObjective(ValueError):
    """Raised when a maximum utility is requested with no finite SINR cap."""


class UtilityContractError(RuntimeError):
    """A utility family reported a positive value below SINR 1."""


@dataclass(frozen=True)
class StepUtility:
    """Piecewise-constant utility: value of the largest step gamma <= SINR."""

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self):
        steps = tuple((float(g), float(v)) for g, v in self.steps)
        if not steps:
            raise ValueError("step utility needs at least one step")
        if len(steps) > MAX_STEPS:
            raise ValueError(f"step utility limited to {MAX_STEPS} steps")
        if not all(math.isfinite(g) and math.isfinite(v) for g, v in steps):
            raise ValueError("step gammas and values must be finite")
        if steps[0][0] < 1:
            raise ValueError("first step gamma must be >= 1 (zero utility below SINR 1)")
        for (g0, v0), (g1, v1) in zip(steps, steps[1:]):
            if g1 <= g0:
                raise ValueError("step gammas must be strictly increasing")
            if v1 < v0:
                raise ValueError("step values must be nondecreasing")
        if any(v < 0 for _, v in steps):
            raise ValueError("step values must be >= 0")
        object.__setattr__(self, "steps", steps)

    def value(self, gamma: float) -> float:
        gammas = [g for g, _ in self.steps]
        k = bisect_right(gammas, gamma)
        return 0.0 if k == 0 else self.steps[k - 1][1]

    def max_value(self, gamma_cap: float) -> float:
        return self.value(gamma_cap) if gamma_cap != math.inf else self.steps[-1][1]

    def min_gamma_for(self, target: float) -> Optional[float]:
        for g, v in self.steps:
            if v >= target:
                return g
        return None


@dataclass(frozen=True)
class ShannonUtility:
    """Capped Shannon-style curve: scale * log2(1 + SINR) above the cutoff."""

    scale: float
    cutoff: float = 1.0

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be finite and > 0")
        if not 1 <= self.cutoff < math.inf:
            raise ValueError("cutoff must be finite and >= 1")

    def value(self, gamma: float) -> float:
        if gamma < self.cutoff:
            return 0.0
        return self.scale * math.log2(1.0 + gamma)

    def max_value(self, gamma_cap: float) -> float:
        if gamma_cap == math.inf:
            raise UnboundedObjective("objective unbounded: Shannon utility with infinite SINR cap")
        return self.value(gamma_cap)

    def min_gamma_for(self, target: float) -> Optional[float]:
        # closed form, clamped up to the cutoff; never numerical root-finding
        try:
            gamma = 2.0 ** (target / self.scale) - 1.0
        except OverflowError:  # target / scale >= 1024: beyond every finite SINR
            return None
        return max(gamma, self.cutoff)


@dataclass(frozen=True)
class CappedUtility:
    """min(cap, base utility); used for residual-demand-limited scheduling."""

    base: "UtilitySpec"
    cap: float

    def __post_init__(self):
        if self.cap < 0:
            raise ValueError("cap must be >= 0")

    def value(self, gamma: float) -> float:
        return min(self.cap, self.base.value(gamma))

    def max_value(self, gamma_cap: float) -> float:
        return min(self.cap, self.base.max_value(gamma_cap))

    def min_gamma_for(self, target: float) -> Optional[float]:
        if target > self.cap:
            return None
        return self.base.min_gamma_for(target)


UtilitySpec = Union[StepUtility, ShannonUtility, CappedUtility]


def inverse_threshold(u: UtilitySpec, target: float) -> Optional[float]:
    """Smallest SINR gamma with u(gamma) >= target, or None if unreachable.

    The returned gamma is always >= 1, because utilities vanish below 1.
    """
    if not target > 0:
        raise ValueError("target value must be > 0")
    gamma = u.min_gamma_for(target)
    if gamma is not None and gamma < 1:
        raise UtilityContractError("utility reached a positive value below SINR 1")
    return gamma


def scaled(u: UtilitySpec, factor: float) -> UtilitySpec:
    """``u`` with every value multiplied by ``factor``."""
    if isinstance(u, StepUtility):
        return StepUtility(tuple((g, v * factor) for g, v in u.steps))
    if isinstance(u, ShannonUtility):
        return ShannonUtility(scale=u.scale * factor, cutoff=u.cutoff)
    raise TypeError(f"cannot scale utility of type {type(u).__name__}")


def utility_to_dict(u: UtilitySpec) -> dict:
    if isinstance(u, StepUtility):
        return {"type": "step", "steps": [[g, v] for g, v in u.steps]}
    if isinstance(u, ShannonUtility):
        return {"type": "shannon", "scale": u.scale, "cutoff": u.cutoff}
    raise TypeError(f"cannot serialize utility of type {type(u).__name__}")


def utility_from_dict(data: Mapping) -> UtilitySpec:
    kind = data.get("type")
    if kind == "step":
        return StepUtility(tuple((float(g), float(v)) for g, v in data["steps"]))
    if kind == "shannon":
        return ShannonUtility(scale=float(data["scale"]), cutoff=float(data.get("cutoff", 1.0)))
    raise ValueError(f"unknown utility type: {kind!r}")
