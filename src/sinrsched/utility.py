"""Utility functions mapping SINR to data-rate value.

A utility answers three queries: ``value`` at an SINR, ``max_value`` (the
method: value at a given SINR cap) and ``inverse_threshold`` (smallest SINR
reaching a target value). Every family returns 0 below SINR 1.

``UtilityTable`` is the array form of a list of uncapped utilities (cores:
step, Shannon or rounded over one of them): padded step tables, Shannon
scale and cutoff vectors and the rounding of ``RoundedUtility``. It holds no
cap; a caller that caps its rows (the flexible-rate sweep, whose cap vector
is the one holder of its caps) replaces each target above a row's cap by
inf before searching. ``inverse_threshold`` on a table answers every row and
every target in one vectorized search, with the same floats as the scalar
query on each utility.

This module holds only the utility math; a utility's JSON form is read and
written in ``model`` (``utility_from_dict``, ``utility_to_dict``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence, Union

import numpy as np

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
        k = bisect_right(self.steps, gamma, key=itemgetter(0))
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
        if math.isnan(self.cap):
            raise ValueError("cap must not be NaN")
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


@dataclass(frozen=True)
class RoundedUtility:
    """``base`` in units of ``demand``, rounded down to multiples of 1/denom:
    (1/denom) * floor(denom * base(gamma) / demand), at most 1.

    Step k, of value k / denom, starts at the smallest SINR where the base
    reaches k * demand / denom (that product and quotient in floats), so
    every query is a closed form over the base's own inverse and no step is
    stored. The latency scheduler's scheme 1 uses denom = 2n.
    """

    base: Union[StepUtility, ShannonUtility]
    demand: float
    denom: int

    def __post_init__(self):
        if not isinstance(self.base, (StepUtility, ShannonUtility)):
            raise TypeError("rounded utility needs a step or Shannon base")
        if not 0 < self.demand < math.inf:
            raise ValueError("demand must be finite and > 0")
        if self.denom < 1:
            raise ValueError("denom must be >= 1")

    def _step_gamma(self, k: int) -> Optional[float]:
        """Where step k starts, or None when the base never reaches it."""
        return self.base.min_gamma_for(k * self.demand / self.denom)

    def _reaches(self, k: int, gamma: float) -> bool:
        # "not start > gamma": a NaN gamma, like ``StepUtility.value``'s
        # bisection, counts as beyond every step
        start = self._step_gamma(k)
        return start is not None and not start > gamma

    def value(self, gamma: float) -> float:
        # the largest k whose step starts at or below gamma; the base's value
        # puts the estimate within a step of it
        est = self.base.value(gamma) * self.denom / self.demand
        k = int(est) if est < self.denom else self.denom
        while k < self.denom and self._reaches(k + 1, gamma):
            k += 1
        while k > 0 and not self._reaches(k, gamma):
            k -= 1
        return k / self.denom

    def max_value(self, gamma_cap: float) -> float:
        return self.value(gamma_cap)

    def min_gamma_for(self, target: float) -> Optional[float]:
        k = _first_step(target, self.denom)
        return None if k > self.denom else self._step_gamma(int(k))


def _first_step(target, denom):
    """Smallest k >= 1 with k / denom >= target, compared in floats (a k
    above denom means there is none); elementwise over arrays.

    ceil(target * denom) carries one rounding, so for denom < 2^52 it is
    within one of that k: one step down and one step up find it.
    """
    k = np.ceil(target * denom)
    k -= (k - 1) / denom >= target
    k += k / denom < target
    return k


UtilitySpec = Union[StepUtility, ShannonUtility, CappedUtility, RoundedUtility]


def split_cap(u: UtilitySpec) -> tuple[float, UtilitySpec]:
    """(cap, core): the smallest cap of the utility's CappedUtility layers
    (inf without one) and the utility they wrap."""
    cap = math.inf
    while isinstance(u, CappedUtility):
        cap = u.cap if u.cap < cap else cap
        u = u.base
    return cap, u


class UtilityTable:
    """Array form of a list of uncapped utilities, one row each, for
    ``inverse_threshold``.

    Each utility is a core: a StepUtility, a ShannonUtility or a
    RoundedUtility over one of them; a CappedUtility has no array form
    (``split_cap`` separates its cap from its core). Step rows are held
    column-major, one column of the arrays per row. A RoundedUtility over
    steps is itself a step function on its base's gammas, of value
    ``value(gamma)`` at each, so it is held as a step row too. Value columns
    hold the cores' own values padded with inf, so a target above every
    value (inf among them) counts all of the row's values; gamma columns are
    padded with NaN one entry further, which is where such a target lands.
    Shannon rows hold scale and cutoff vectors, plus demand and denom for
    the rounded ones.
    """

    def __init__(self, cores: Sequence[UtilitySpec]):
        rounded = [isinstance(core, RoundedUtility) for core in cores]
        bases = [core.base if r else core for core, r in zip(cores, rounded)]
        for base in bases:
            if not isinstance(base, (StepUtility, ShannonUtility)):
                raise TypeError(f"no array form for utility of type {type(base).__name__}")
        step = [isinstance(base, StepUtility) for base in bases]
        steps = [
            [(g, core.value(g)) for g, _ in base.steps] if r else base.steps
            for core, base, r, s in zip(cores, bases, rounded, step)
            if s
        ]
        width = max(map(len, steps), default=0)
        self.step_value = np.full((width, len(steps)), math.inf)
        self.step_gamma = np.full((width + 1, len(steps)), math.nan)
        for k, row in enumerate(steps):
            self.step_gamma[: len(row), k], self.step_value[: len(row), k] = zip(*row)
        shannon = [(core, base) for core, base, s in zip(cores, bases, step) if not s]
        rounded = [isinstance(core, RoundedUtility) for core, _ in shannon]
        self.scale = np.array([base.scale for _, base in shannon])
        self.cutoff = np.array([base.cutoff for _, base in shannon])
        self.denom = np.array([c.denom for (c, _), r in zip(shannon, rounded) if r], dtype=float)
        self.demand = np.array([c.demand for (c, _), r in zip(shannon, rounded) if r])
        self._step = np.flatnonzero(step)
        self._shannon = np.flatnonzero(np.logical_not(step))
        self._rounded = np.flatnonzero(rounded)
        self._columns = np.arange(len(steps))

    def _search(self, target: np.ndarray) -> np.ndarray:
        """Smallest SINR per row reaching ``target`` (last axis over the rows),
        NaN where out of reach: the scalar queries of every family, in arrays."""
        if not self.scale.size:
            return self._step_search(target)
        # a target per row, in a fresh array: the Shannon search writes into it
        rows = len(self._step) + len(self._shannon)
        target = np.broadcast_to(target, target.shape[:-1] + (rows,)).copy()
        if not self.step_value.size:
            return self._shannon_search(target)
        gamma = np.empty(target.shape)
        gamma[..., self._step] = self._step_search(target[..., self._step])
        gamma[..., self._shannon] = self._shannon_search(target[..., self._shannon])
        return gamma

    def _step_search(self, t):
        # the first step whose value reaches t: values ascend along a column
        width, rows = self.step_value.shape
        values = self.step_value.reshape((width,) + (1,) * (t.ndim - 1) + (rows,))
        first = (values < t).sum(axis=0)
        return self.step_gamma[first, self._columns]

    def _shannon_search(self, t):
        if self.denom.size:
            r = self._rounded
            k = _first_step(t[..., r], self.denom)
            t[..., r] = np.where(k > self.denom, math.inf, k * self.demand / self.denom)
        x = t / self.scale
        # 2^x overflows exactly from x = 1024 on; below it, Python's float
        # power gives the scalar query's bits, which numpy's need not
        ok = x < 1024
        g = np.full(x.shape, math.nan)
        g[ok] = [2.0**v for v in x[ok].tolist()]
        return np.maximum(g - 1.0, self.cutoff)


def inverse_threshold(u: Union[UtilitySpec, UtilityTable], target):
    """Smallest SINR gamma with u(gamma) >= target, or None if unreachable.

    The returned gamma is always >= 1, because utilities vanish below 1.
    For a ``UtilityTable``, ``target`` is an array whose last axis runs over
    the rows (or broadcasts to them), and the result is the array of gammas
    with NaN where a row cannot reach its target.
    """
    if isinstance(u, UtilityTable):
        target = np.asarray(target, dtype=np.float64)
        if not (target > 0).all():
            raise ValueError("target value must be > 0")
        gamma = u._search(target)
        low = (gamma < 1).any()
    else:
        if not target > 0:
            raise ValueError("target value must be > 0")
        gamma = u.min_gamma_for(target)
        low = gamma is not None and gamma < 1
    if low:
        raise UtilityContractError("utility reached a positive value below SINR 1")
    return gamma


def scaled(u: UtilitySpec, factor: float) -> UtilitySpec:
    """``u`` with every value multiplied by ``factor``."""
    if isinstance(u, StepUtility):
        return StepUtility(tuple((g, v * factor) for g, v in u.steps))
    if isinstance(u, ShannonUtility):
        return ShannonUtility(scale=u.scale * factor, cutoff=u.cutoff)
    raise TypeError(f"cannot scale utility of type {type(u).__name__}")
