"""Scaling measured times to a reference machine speed.

On a shared machine the speed of the same code drifts by tens of percent
over seconds to minutes (a fixed pure-Python loop, timed in 1 s windows over
5 minutes on a shared 2-vCPU virtual machine with 7 GB RAM, had an
interquartile range of 26 % of its median). Longer runs do not average this
out. So the benchmark times a fixed calibration unit, which calls nothing
from the library, between ops at least every CAL_INTERVAL_S, and scales each
op's measured time by REFERENCE_S over the mean of the calibration times
taken just before and just after it. A reported time is then the time the
op would take on a machine where the unit takes REFERENCE_S. Only the
library's code can change an op's scaled time; the raw times are reported
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CAL_INTERVAL_S = 0.2
REFERENCE_S = 0.01  # calibration unit time defining the reference speed


class SpeedNormalizer:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.uniform(0.0, 1000.0, size=(120, 2))
        self._b = rng.uniform(0.0, 1000.0, size=(120, 2))
        self._m = rng.uniform(0.0, 0.1, size=(8, 8))
        self.samples: list[float] = []
        self._pending: list[float] = []
        self._scaled: list[float] = []
        self._last = self._measure()
        self._last_at = time.perf_counter()

    def _unit(self):
        # Interpreted Python, many tiny numpy calls and small array kernels in
        # time shares of 1:1:2. Of the mixes tried (these three plus a
        # memory-bound 300x300 kernel, each weighted 0, 1 or 2), this one
        # tracked all four workloads' drift best.
        acc = 0
        for i in range(40_000):
            acc += i * i
        x = np.ones(8)
        for _ in range(400):
            x = self._m @ x + 1.0
            if np.any(x < 0):
                break
        for _ in range(4):
            d = np.sqrt(((self._a[:, None, :] - self._b[None, :, :]) ** 2).sum(axis=2))
            for _ in range(20):
                d = np.minimum(d, d.T) ** 1.0
        return acc, x, d

    def _measure(self) -> float:
        t0 = time.perf_counter()
        self._unit()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def add(self, seconds: float):
        """Record one measured time; calibrate if the interval has passed."""
        self._pending.append(seconds)
        if time.perf_counter() - self._last_at >= CAL_INTERVAL_S:
            self._flush()

    def _flush(self):
        now = self._measure()
        factor = REFERENCE_S / ((self._last + now) / 2.0)
        self._scaled += [t * factor for t in self._pending]
        self._pending = []
        self._last = now
        self._last_at = time.perf_counter()

    def take(self) -> list[float]:
        """Scaled times of everything added since the last take, in order."""
        if self._pending:
            self._flush()
        out, self._scaled = self._scaled, []
        return out

    def summary(self) -> dict:
        q = statistics.quantiles(self.samples, n=4) if len(self.samples) > 1 else [0.0, 0.0, 0.0]
        return {"reference_s": REFERENCE_S, "samples": len(self.samples),
                "median_s": statistics.median(self.samples), "q1_s": q[0], "q3_s": q[2]}
