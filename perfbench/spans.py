"""Span tracer that wraps the library's public functions from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``sinrsched`` module that binds it (``model.geometry``, ``capacity.geometry``,
``oracle.geometry``, ...), so calls between library modules are seen too.
``uninstall`` puts the originals back, so untraced passes run unwrapped code.

Each call records one span: layer name, start, end, parent span, the op it
belongs to, and whether the op ran or its output was being checked. Spans
stay in memory in flat arrays and are written out once, at the end of the
run. A layer's self time is its span's duration minus the durations of its
direct child spans (calls are nested, never concurrent).
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

# module -> traced public functions; the layer name is "<module>.<function>"
TARGETS = {
    "generate": ("gen_random",),
    "model": ("geometry", "sensitivity_order", "evaluate_sinrs"),
    "capacity": ("solve_unlimited", "solve_limited", "solve_fixed", "check_power_preconditions"),
    "flexible": ("solve_flexible",),
    "utility": ("inverse_threshold",),
    "latency": ("solve_latency",),
    "oracle": ("check_admissible", "spectral_admissible", "brute_opt_threshold"),
    "verify": ("verify_solution", "verify_schedule"),
    "experiments": ("experiment_ratio",),
    "cli": ("main",),
}
LAYERS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# per-layer stats beyond calls and self time: layer -> {stat: unit}. A stat
# named in RATIOS is the quotient of two raw counters; the others are raw
# counters summed over a pass.
COUNTERS = {
    "model.geometry": {"links": "count", "bytes_computed": "B"},
    "capacity.solve_unlimited": {"accept_ratio": "ratio"},
    "capacity.solve_limited": {"accept_ratio": "ratio"},
    "capacity.solve_fixed": {"accept_ratio": "ratio"},
    "flexible.solve_flexible": {"levels": "count", "useful_ratio": "ratio"},
    "latency.solve_latency": {"slots": "count", "stalls": "count"},
    "oracle.check_admissible": {"iterations": "count", "feasible_ratio": "ratio"},
    "cli.main": {"bytes_read": "B", "bytes_written": "B"},
}
RATIOS = {
    "accept_ratio": ("accepted", "tried"),
    "useful_ratio": ("useful_levels", "levels"),
    "feasible_ratio": ("feasible", "calls"),
}


def _solution_trace(counts, sol):
    counts["tried"] += len(sol.trace)
    counts["accepted"] += sum(1 for row in sol.trace if row[1])


def _geometry(counts, out):
    counts["links"] += out.n
    # cross_alpha and gain: two dense k x k float64 arrays per call (computed, not measured)
    counts["bytes_computed"] += 16 * out.n * out.n


def _flexible(counts, run):
    # a level is useful when its solution realizes positive value
    counts["levels"] += len(run.levels)
    counts["useful_levels"] += sum(1 for level in run.levels if level.objective > 0)


def _latency(counts, schedule):
    counts["slots"] += len(schedule.slots)
    counts["stalls"] += sum(1 for run in schedule.runs.values() if run is not None and run.stalled)


def _oracle(counts, cert):
    counts["iterations"] += cert.iterations
    counts["feasible"] += int(cert.feasible)


# hooks that read counters from a traced call's result
RESULT_HOOKS = {
    "model.geometry": _geometry,
    "capacity.solve_unlimited": _solution_trace,
    "capacity.solve_limited": _solution_trace,
    "capacity.solve_fixed": _solution_trace,
    "flexible.solve_flexible": _flexible,
    "latency.solve_latency": _latency,
    "oracle.check_admissible": _oracle,
}


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _cli_paths(argv, flags):
    argv = list(argv or ())
    return [argv[k + 1] for k, arg in enumerate(argv[:-1]) if arg in flags]


class Tracer:
    """Records spans and counters for the traced library layers."""

    def __init__(self):
        self.name_ids = {name: k for k, name in enumerate(LAYERS)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.phase = array("b")  # 0 while an op runs, 1 while its output is checked
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.phase_id = 0
        self.pass_start: list[int] = []  # first span index of each traced pass
        self.counts: list[dict] = []     # per traced pass: layer -> counter -> value
        self._originals: dict = {}

    # -- pass bookkeeping -------------------------------------------------
    def begin_pass(self):
        self.pass_start.append(len(self.name))
        self.counts.append({name: _zero_counts() for name in LAYERS})

    # -- wrapping ---------------------------------------------------------
    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sinrsched" or key.startswith("sinrsched."))]
        for mod, fns in TARGETS.items():
            home = sys.modules[f"sinrsched.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for module in modules:
                    for attr, val in list(vars(module).items()):
                        if val is original:
                            setattr(module, attr, wrapper)
                            self._originals[(module, attr)] = original

    def uninstall(self):
        for (module, attr), original in self._originals.items():
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, layer, original):
        name_id = self.name_ids[layer]
        hook = RESULT_HOOKS.get(layer)
        is_cli = layer == "cli.main"
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            counts = tracer.counts[-1][layer]
            if is_cli:
                argv = args[0] if args else kwargs.get("argv")
                counts["bytes_read"] += sum(
                    _file_size(p) for p in _cli_paths(argv, ("--instance", "--artifact"))
                )
            idx = len(tracer.name)
            tracer.name.append(name_id)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.phase.append(tracer.phase_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            t0 = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                counts["calls"] += 1
            if hook is not None:
                hook(counts, out)
            if is_cli:
                counts["bytes_written"] += sum(_file_size(p) for p in _cli_paths(argv, ("--out",)))
            return out

        traced.__wrapped__ = original
        return traced

    # -- results ----------------------------------------------------------
    def self_times(self) -> list[dict]:
        """Per traced pass: layer -> summed self time in seconds."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        bounds = self.pass_start + [len(dur)]
        out = []
        for a, b in zip(bounds, bounds[1:]):
            per_name = np.bincount(name[a:b], weights=own[a:b], minlength=len(LAYERS))
            out.append({layer: float(per_name[k]) for k, layer in enumerate(LAYERS)})
        return out

    def write(self, path):
        """Write every recorded span as compressed arrays."""
        np.savez_compressed(
            path,
            layers=np.array(LAYERS),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            phase=np.frombuffer(self.phase, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            pass_start=np.array(self.pass_start, dtype=np.int64),
        )


def _zero_counts():
    return {
        "calls": 0, "links": 0, "bytes_computed": 0, "tried": 0, "accepted": 0,
        "levels": 0, "useful_levels": 0, "slots": 0, "stalls": 0, "iterations": 0,
        "feasible": 0, "bytes_read": 0, "bytes_written": 0,
    }


def layer_metrics(counts: dict, self_s: dict) -> dict:
    """Per-layer metric values of one traced pass, named <layer>.<stat>."""
    out = {}
    for layer in LAYERS:
        c = counts[layer]
        out[f"{layer}.calls"] = (c["calls"], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        for stat, unit in COUNTERS.get(layer, {}).items():
            if stat in RATIOS:
                num, den = RATIOS[stat]
                value = c[num] / c[den] if c[den] else 0.0
            else:
                value = c[stat]
            out[f"{layer}.{stat}"] = (value, unit)
    return out
