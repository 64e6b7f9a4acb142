"""One workload in one process: set up, run timed passes, check, report.

Started by ``run.py``, which pins the BLAS/OpenMP thread counts before this
process imports numpy. Set-up (input generation, file writing and one
discarded warm-up op) runs SETUP_REPEATS times; ``setup_s`` is the median.
Then the workload's fixed op list runs round(--seconds / pass_s) times, where
pass_s is the workload's pass time at reference speed when the benchmark was
defined: every run, on every commit, times the same number of passes, so the
op count and the ops the tail percentile lands on do not change from run to
run. Only library calls are timed, and each time is scaled to a reference
machine speed (see speed.py); every output is checked after its pass. With ``--trace 1`` passes
alternate untraced and traced, and the per-layer metrics come from the
traced ones.

The last line of stdout is the result JSON; the lines before it are a report
with every metric's unit and sample count, the environment and the result
digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
MIN_PASSES = 3
HARD_LIMIT_S = 120.0  # stop starting passes after this, whatever the minimums say
TAIL_BEYOND = 10      # ops beyond the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "selected_links": "count",
}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_library():
    if not (SRC / "sinrsched" / "__init__.py").is_file():
        fail(f"library source not found under {SRC.name}/sinrsched")
    sys.path.insert(0, str(SRC))
    import sinrsched

    if Path(sinrsched.__file__).resolve().parent != SRC / "sinrsched":
        fail(f"imported sinrsched from {sinrsched.__file__}, not from this checkout")
    return sinrsched


def environment() -> dict:
    import numpy as np

    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=20).stdout.strip() or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unavailable"
    src = hashlib.sha256()
    for path in sorted((SRC / "sinrsched").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": rev,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "settings": {k: os.environ.get(k) for k in (*PINNED, "SINRSCHED_THREADS")},
    }


def tail(times):
    """Highest percentile with TAIL_BEYOND ops beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_pass(plan, tracer, corrupt, speed):
    """Run every op, then check every output. Returns (raw op times, results);
    the scaled op times are left in ``speed``."""
    clock = time.perf_counter
    outputs, times = [], []
    if tracer is not None:
        tracer.begin_pass()
        tracer.install()
    try:
        for k, op in enumerate(plan.ops):
            if tracer is not None:
                tracer.op_id, tracer.phase_id = k, 0
            t0 = clock()
            try:
                out, err = op.call(), None
            except Exception as exc:  # an op that raises counts as failed
                out, err = None, f"{type(exc).__name__}: {exc}"
            times.append(clock() - t0)
            speed.add(times[-1])
            if corrupt and k == 0 and err is None:
                out = op.corrupt(out)
            outputs.append((out, err))
        results = []
        for k, (op, (out, err)) in enumerate(zip(plan.ops, outputs)):
            if tracer is not None:
                tracer.op_id, tracer.phase_id = k, 1
            if err is not None:
                results.append((op.label, [f"raised {err}"], {}))
                continue
            try:
                problems, record = op.check(out)
            except Exception as exc:  # a malformed output must not abort the run
                problems, record = [f"check raised {type(exc).__name__}: {exc}"], {}
            results.append((op.label, problems, record))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return times, results


def pass_summary(results) -> dict:
    records = [r.get("digest") for _, _, r in results]
    total = lambda key: sum(r.get(key, 0) for _, _, r in results)
    out = {
        "digest": hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest(),
        "selected_links": total("selected_links"),
        "failed": sum(1 for _, problems, _ in results if problems),
    }
    if any("schedule_slots" in r for _, _, r in results):
        out["schedule_slots"] = total("schedule_slots")
    if any("opt" in r for _, _, r in results):
        alg = total("alg")
        out["opt_over_alg"] = total("opt") / alg if alg else None
    warned = total("warnings")
    if warned:
        out["warnings"] = warned
    return out


def set_up(build, args, workdir, speed):
    """Build the plan SETUP_REPEATS times; returns (plan, scaled times, raw times)."""
    raw = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        plan = build(args.seed, args.tiny, workdir)
        plan.warmup.call()  # discarded warm-up op
        raw.append(time.perf_counter() - t0)
        speed.add(raw[-1])
    return plan, speed.take(), raw


def measure(plan, args, passes, speed, tracer) -> dict:
    """Run the untraced passes (and, with a tracer, as many traced ones,
    alternating); go on while fewer than TAIL_BEYOND + 1 ops were timed."""
    m = {"walls": [], "raw_walls": [], "traced_walls": [], "traced_scale": [], "op_times": [],
         "raw_op_times": [], "summaries": [], "problems": [], "attempted": 0, "failed": 0}
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(m["walls"]) > len(m["traced_walls"])
        raw, results = run_pass(plan, tracer if traced else None, args.corrupt, speed)
        times = speed.take()
        if traced:
            m["traced_walls"].append(sum(times))
            m["traced_scale"].append(sum(times) / sum(raw))
        else:
            m["walls"].append(sum(times))
            m["raw_walls"].append(sum(raw))
            m["op_times"] += times
            m["raw_op_times"] += raw
        summary = pass_summary(results)
        m["summaries"].append(summary)
        m["attempted"] += len(results)
        m["failed"] += summary["failed"]
        m["problems"] += [f"{label}: {p}" for label, ps, _ in results for p in ps]
        enough = (len(m["walls"]) >= passes and len(m["op_times"]) > TAIL_BEYOND
                  and (tracer is None or len(m["traced_walls"]) >= len(m["walls"])))
        if enough or time.perf_counter() - begin >= HARD_LIMIT_S:
            return m


def end_to_end(m, setup_times, peak_rss_mb) -> dict:
    """name -> (value, unit, samples, extra report fields)."""
    tail_ms, tail_pct = tail(m["op_times"])
    first, passes, ops = m["summaries"][0], len(m["summaries"]), len(m["op_times"])
    out = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (statistics.median(m["walls"]), "s", len(m["walls"])),
        "op_p50_ms": (1000.0 * statistics.median(m["op_times"]), "ms", ops),
        "op_tail_ms": (1000.0 * tail_ms, "ms", ops, {"percentile": tail_pct}),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "selected_links": (first["selected_links"], "count", passes),
        "failed_frac": (m["failed"] / m["attempted"], "ratio", m["attempted"]),
    }
    if "schedule_slots" in first:
        out["schedule_slots"] = (first["schedule_slots"], "count", passes)
    if "opt_over_alg" in first:
        out["opt_over_alg"] = (first["opt_over_alg"], "ratio", passes)
    return out


def per_layer(m, tracer) -> dict:
    """Per-layer metrics: median over traced passes, self times scaled like op times."""
    from spans import layer_metrics

    per_pass = [layer_metrics(c, {layer: t * f for layer, t in s.items()})
                for c, s, f in zip(tracer.counts, tracer.self_times(), m["traced_scale"])]
    out = {name: {"value": statistics.median(p[name][0] for p in per_pass), "unit": unit}
           for name, (_, unit) in per_pass[0].items()}
    out["trace.overhead_frac"] = {
        "value": statistics.median(m["traced_walls"]) / statistics.median(m["walls"]) - 1.0,
        "unit": "ratio",
    }
    return out


def main():
    # SIGTERM unwinds like an exception, so the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage the first output of each pass, for the self-test")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if any(os.environ.get(k) != v for k, v in PINNED.items()) or "SINRSCHED_THREADS" in os.environ:
        fail("thread settings are not pinned; start the benchmark through perfbench/run.py")

    import_library()
    env = environment()
    from speed import SpeedNormalizer
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    build, pass_s = WORKLOADS[args.workload]
    passes = max(MIN_PASSES, round(args.seconds / pass_s))
    if args.trace:  # the traced passes take the other half of the time
        passes = max(2, passes // 2)
    workdir = OUT / f"work-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        speed = SpeedNormalizer()
        plan, setup_times, raw_setup = set_up(build, args, workdir, speed)
        m = measure(plan, args, passes, speed, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(m, setup_times, peak_rss_mb)
    digests = sorted({s["digest"] for s in m["summaries"]})
    problems = m["problems"]
    if len(digests) > 1:
        problems.append(f"passes disagree: {len(digests)} distinct result digests")
    correct = m["failed"] == 0 and len(digests) == 1
    metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    if tracer is not None:
        metrics = per_layer(m, tracer)
        silent = [layer for layer in plan.layers if metrics[f"{layer}.calls"]["value"] == 0]
        if silent:
            correct = False
            problems.append(f"layers with zero calls in a traced pass: {', '.join(silent)}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.npz")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "corrupt": args.corrupt,
        "plan": plan.notes, "ops_per_pass": len(plan.ops),
        "passes": {"untraced": len(m["walls"]), "traced": len(m["traced_walls"])},
        "pass_walls_s": m["walls"], "traced_pass_walls_s": m["traced_walls"],
        "setup_times_s": setup_times,
        "metrics": {name: {"value": v[0], "unit": v[1], "samples": v[2], **(v[3] if len(v) > 3 else {})}
                    for name, v in e2e.items()},
        "unscaled": {"wall_s": statistics.median(m["raw_walls"]),
                     "setup_s": statistics.median(raw_setup),
                     "op_p50_ms": 1000.0 * statistics.median(m["raw_op_times"]),
                     "op_tail_ms": 1000.0 * tail(m["raw_op_times"])[0]},
        "speed_calibration": speed.summary(),
        "attempted": m["attempted"], "failed": m["failed"], "result_digests": digests,
        "environment": env, "problems": problems[:20],
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    for p in problems[:5]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": m["attempted"], "failed": m["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
