"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every tolerance is pinned here; nothing is deferred.
"""

import math
import time
from itertools import combinations

import pytest

from sinrsched import (
    FEAS_RTOL,
    GenConfig,
    check_admissible,
    evaluate_sinrs,
    gen_greedy_adversary,
    gen_random,
    reverse_dual,
    simulate_aloha,
    solve_flexible,
    solve_latency,
    solve_limited,
    solve_unlimited,
    spectral_admissible,
    strengthen,
    brute_opt_flexible_fixed,
)
from sinrsched.experiments import experiment_ratio, harvest_admissible_sets
from sinrsched.latency import loose_length_bound

CAP_RTOL = 1e-12


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"{status} criterion {num}: {detail} ({elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed <= budget, f"criterion {num} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_1_unlimited_feasibility():
    """1000 random instances: every selected link meets its threshold."""
    started = time.perf_counter()
    violations = 0
    for t in range(1000):
        n = t % 50 + 1
        alpha = (2.0, 2.5, 4.0)[t % 3]
        inst = gen_random(GenConfig(n=n, seed=10_000 + t, alpha=alpha, beta_range=(1.0, 10.0)))
        sol = solve_unlimited(inst)
        sinrs = evaluate_sinrs(inst, sol.selected, sol.powers)
        for lid in sol.selected:
            if sinrs[lid] < inst.link(lid).threshold * (1 - FEAS_RTOL):
                violations += 1
    _report(
        1,
        violations == 0,
        f"unlimited-power feasibility, {violations} threshold violations in 1000 instances",
        time.perf_counter() - started,
        60.0,
    )


def test_criterion_2_limited_power_cap_and_feasibility():
    """1000 random instances with finite caps: powers within p_max, SINRs ok."""
    started = time.perf_counter()
    cap_violations = 0
    sinr_violations = 0
    for t in range(1000):
        n = t % 50 + 1
        alpha = (2.0, 2.5, 4.0)[t % 3]
        p_max = 20.0 * 30.0**alpha
        inst = gen_random(
            GenConfig(n=n, seed=20_000 + t, alpha=alpha, beta_range=(1.0, 10.0), p_max=p_max)
        )
        sol = solve_limited(inst)
        sinrs = evaluate_sinrs(inst, sol.selected, sol.powers)
        for lid in sol.selected:
            if sol.powers[lid] > p_max * (1 + CAP_RTOL):
                cap_violations += 1
            if sinrs[lid] < inst.link(lid).threshold * (1 - FEAS_RTOL):
                sinr_violations += 1
    _report(
        2,
        cap_violations == 0 and sinr_violations == 0,
        f"limited-power cap ({cap_violations} cap, {sinr_violations} SINR violations in 1000 instances)",
        time.perf_counter() - started,
        60.0,
    )


def test_criterion_3_oracle_cross_validation():
    """Linear-solve and spectral admissibility agree on every small subset."""
    started = time.perf_counter()
    mismatches = 0
    checked = 0
    for t in range(500):
        n = t % 6 + 1
        inst = gen_random(GenConfig(n=n, seed=30_000 + t, noise=1e-9, beta_range=(1.0, 10.0)))
        ids = list(inst.link_ids)
        for size in range(1, len(ids) + 1):
            for combo in combinations(ids, size):
                ls = check_admissible(inst, combo, cap=math.inf).feasible
                sp = spectral_admissible(inst, combo)
                mismatches += ls != sp
                checked += 1
    _report(
        3,
        mismatches == 0,
        f"linear solve vs spectral radius, {mismatches} mismatches over {checked} subsets",
        time.perf_counter() - started,
        120.0,
    )


def test_criterion_4_threshold_ratios_vs_brute_force():
    """200 desk-scale instances: algorithms never empty against nonempty OPT,
    all outputs oracle-certified; empirical ratio distribution reported."""
    started = time.perf_counter()
    report = experiment_ratio(n=10, trials=200, seed=4)
    summary = report["summary"]
    detail = (
        "|OPT|/|ALG| median: "
        + ", ".join(
            f"{name} {summary[f'{name}_ratio']['median']}" for name in ("unlimited", "limited", "fixed")
        )
        + f"; {summary['violations']} certification failures,"
        + f" {summary['empty_vs_nonempty']} empty-vs-nonempty cases"
    )
    _report(
        4,
        summary["violations"] == 0 and summary["empty_vs_nonempty"] == 0,
        detail,
        time.perf_counter() - started,
        300.0,
    )


def test_criterion_5_flexible_vs_exact_fixed_optimum():
    """Realized utility stays within 4*(ceil(log2 n)+1) of the exact optimum."""
    started = time.perf_counter()
    failures = 0
    ratios = []
    for t in range(200):
        n = t % 10 + 1
        inst = gen_random(
            GenConfig(
                n=n,
                seed=50_000 + t,
                area=300.0,
                d_range=(1.0, 40.0),
                beta_range=(1.0, 3.0),
                utility={"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0},
                noise=1.0,
                p_max=1e5,
            )
        )
        uniform = {lid: 2000.0 for lid in inst.link_ids}
        run = solve_flexible(inst, mode="fixed", powers=uniform)
        _, opt_val = brute_opt_flexible_fixed(inst, powers=uniform)
        if opt_val <= 0:
            continue
        bound = 4.0 * (max(0, math.ceil(math.log2(n))) + 1)
        if run.objective < opt_val / bound - 1e-12:
            failures += 1
        ratios.append(opt_val / run.objective if run.objective > 0 else math.inf)
    ratios.sort()
    detail = (
        f"u(OPT)/u(ALG) min {ratios[0]:.3f} median {ratios[len(ratios)//2]:.3f} "
        f"max {ratios[-1]:.3f}; {failures} bound violations"
    )
    _report(5, failures == 0, detail, time.perf_counter() - started, 300.0)


def test_criterion_6_latency_fulfillment_and_progress():
    """Schedules fulfill demands, every slot is certified feasible, lengths
    stay under the loose bound, and scheme-2 slots make provable progress."""
    started = time.perf_counter()
    problems = []
    for t in range(100):
        n = t % 12 + 1
        inst = gen_random(
            GenConfig(
                n=n,
                seed=60_000 + t,
                area=300.0,
                d_range=(1.0, 30.0),
                beta_range=(1.0, 2.0),
                utility={"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0},
                demand_range=(0.5, 3.0),
                noise=1.0,
            )
        )
        demanding = [lid for lid in inst.link_ids if inst.link(lid).demand]
        if not demanding:
            continue
        sched = solve_latency(inst)
        if not sched.fulfilled:
            problems.append(f"instance {t}: demands unfulfilled in scheme units")
        if sched.scheme == 2 and not sched.fulfilled_original:
            problems.append(f"instance {t}: original demands unfulfilled")
        if len(sched.slots) > loose_length_bound(inst):
            problems.append(f"instance {t}: schedule too long")
        for s, slot in enumerate(sched.slots):
            cert = check_admissible(
                inst, slot.solution.selected, cap=math.inf, thresholds=slot.thresholds
            )
            if not cert.feasible:
                problems.append(f"instance {t} slot {s}: not oracle-certified")
        for s, slot in enumerate(sched.runs[2].slots):
            if not slot.completed and slot.utility < 1.0 - 1e-9:
                problems.append(f"instance {t} slot {s}: no completion and value < 1")
    _report(
        6,
        not problems,
        f"latency contract over 100 instances; first issue: {problems[0] if problems else 'none'}",
        time.perf_counter() - started,
        300.0,
    )


@pytest.fixture(scope="module")
def harvested_sets():
    return harvest_admissible_sets(100, seed=7)


def test_criterion_7_signal_strengthening(harvested_sets):
    """Decompositions stay within ceil(2c)^2 parts, all parts certified."""
    started = time.perf_counter()
    problems = 0
    for instance, selected, powers in harvested_sets:
        for c in (1.0, 2.0, 3.0):
            deco = strengthen(instance, selected, powers, c)
            if len(deco.parts) > math.ceil(2 * c) ** 2:
                problems += 1
            for part in deco.parts:
                cert = check_admissible(
                    instance,
                    part,
                    cap=math.inf,
                    thresholds={lid: c * instance.link(lid).threshold for lid in part},
                )
                if not cert.feasible:
                    problems += 1
    _report(
        7,
        problems == 0,
        f"signal strengthening over 100 sets x 3 scales, {problems} violations",
        time.perf_counter() - started,
        120.0,
    )


def test_criterion_8_link_reversal(harvested_sets):
    """Reversal keeps at least |L|/72 links, certified on reversed geometry."""
    started = time.perf_counter()
    problems = 0
    for instance, selected, powers in harvested_sets:
        subset, fragment = reverse_dual(instance, selected, powers)
        if len(subset) < max(1, len(selected) // 72):
            problems += 1
        if not check_admissible(fragment, subset, cap=math.inf).feasible:
            problems += 1
    _report(
        8,
        problems == 0,
        f"link reversal over 100 sets, {problems} violations",
        time.perf_counter() - started,
        120.0,
    )


def test_criterion_9_greedy_gap():
    """The k=8 adversary: greedy takes one link, the oracle certifies eight."""
    started = time.perf_counter()
    inst = gen_greedy_adversary(8)
    sol = solve_unlimited(inst)
    reversed_ids = list(range(1, 9))
    cert = check_admissible(inst, reversed_ids, cap=math.inf)
    ratio = len(reversed_ids) / len(sol.selected) if sol.selected else math.inf
    _report(
        9,
        len(sol.selected) == 1 and cert.feasible and ratio >= 8.0,
        f"greedy selects {len(sol.selected)} link(s), oracle certifies 8 reversed, ratio {ratio:.0f}",
        time.perf_counter() - started,
        1.0,
    )


def test_criterion_10_aloha_lower_bound():
    """k=32 uniform ALOHA: finishing within k/16 rounds stays improbable."""
    started = time.perf_counter()
    result = simulate_aloha(32, probs="uniform", trials=400, seed=10)
    _report(
        10,
        result.fraction_fast <= 0.5,
        f"P(T <= {result.threshold_rounds:.0f}) = {result.fraction_fast:.3f} <= 0.5",
        time.perf_counter() - started,
        30.0,
    )
