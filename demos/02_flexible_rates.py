"""Flexible data rates: arbitrary utility functions over the SINR.

Shows the two oracle queries a utility must answer, then the level sweep
that turns the threshold solver into a flexible-rate solver.
"""

import sinrsched as ss

# a step utility (discrete modulation schemes) and a Shannon-style curve
step = ss.StepUtility(((1.0, 0.5), (4.0, 1.5), (16.0, 2.5)))
shannon = ss.ShannonUtility(scale=0.8, cutoff=1.0)

print("=== the two utility queries ===")
for gamma_cap in (2.0, 8.0, 64.0):
    print(
        f"cap {gamma_cap:5.1f}: step max {step.max_value(gamma_cap):4.2f}   "
        f"shannon max {shannon.max_value(gamma_cap):5.3f}"
    )
for target in (0.5, 1.5, 2.5):
    print(
        f"target {target}: step needs SINR {ss.inverse_threshold(step, target)}   "
        f"shannon needs SINR {ss.inverse_threshold(shannon, target):.3f}"
    )

# six links, random step utilities, bounded powers
config = ss.GenConfig(
    n=6,
    seed=7,
    area=300.0,
    d_range=(1.0, 40.0),
    beta_range=(1.0, 2.0),
    utility={"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0},
    p_max=50_000.0,
)
instance = ss.gen_random(config)

print("\n=== level sweep (limited powers) ===")
run = ss.solve_flexible(instance, mode="limited")
print(f"top single-link value B = {run.top_value:.3f}, {len(run.levels)} levels")
for level in run.levels:
    print(
        f"level {level.index}: target {level.target:6.3f}  "
        f"candidates {len(level.thresholds):2d}  selected {level.solution.selected}  "
        f"realized value {level.objective:6.3f}"
    )
print(f"best level: {run.best_index} with value {run.objective:.3f}")

# compare against the exact optimum under uniform fixed powers
uniform = {lid: instance.p_max for lid in instance.link_ids}
fixed_run = ss.solve_flexible(instance, mode="fixed", powers=uniform)
opt_ids, opt_val = ss.brute_opt_flexible_fixed(instance, powers=uniform)
print("\n=== uniform powers vs exhaustive optimum ===")
print(f"flexible solver: value {fixed_run.objective:.3f} on {fixed_run.solution.selected}")
print(f"brute force:     value {opt_val:.3f} on {opt_ids}")
