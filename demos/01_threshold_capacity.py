"""Threshold capacity maximization on a small random world.

Walks through the SINR evaluation, the sensitivity ordering, and the three
solvers (unlimited, fixed, capped powers), re-checking every claim the
solvers make.
"""

import math

import sinrsched as ss

# A 12-link world in a 500 m square, path loss alpha=2, unit noise.
config = ss.GenConfig(
    n=12, seed=2024, area=500.0, d_range=(2.0, 60.0), beta_range=(1.0, 6.0), p_max=40_000.0
)
instance = ss.gen_random(config)

print("=== the world ===")
for link in instance.links:
    print(
        f"link {link.id}: length {instance.length(link.id):7.2f}  "
        f"threshold {link.threshold:4.2f}  sensitivity {link.threshold * instance.length(link.id)**2:10.1f}"
    )

order = ss.sensitivity_order(instance)
print("\nprocessing order (most sensitive first):", order)
print("greedy budget tau =", ss.weight_budget(instance.alpha))

print("\n=== unlimited powers ===")
sol = ss.solve_unlimited(instance)
print("selected:", sol.selected)
# recompute the SINRs from the geometry instead of trusting sol.sinr
gammas = ss.evaluate_sinrs(instance, sol.selected, sol.powers)
for lid, gamma in gammas.items():
    beta = instance.link(lid).threshold
    print(f"  link {lid}: power {sol.powers[lid]:12.4f}  SINR {gamma:8.3f} >= beta {beta:4.2f}")

print("\n=== capped powers (p_max = %.0f) ===" % instance.p_max)
sol_cap = ss.solve_limited(instance)
print("selected:", sol_cap.selected)
print("max assigned power:", max(sol_cap.powers.values()) if sol_cap.powers else 0.0)
assert all(p <= instance.p_max for p in sol_cap.powers.values())

print("\n=== uniform fixed powers ===")
uniform = {lid: instance.p_max for lid in instance.link_ids}
sol_fix = ss.solve_fixed(instance, powers=uniform)
print("selected:", sol_fix.selected)

print("\n=== oracle certification ===")
for name, s, cap in (
    ("unlimited", sol, math.inf),
    ("limited", sol_cap, instance.p_max),
):
    cert = ss.check_admissible(instance, s.selected, cap=cap)
    print(f"{name}: oracle says feasible={cert.feasible} ({cert.method})")
