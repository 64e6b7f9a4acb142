"""Exact oracles: the minimal-power linear solve, the spectral test, and
brute-force optima as a yardstick for the greedy solvers."""

import math
from itertools import combinations

import numpy as np

import sinrsched as ss

# a hand-built symmetric pair: own length 1, cross distances 2
instance = ss.gen_line([(0, 1, 1), (3, 2, 1)], alpha=2, noise=1e-6)

print("=== admissibility two ways ===")
B = ss.relative_interference_matrix(instance, [0, 1])
print("relative interference matrix:\n", np.round(B, 4))
print("spectral radius:", ss.spectral_radius(B))
cert = ss.check_admissible(instance, [0, 1], cap=math.inf)
print(f"linear solve: feasible={cert.feasible}, minimal powers {cert.powers}")

# push the thresholds up until the pair stops being admissible
for beta in (1.0, 2.0, 3.0, 4.0, 5.0):
    scaled = {0: beta, 1: beta}
    ls = ss.check_admissible(instance, [0, 1], cap=math.inf, thresholds=scaled).feasible
    sp = ss.spectral_admissible(instance, [0, 1], thresholds=scaled)
    print(f"beta={beta}: linear solve {ls}, spectral {sp}")

print("\n=== greedy vs exhaustive search ===")
config = ss.GenConfig(n=9, seed=12, area=400.0, d_range=(1.0, 50.0), beta_range=(1.0, 4.0))
world = ss.gen_random(config)
sol = ss.solve_unlimited(world)
opt_ids, opt_size = ss.brute_opt_threshold(world, regime="variable")
print(f"greedy selects {len(sol.selected)} links: {sol.selected}")
print(f"optimum holds  {opt_size} links: {opt_ids}")
print(f"|OPT|/|ALG| = {opt_size / len(sol.selected):.2f}")

print("\n=== subset monotonicity spot check ===")
feasible_subsets = sum(
    ss.check_admissible(world, combo, cap=math.inf).feasible
    for size in (1, 2, 3)
    for combo in combinations(world.link_ids, size)
)
print(f"{feasible_subsets} feasible subsets of size <= 3")
