"""SINR link scheduling with flexible data rates.

Greedy capacity maximization under individual SINR thresholds (unlimited,
fixed and capped transmission powers), a logarithmic-level wrapper for
arbitrary utility functions, a demand-driven latency scheduler, exact
oracles, constructive decomposition procedures and adversarial lower-bound
experiments.
"""

from .capacity import (
    SECOND_PASS_BUDGET,
    solve_fixed,
    solve_limited,
    solve_unlimited,
    weight_budget,
)
from .flexible import FlexibleLevel, FlexibleRun, solve_flexible
from .generate import GenConfig, gen_line, gen_random
from .latency import Schedule, SchemeRun, Slot, UnschedulableDemand, solve_latency
from .lemmas import (
    AlohaResult,
    CertificationError,
    Decomposition,
    aloha_instance,
    gen_greedy_adversary,
    markov_survivors,
    reverse_dual,
    reversed_instance,
    simulate_aloha,
    strengthen,
)
from .model import (
    FEAS_RTOL,
    INF,
    Instance,
    Link,
    MetricSpace,
    Solution,
    evaluate_sinrs,
    sensitivity_order,
    utility_from_dict,
    utility_to_dict,
)
from .oracle import (
    AdmissibilityCertificate,
    brute_opt_flexible_fixed,
    brute_opt_threshold,
    check_admissible,
    relative_interference_matrix,
    spectral_admissible,
    spectral_radius,
)
from .utility import (
    CappedUtility,
    ShannonUtility,
    StepUtility,
    UnboundedObjective,
    UtilityContractError,
    inverse_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityCertificate",
    "AlohaResult",
    "CappedUtility",
    "CertificationError",
    "Decomposition",
    "FEAS_RTOL",
    "FlexibleLevel",
    "FlexibleRun",
    "GenConfig",
    "INF",
    "Instance",
    "Link",
    "MetricSpace",
    "Schedule",
    "SchemeRun",
    "ShannonUtility",
    "Slot",
    "Solution",
    "StepUtility",
    "UnboundedObjective",
    "UnschedulableDemand",
    "UtilityContractError",
    "SECOND_PASS_BUDGET",
    "aloha_instance",
    "brute_opt_flexible_fixed",
    "brute_opt_threshold",
    "check_admissible",
    "evaluate_sinrs",
    "gen_greedy_adversary",
    "gen_line",
    "gen_random",
    "inverse_threshold",
    "markov_survivors",
    "relative_interference_matrix",
    "reverse_dual",
    "reversed_instance",
    "sensitivity_order",
    "simulate_aloha",
    "solve_fixed",
    "solve_flexible",
    "solve_latency",
    "solve_limited",
    "solve_unlimited",
    "spectral_admissible",
    "spectral_radius",
    "strengthen",
    "utility_from_dict",
    "utility_to_dict",
    "weight_budget",
]
