"""Output checks by recomputation.

Nothing here trusts an artifact's own fields: SINRs are recomputed from the
instance's coordinates with numpy code that shares nothing with the library,
and a schedule's delivered value is re-derived from those SINRs and the
links' original utilities. Each check returns a list of problems (empty when
the output holds up).
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right

import numpy as np

FEAS_RTOL = 1e-9    # the library's documented SINR-vs-threshold tolerance
CAP_RTOL = 1e-12    # the library's documented power-cap tolerance
CLAIM_RTOL = 1e-6   # stored SINR claims must match the recomputation this closely
DEMAND_TOL = 1e-9


class LinkTable:
    """Coordinates, thresholds, utilities and demands of an instance,
    read from its serialized form."""

    def __init__(self, data: dict):
        metric = data["metric"]
        if metric.get("type") != "euclidean":
            raise ValueError("recomputation supports Euclidean instances only")
        points = np.asarray(metric["points"], dtype=np.float64)
        links = data["links"]
        self.alpha = float(data["alpha"])
        self.noise = float(data["noise"])
        p_max = data.get("p_max", "inf")
        self.p_max = math.inf if p_max in ("inf", None) else float(p_max)
        self.pos = {int(e["id"]): k for k, e in enumerate(links)}
        self.sender = points[[int(e["s"]) for e in links]]
        self.receiver = points[[int(e["r"]) for e in links]]
        self.beta = [e.get("beta") for e in links]
        self.demand = [e.get("demand") or 0.0 for e in links]
        self.steps = [_steps(e.get("utility")) for e in links]

    @classmethod
    def of(cls, instance):
        return cls(instance.to_dict())

    def sinrs(self, selected, powers) -> np.ndarray:
        """SINR of each selected link when exactly the selected links transmit."""
        k = np.array([self.pos[lid] for lid in selected], dtype=np.intp)
        p = np.array([float(powers[lid]) for lid in selected])
        diff = self.receiver[k][:, None, :] - self.sender[k][None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))  # dist[i, j] = |receiver_i - sender_j|
        with np.errstate(divide="ignore", invalid="ignore"):
            received = p[None, :] / dist**self.alpha
        received = np.where(p[None, :] == 0, 0.0, received)
        signal = np.diag(received).copy()
        interference = received.sum(axis=1) - signal
        with np.errstate(invalid="ignore"):
            return signal / (interference + self.noise)


def _steps(utility):
    if utility is None:
        return None
    if utility.get("type") != "step":
        raise ValueError("recomputation supports step utilities only")
    return [(float(g), float(v)) for g, v in utility["steps"]]


def step_value(steps, gamma: float) -> float:
    k = bisect_right([g for g, _ in steps], gamma)
    return 0.0 if k == 0 else steps[k - 1][1]


def check_selection(table, selected, powers, claimed_sinr=None, thresholds=None,
                    cap=math.inf, exact_powers=None, objective=None) -> list[str]:
    """Selected set, powers and SINRs of one threshold solution.

    thresholds maps link id -> SINR threshold (default: the link's own);
    exact_powers maps link id -> the power the solution must use.
    """
    problems = []
    selected = list(selected)
    if len(set(selected)) != len(selected):
        problems.append("selected set has duplicates")
    unknown = [lid for lid in selected if lid not in table.pos]
    if unknown:
        return problems + [f"links not in the instance: {unknown[:5]}"]
    if objective is not None and objective != len(selected):
        problems.append(f"objective {objective} != selected count {len(selected)}")
    missing = [lid for lid in selected if lid not in powers]
    if missing:
        return problems + [f"links without power: {missing[:5]}"]
    for lid in selected:
        p = float(powers[lid])
        if not (0.0 <= p <= cap * (1 + CAP_RTOL)):
            problems.append(f"link {lid}: power {p!r} outside [0, {cap}]")
        if exact_powers is not None and p != float(exact_powers[lid]):
            problems.append(f"link {lid}: power {p!r} but the input fixes {exact_powers[lid]!r}")
    if not selected:
        return problems
    gamma = table.sinrs(selected, powers)
    for k, lid in enumerate(selected):
        beta = thresholds[lid] if thresholds is not None else table.beta[table.pos[lid]]
        if not gamma[k] >= beta * (1 - FEAS_RTOL):
            problems.append(f"link {lid}: recomputed SINR {gamma[k]:.9g} below threshold {beta:.9g}")
        if claimed_sinr is not None:
            claim = float(claimed_sinr[lid])
            if not abs(claim - gamma[k]) <= CLAIM_RTOL * max(1.0, abs(claim)):
                problems.append(f"link {lid}: claims SINR {claim:.9g}, recomputed {gamma[k]:.9g}")
    return problems


def check_schedule_demands(table, slots) -> list[str]:
    """Value delivered per link, from recomputed slot SINRs and the original
    utilities, must reach the link's demand. ``slots`` is a list of
    (selected, powers) pairs."""
    delivered = [0.0] * len(table.demand)
    for selected, powers in slots:
        if not selected:
            continue
        gamma = table.sinrs(selected, powers)
        for k, lid in enumerate(selected):
            pos = table.pos[lid]
            delivered[pos] += step_value(table.steps[pos], float(gamma[k]))
    problems = []
    for lid, pos in table.pos.items():
        if delivered[pos] < table.demand[pos] - DEMAND_TOL:
            problems.append(
                f"link {lid}: delivered {delivered[pos]:.9g} of demand {table.demand[pos]:.9g}"
            )
    return problems


def instance_digest(data: dict) -> str:
    """Same recipe as the ratio experiment's report field: sha256 of the
    sorted-key JSON, first 12 hex digits."""
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:12]


def rounded_powers(selected, powers):
    return [float(f"{float(powers[lid]):.12g}") for lid in selected]
