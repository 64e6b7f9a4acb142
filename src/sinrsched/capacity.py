"""Threshold capacity maximization: greedy link selection with power control.

Three solvers share the sensitivity ordering from the model:

* ``solve_unlimited`` — greedy selection under a pairwise weight budget,
  then a power recurrence that walks from the most sensitive link down.
  Every returned link meets its SINR threshold.
* ``solve_fixed``     — greedy under a bidirectional affectance budget for a
  given power assignment, followed by a clean-up filter.
* ``solve_limited``   — splits links by whether a quarter of the power cap
  covers their sensitivity, runs a capped variant of the unlimited solver on
  one part and the fixed solver at full power on the other, and returns the
  larger solution. Powers never exceed the cap.

Every greedy pass streams: it keeps one running load per candidate and, on
each acceptance, adds the accepted link's O(n) weight or affectance row.
No solver builds an n x n matrix over its n candidates. A solve takes
O(n * |accepted|) time and O(n) memory, plus O(|accepted|^2) for the power
recurrence and the SINR evaluation of the accepted links. Link lengths come
from the cache on ``Instance``.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Optional, Sequence

import numpy as np

from .model import (
    FEAS_RTOL,
    INF,
    Instance,
    Solution,
    _received,
    empty_solution,
    evaluate_sinrs,
    geometry,
    sensitivity_order,
    thresholds_for,
)

# Second-pass weight budget of the limited-power solver.
SECOND_PASS_BUDGET = 0.25


def weight_budget(alpha: float) -> float:
    """Greedy acceptance budget tau = 1 / (6 * 3^alpha + 2)."""
    return 1.0 / (6.0 * 3.0**alpha + 2.0)


def _weights(s_from, s_to, x_ft, x_tf):
    """Directed weight min(1, s_f s_t / (x_ft x_tf) + s_f / x_ft + s_f / x_tf).

    s is the sensitivity beta * d^alpha, x_ft = d(sender_from, receiver_to)^alpha
    and x_tf = d(sender_to, receiver_from)^alpha; operands broadcast. Zero
    cross-distances saturate individual terms, and the min clamps at 1.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return np.minimum(1.0, (s_from * s_to) / (x_ft * x_tf) + s_from / x_ft + s_from / x_tf)


def _affectances(beta, margin, received):
    """Affectance onto targets with thresholds ``beta`` and noise margins
    p / d^alpha - beta * N from senders received at strength ``received``;
    operands broadcast. Saturates at 1, and a target without a positive
    margin takes 1 from every sender, silent or not."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a = beta * received / margin
    a = np.where(margin > 0, a, np.where(received > 0, INF, 0.0))
    return np.where(margin <= 0, 1.0, np.minimum(1.0, a))


class _Candidates:
    """O(n) arrays over a candidate set and the O(n) rows the greedies add up.

    Row methods give the value from candidate k onto every candidate, column
    methods the value from every candidate onto k; entry k itself is zero.
    """

    def __init__(self, instance, ids, thresholds, powers=None):
        self.metric = instance.metric
        self.alpha = instance.alpha
        self.index = {lid: k for k, lid in enumerate(ids)}
        self.senders = np.array([instance.link(lid).sender for lid in ids], dtype=np.intp)
        self.receivers = np.array([instance.link(lid).receiver for lid in ids], dtype=np.intp)
        self.d_alpha = self.metric.distances(self.receivers, self.senders) ** self.alpha
        if np.any(self.d_alpha <= 0):
            raise ValueError("zero-length link in candidate set")
        self.beta = thresholds_for(instance, ids, thresholds)
        self.sens = self.beta * self.d_alpha
        if powers is not None:
            self.p = np.array([powers[lid] for lid in ids], dtype=np.float64)
            self.margin = self.p / self.d_alpha - self.beta * instance.noise

    def _out_alpha(self, k):
        """d(sender_k, receiver_b)^alpha for every candidate b."""
        return self.metric.distances(self.receivers, self.senders[k]) ** self.alpha

    def _in_alpha(self, k):
        """d(sender_a, receiver_k)^alpha for every candidate a."""
        return self.metric.distances(self.receivers[k], self.senders) ** self.alpha

    def weight_row(self, k):
        row = _weights(self.sens[k], self.sens, self._out_alpha(k), self._in_alpha(k))
        row[k] = 0.0
        return row

    def weight_col(self, k):
        col = _weights(self.sens, self.sens[k], self._in_alpha(k), self._out_alpha(k))
        col[k] = 0.0
        return col

    def affectance_row(self, k):
        row = _affectances(self.beta, self.margin, _received(self.p[k], self._out_alpha(k)))
        row[k] = 0.0
        return row

    def affectance_col(self, k):
        col = _affectances(self.beta[k], self.margin[k], _received(self.p, self._in_alpha(k)))
        col[k] = 0.0
        return col


def weight(
    instance: Instance,
    from_link: int,
    to_link: int,
    order: Optional[Sequence[int]] = None,
    thresholds: Optional[Mapping[int, float]] = None,
) -> float:
    """Directed conflict weight of ``from_link`` onto ``to_link`` in [0, 1].

    Nonzero only when ``from_link`` is strictly less sensitive than
    ``to_link`` in ``order`` (default: the sensitivity order of the pair).
    """
    if from_link == to_link:
        return 0.0
    ids = [from_link, to_link]
    if order is None:
        order = sensitivity_order(instance, ids, thresholds)
    rank = {lid: pos for pos, lid in enumerate(order)}
    cands = _Candidates(instance, ids, thresholds)
    if rank[from_link] <= rank[to_link]:
        return 0.0
    return float(cands.weight_row(0)[1])


def affectance(
    instance: Instance,
    from_link: int,
    to_link: int,
    powers: Mapping[int, float],
    thresholds: Optional[Mapping[int, float]] = None,
) -> float:
    """Normalized interference of ``from_link`` on ``to_link`` in [0, 1].

    Zero for a link onto itself and for a silent sender; saturates at 1 when
    the target cannot exceed its threshold even without interference.
    """
    if from_link == to_link:
        return 0.0
    cands = _Candidates(instance, [from_link, to_link], thresholds, powers)
    return float(cands.affectance_row(0)[1])


def solve_unlimited(
    instance: Instance,
    links: Optional[Sequence[int]] = None,
    thresholds: Optional[Mapping[int, float]] = None,
) -> Solution:
    """Greedy capacity maximization choosing powers from an unbounded range.

    Selection walks from the least to the most sensitive link and accepts a
    candidate when the summed weight from already accepted links stays within
    the budget. Powers are then assigned from the most sensitive link down;
    each power covers noise plus the interference of the more sensitive links
    twice over, which guarantees every accepted link meets its threshold.
    """
    selected, trace, order = _greedy_unlimited(
        instance, links, thresholds, budget=weight_budget(instance.alpha)
    )
    if not selected:
        return empty_solution("unlimited")
    powers = _power_recurrence(instance, order, selected, thresholds)
    return _finish(instance, selected, powers, "unlimited", trace)


def _greedy_unlimited(instance, links, thresholds, budget):
    """Accepted links (in acceptance order), trace rows and sensitivity order.

    ``incoming[c]`` holds the summed weight from the accepted links onto c,
    added one accepted row at a time in acceptance order. Accepted links are
    less sensitive than every later candidate, so no rank mask is needed.
    """
    if links is None:
        links = instance.link_ids
    ids = list(links)
    if not ids:
        return [], (), None
    order = sensitivity_order(instance, ids, thresholds)
    cands = _Candidates(instance, ids, thresholds)

    incoming = np.zeros(len(ids))
    accepted: list[int] = []
    trace = []
    for cand in reversed(order):  # decreasing rank value: least sensitive first
        c = cands.index[cand]
        load = float(incoming[c])
        ok = load <= budget
        trace.append((cand, ok, load))
        if ok:
            accepted.append(cand)
            incoming += cands.weight_row(c)
    return accepted, tuple(trace), order


def _power_recurrence(instance, order, accepted, thresholds):
    """p(l) = 2 beta N d^alpha + 2 beta d^alpha * sum of prior p / cross-distance^alpha,
    walking from the most sensitive accepted link down."""
    geo = geometry(instance, accepted)
    beta = thresholds_for(instance, accepted, thresholds)
    # interference[k]: summed p / cross-distance^alpha at link k from the
    # links assigned so far, in assignment order
    interference = np.zeros(geo.n)
    powers: dict[int, float] = {}
    for lid in order:
        k = geo.index.get(lid)
        if k is None:
            continue
        powers[lid] = float(2.0 * beta[k] * geo.d_alpha[k] * (instance.noise + interference[k]))
        interference += powers[lid] * geo.gain[:, k]
    return powers


def _finish(instance, selected, powers, algorithm, trace):
    if not selected:
        return empty_solution(algorithm)
    selected = tuple(sorted(selected))
    sinr_map = evaluate_sinrs(instance, selected, powers)
    return Solution(
        selected=selected,
        powers={lid: powers[lid] for lid in selected},
        sinr=sinr_map,
        objective=float(len(selected)),
        algorithm=algorithm,
        trace=trace,
    )


def check_power_preconditions(
    instance: Instance,
    ids: Sequence[int],
    powers: Mapping[int, float],
    thresholds: Optional[Mapping[int, float]] = None,
) -> list[str]:
    """Monotone / inverse-normalized power conditions for the fixed solver.

    Violations are reported, not enforced; adversarial inputs still run.
    """
    beta = thresholds_for(instance, ids, thresholds)
    issues = []
    rows = []  # (sensitivity, id, power, power / sensitivity) per link
    for k, lid in enumerate(ids):
        b, d_alpha = float(beta[k]), instance.length(lid) ** instance.alpha
        rows.append((b * d_alpha, lid, powers[lid], powers[lid] / (b * d_alpha)))
    rtol = 1e-12
    for s_a, a, p_a, q_a in rows:
        for s_b, b, p_b, q_b in rows:
            if a == b or s_a > s_b:
                continue
            if p_a > p_b * (1 + rtol):
                issues.append(f"power not monotone in sensitivity: links {a}, {b}")
            if q_a < q_b * (1 - rtol):
                issues.append(f"normalized power not antitone in sensitivity: links {a}, {b}")
    return issues


def solve_fixed(
    instance: Instance,
    links: Optional[Sequence[int]] = None,
    powers: Optional[Mapping[int, float]] = None,
    thresholds: Optional[Mapping[int, float]] = None,
    warn_preconditions: bool = True,
) -> Solution:
    """Greedy capacity maximization under a given power assignment.

    Candidates that cannot meet their threshold even alone are dropped up
    front. The tentative pass accepts a link when incoming plus outgoing
    affectance against the accepted set stays within 1/2; the final filter
    keeps links whose total incoming affectance is below 1, so every returned
    link meets its threshold.
    """
    if links is None:
        links = instance.link_ids
    ids = list(links)
    if not ids:
        return empty_solution("fixed")
    if powers is None:
        powers = {}
        for lid in ids:
            fp = instance.link(lid).fixed_power
            if fp is None:
                raise ValueError(f"link {lid} has no fixed power")
            powers[lid] = fp
    else:
        for lid in ids:
            if lid not in powers:
                raise ValueError(f"missing power for link {lid}")

    if warn_preconditions:
        issues = check_power_preconditions(instance, ids, powers, thresholds)
        if issues:
            warnings.warn(
                "fixed power assignment is not monotone (sub-)linear in sensitivity: "
                + issues[0],
                RuntimeWarning,
                stacklevel=2,
            )

    order = sensitivity_order(instance, ids, thresholds)
    cands = _Candidates(instance, ids, thresholds, powers)
    # solo SINR gate: p / d^alpha must reach beta * N up to tolerance
    solo_ok = cands.p / cands.d_alpha >= cands.beta * instance.noise * (1 - FEAS_RTOL)

    # load[c]: affectance between c and the tentative links, both ways;
    # incoming[c]: affectance from the tentative links onto c
    load = np.zeros(len(ids))
    incoming = np.zeros(len(ids))
    tentative: list[int] = []
    trace = []
    for cand in reversed(order):
        c = cands.index[cand]
        if not solo_ok[c]:
            trace.append((cand, False, INF))
            continue
        lc = float(load[c])
        ok = lc <= 0.5
        trace.append((cand, ok, lc))
        if ok:
            tentative.append(cand)
            row = cands.affectance_row(c)
            load += row + cands.affectance_col(c)
            incoming += row

    final = [lid for lid in tentative if incoming[cands.index[lid]] < 1.0]
    return _finish(instance, final, {lid: powers[lid] for lid in final}, "fixed", trace)


def solve_limited(
    instance: Instance,
    links: Optional[Sequence[int]] = None,
    thresholds: Optional[Mapping[int, float]] = None,
) -> Solution:
    """Capacity maximization with powers chosen from [0, p_max].

    Links whose sensitivity fits within a quarter of the cap go through the
    unlimited-power greedy plus a second pass that re-checks each kept link's
    outgoing weight against the already kept, more sensitive links; that
    bound makes the power recurrence respect the cap. The remaining links run
    the fixed-power solver at full power. The larger solution wins.
    """
    if instance.p_max == INF:
        # no cap: the whole input fits the first branch and the second pass
        # is vacuous, so this is exactly the unlimited solver
        sol = solve_unlimited(instance, links, thresholds)
        return Solution(sol.selected, sol.powers, sol.sinr, sol.objective, "limited", sol.trace)

    if links is None:
        links = instance.link_ids
    ids = list(links)
    if not ids:
        return empty_solution("limited")
    beta = thresholds_for(instance, ids, thresholds)
    sens = {
        lid: float(beta[k]) * instance.noise * instance.length(lid) ** instance.alpha
        for k, lid in enumerate(ids)
    }
    r1 = [lid for lid in ids if sens[lid] <= instance.p_max / 4.0]
    in_r1 = set(r1)
    r2 = [lid for lid in ids if lid not in in_r1]

    sol1 = _limited_first_branch(instance, r1, thresholds) if r1 else empty_solution("limited")
    sol2 = (
        solve_fixed(
            instance,
            r2,
            powers={lid: instance.p_max for lid in r2},
            thresholds=thresholds,
            warn_preconditions=False,
        )
        if r2
        else empty_solution("fixed")
    )

    if len(sol1.selected) >= len(sol2.selected):
        chosen, trace = sol1, sol1.trace
    else:
        chosen, trace = sol2, sol2.trace
    return Solution(chosen.selected, chosen.powers, chosen.sinr, chosen.objective, "limited", trace)


def _limited_first_branch(instance, r1, thresholds):
    first_pass, trace1, order = _greedy_unlimited(
        instance, r1, thresholds, weight_budget(instance.alpha)
    )
    if not first_pass:
        return empty_solution("limited")
    cands = _Candidates(instance, first_pass, thresholds)

    # outgoing[c]: weight from c onto the kept links, all more sensitive than c
    outgoing = np.zeros(len(first_pass))
    kept: list[int] = []
    trace2 = []
    for cand in order:  # increasing rank value: most sensitive first
        c = cands.index.get(cand)
        if c is None:
            continue
        load = float(outgoing[c])
        ok = load <= SECOND_PASS_BUDGET
        trace2.append((cand, ok, load))
        if ok:
            kept.append(cand)
            outgoing += cands.weight_col(c)

    powers = _power_recurrence(instance, order, kept, thresholds)
    return _finish(instance, kept, powers, "limited", tuple(trace1) + tuple(trace2))
