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

Every greedy pass is one loop, ``_greedy``: it walks the candidates in
sensitivity order, accepts a candidate while its running load stays within
the budget and, on each acceptance, adds the accepted link's O(n) weight or
affectance row to the loads. No solver builds an n x n matrix over its n
candidates. A solve takes O(n * |accepted|) time and O(n) memory, plus
O(|accepted|^2) for the power recurrence and the SINR evaluation of the
accepted links, which share one geometry. Endpoints, ``d^alpha`` and
thresholds are sliced from the per-link arrays cached on ``Instance``, so
every sensitivity and row here reads the one ``Instance.d_alpha``.

``thresholds`` is a mapping id -> beta that overrides the links' own
thresholds, or an array aligned with ``links`` (see ``thresholds_for``). A
solver resolves it to an array once and hands slices of that array down.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .model import (
    FEAS_RTOL,
    INF,
    Instance,
    Solution,
    Thresholds,
    _received,
    empty_solution,
    geometry,
    index_of,
    powers_for,
    sensitivity_order,
    sinr_vector,
    thresholds_for,
)

# Second-pass weight budget of the limited-power solver.
SECOND_PASS_BUDGET = 0.25


def weight_budget(alpha: float) -> float:
    """Greedy acceptance budget tau = 1 / (6 * 3^alpha + 2)."""
    return 1.0 / (6.0 * 3.0**alpha + 2.0)


# Floating-point conditions the weight and affectance rows saturate or mask
# by design (zero cross-distances, zero margins, infinite powers); a greedy
# walk enters this state once around all of its rows.
_ROW_ERRSTATE = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}


def _weights(s_from, s_to, x_ft, x_tf):
    """Directed weight min(1, s_f s_t / (x_ft x_tf) + s_f / x_ft + s_f / x_tf).

    s is the sensitivity beta * d^alpha, x_ft = d(sender_from, receiver_to)^alpha
    and x_tf = d(sender_to, receiver_from)^alpha; operands broadcast. Zero
    cross-distances saturate individual terms, and the min clamps at 1.
    Callers run it under ``_ROW_ERRSTATE``.
    """
    return np.minimum(1.0, (s_from * s_to) / (x_ft * x_tf) + s_from / x_ft + s_from / x_tf)


def _affectances(beta, margin, received):
    """Affectance onto targets with thresholds ``beta`` and noise margins
    p / d^alpha - beta * N from senders received at strength ``received``;
    operands broadcast. Saturates at 1, and a target without a positive
    margin takes 1 from every sender, silent or not. Callers run it under
    ``_ROW_ERRSTATE``."""
    return np.where(margin > 0, np.minimum(1.0, beta * received / margin), 1.0)


class _Candidates:
    """O(n) arrays over a candidate set and the O(n) rows the greedies add up.

    ``pos`` are the candidates' rows of the instance arrays and ``beta``
    their resolved thresholds. Endpoints are gathered once (see
    ``MetricSpace.gather``), so a row measures from them without looking
    any node up. Row methods give the value from candidate k onto every
    candidate, column methods the value from every candidate onto k; entry k
    itself is zero.
    """

    def __init__(self, instance, ids, pos, beta, powers=None):
        metric = instance.metric
        self.between = metric.between
        self.alpha = instance.alpha
        self.index = index_of(ids)
        self.pos = pos
        self.senders = metric.gather(instance.senders[pos])
        self.receivers = metric.gather(instance.receivers[pos])
        self.d_alpha = instance.d_alpha[pos]
        self.beta = beta
        self.sens = beta * self.d_alpha
        if powers is not None:
            self.p = np.array([powers[lid] for lid in ids], dtype=np.float64)
            self.margin = self.p / self.d_alpha - beta * instance.noise

    def subset(self, ids):
        """The candidates ``ids``, a subset, with their thresholds."""
        sub = [self.index[lid] for lid in ids]
        return self.pos[sub], self.beta[sub]

    def _out_alpha(self, k):
        """d(sender_k, receiver_b)^alpha for every candidate b."""
        return self.between(self.receivers, self.senders[..., k]) ** self.alpha

    def _in_alpha(self, k):
        """d(sender_a, receiver_k)^alpha for every candidate a."""
        return self.between(self.receivers[..., k], self.senders) ** self.alpha

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


def solve_unlimited(
    instance: Instance,
    links: Optional[Sequence[int]] = None,
    thresholds: Optional[Thresholds] = None,
) -> Solution:
    """Greedy capacity maximization choosing powers from an unbounded range.

    Selection walks from the least to the most sensitive link and accepts a
    candidate when the summed weight from already accepted links stays within
    the budget. Powers are then assigned from the most sensitive link down;
    each power covers noise plus the interference of the more sensitive links
    twice over, which guarantees every accepted link meets its threshold.
    """
    ids = list(instance.link_ids if links is None else links)
    if not ids:
        return empty_solution("unlimited")
    selected, trace, cands = _greedy_unlimited(instance, ids, thresholds)
    powers, geo = _power_recurrence(instance, selected[::-1], cands)
    return _finish(instance, selected, powers, "unlimited", trace, geo)


def _greedy(candidates, cands, load, budget, row):
    """Walk ``candidates`` (ids of ``cands``) in the given order and accept
    each whose entry of ``load`` is within ``budget``; accepting the
    candidate at position k adds ``row(k)`` to ``load`` in place.

    Returns the accepted ids in acceptance order and one trace row
    (id, accepted, load) per candidate.
    """
    accepted = []
    trace = []
    with np.errstate(**_ROW_ERRSTATE):
        for cand in candidates:
            k = cands.index[cand]
            lk = float(load[k])
            ok = lk <= budget
            trace.append((cand, ok, lk))
            if ok:
                accepted.append(cand)
                load += row(k)
    return accepted, tuple(trace)


def _greedy_unlimited(instance, ids, thresholds):
    """Weight-budget pass of the unlimited greedy over a nonempty ``ids``:
    accepted links (least sensitive first), trace rows and the candidates.

    A load is the summed weight from the accepted links, added one row at a
    time in acceptance order. Accepted links are less sensitive than every
    later candidate, so no rank mask is needed. The first candidate starts at
    load 0, so at least one link is accepted.
    """
    beta = thresholds_for(instance, ids, thresholds)
    order = sensitivity_order(instance, ids, beta)
    cands = _Candidates(instance, ids, instance.positions(ids), beta)
    accepted, trace = _greedy(
        reversed(order), cands, np.zeros(len(ids)), weight_budget(instance.alpha), cands.weight_row
    )
    return accepted, trace, cands


def _power_recurrence(instance, accepted, cands):
    """p(l) = 2 beta N d^alpha + 2 beta d^alpha * sum of prior p / cross-distance^alpha,
    over ``accepted`` ordered from the most sensitive link down.

    Returns the powers and the accepted links' geometry in sorted id order,
    which ``_finish`` reuses for the SINRs."""
    geo = geometry(instance, sorted(accepted))
    _, beta = cands.subset(geo.ids)
    # interference[k]: summed p / cross-distance^alpha at link k from the
    # links assigned so far, in assignment order
    interference = np.zeros(geo.n)
    powers: dict[int, float] = {}
    with np.errstate(divide="ignore"):
        for lid in accepted:
            k = geo.index[lid]
            powers[lid] = float(2.0 * beta[k] * geo.d_alpha[k] * (instance.noise + interference[k]))
            interference += powers[lid] * (1.0 / geo.cross_alpha[:, k])
    return powers, geo


def _finish(instance, selected, powers, algorithm, trace, geo=None):
    """Solution over ``selected``; ``geo``, when given, is their geometry in
    sorted id order. SINRs are ``evaluate_sinrs``' arithmetic. The trace is
    kept even when nothing is selected."""
    selected = tuple(sorted(selected))
    if geo is None:
        geo = geometry(instance, selected)
    p = np.array([powers[lid] for lid in selected], dtype=np.float64)
    return Solution(
        selected=selected,
        powers={lid: powers[lid] for lid in selected},
        sinr=dict(zip(selected, sinr_vector(geo.cross_alpha, p, instance.noise).tolist())),
        objective=float(len(selected)),
        algorithm=algorithm,
        trace=trace,
    )


def check_power_preconditions(
    instance: Instance,
    ids: Sequence[int],
    powers: Mapping[int, float],
    thresholds: Optional[Thresholds] = None,
) -> list[str]:
    """Monotone / inverse-normalized power conditions for the fixed solver.

    With sensitivity s = beta * d^alpha, a pair of distinct links a, b with
    s_a <= s_b violates monotonicity when p_a > p_b * (1 + 1e-12), and
    antitonicity of p / s when p_a / s_a < p_b / s_b * (1 - 1e-12). Each
    condition is decided exactly on the links sorted by sensitivity, in
    O(n log n). The result holds at most one message per violated condition:
    it names one violating pair a, b and counts the links b that have a
    violating partner. Violations are reported, not enforced; adversarial
    inputs still run.
    """
    s = thresholds_for(instance, ids, thresholds) * instance.d_alpha[instance.positions(ids)]
    p = np.array([powers[lid] for lid in ids], dtype=np.float64)
    q = p / s
    rtol = 1e-12
    issues = []
    # q_a < q_b * (1 - rtol) is -q_a > -(q_b * (1 - rtol)): both conditions
    # ask for a partner whose value exceeds a bound
    for what, v, bound in (
        ("power not monotone", p, p * (1 + rtol)),
        ("normalized power not antitone", -q, -(q * (1 - rtol))),
    ):
        found = _first_violation(s, v, bound)
        if found is not None:
            a, b, count = found
            issues.append(
                f"{what} in sensitivity: links {ids[a]}, {ids[b]} "
                f"({count} of {len(ids)} links with a violating partner)"
            )
    return issues


def _first_violation(s, v, bound):
    """(a, b, count) over the pairs of distinct positions with s[a] <= s[b]
    and v[a] > bound[b], or None when there is no such pair.

    b is the first such position in increasing (s, v) order, a its partner
    with the largest v, and count the number of positions b that have a
    partner. A NaN value compares false, so it takes part in no pair.
    """
    keep = ~np.isnan(v)
    order = np.flatnonzero(keep)[np.lexsort((v[keep], s[keep]))]
    s, v, bound = s[order], v[order], bound[order]
    at = np.arange(len(v))
    # b's partners are the links up to the end of its tie group, minus b;
    # v ascends within a group, so leaving b out lowers the maximum only
    # when b ends its group
    last = np.searchsorted(s, s, side="right") - 1
    upto = np.where(last == at, last - 1, last)
    best = np.maximum.accumulate(v)
    # the latest position holding the running maximum: at upto[b] that is
    # never b, since a group's values ascend and b leaves out its group's end
    holder = np.maximum.accumulate(np.where(v == best, at, 0))
    hits = np.flatnonzero((upto >= 0) & (best[upto] > bound))
    if not hits.size:
        return None
    b = hits[0]
    return order[holder[upto[b]]], order[b], len(hits)


def solve_fixed(
    instance: Instance,
    links: Optional[Sequence[int]] = None,
    powers: Optional[Mapping[int, float]] = None,
    thresholds: Optional[Thresholds] = None,
    warn_preconditions: bool = True,
) -> Solution:
    """Greedy capacity maximization under a given power assignment.

    Candidates that cannot meet their threshold even alone are dropped up
    front. The tentative pass accepts a link when incoming plus outgoing
    affectance against the accepted set stays within 1/2; the final filter
    keeps links whose total incoming affectance is below 1, so every returned
    link meets its threshold.
    """
    ids = list(instance.link_ids if links is None else links)
    if not ids:
        return empty_solution("fixed")
    powers = dict(zip(ids, powers_for(instance, ids, powers)))
    beta = thresholds_for(instance, ids, thresholds)
    cands = _Candidates(instance, ids, instance.positions(ids), beta, powers)
    if warn_preconditions:
        issues = check_power_preconditions(instance, ids, powers, beta)
        if issues:
            warnings.warn(
                "fixed power assignment is not monotone (sub-)linear in sensitivity: "
                + issues[0],
                RuntimeWarning,
                stacklevel=2,
            )

    order = sensitivity_order(instance, ids, beta)
    # load[c]: affectance between c and the tentative links, both ways. A
    # link that misses the solo SINR gate (p / d^alpha must reach beta * N
    # up to tolerance) starts at an infinite load and is never accepted.
    solo_ok = cands.p / cands.d_alpha >= cands.beta * instance.noise * (1 - FEAS_RTOL)
    # such a link's power reaches only its own load, through affectance_col;
    # silenced, it adds 0 or 1 there, so a NaN or -inf power keeps it infinite
    cands.p = np.where(solo_ok, cands.p, 0.0)
    # incoming[c]: affectance from the tentative links onto c
    incoming = np.zeros(len(ids))

    def both_ways(k):
        row = cands.affectance_row(k)
        np.add(incoming, row, out=incoming)
        return row + cands.affectance_col(k)

    tentative, trace = _greedy(reversed(order), cands, np.where(solo_ok, 0.0, INF), 0.5, both_ways)
    final = [lid for lid in tentative if incoming[cands.index[lid]] < 1.0]
    return _finish(instance, final, powers, "fixed", trace)


def solve_limited(
    instance: Instance,
    links: Optional[Sequence[int]] = None,
    thresholds: Optional[Thresholds] = None,
) -> Solution:
    """Capacity maximization with powers chosen from [0, p_max].

    Links whose sensitivity fits within a quarter of the cap go through the
    unlimited-power greedy plus a second pass that re-checks each kept link's
    outgoing weight against the already kept, more sensitive links; that
    bound makes the power recurrence respect the cap. The remaining links run
    the fixed-power solver at full power. The larger solution wins.
    """
    if instance.p_max == INF:
        # no cap to respect: the unlimited solver's solution stands as is
        return replace(solve_unlimited(instance, links, thresholds), algorithm="limited")

    ids = list(instance.link_ids if links is None else links)
    if not ids:
        return empty_solution("limited")
    if isinstance(thresholds, np.ndarray):
        # two copies of a link may differ in threshold and land one in each
        # branch; otherwise they share a branch, whose candidates reject them
        index_of(ids)
    beta = thresholds_for(instance, ids, thresholds)
    sens = beta * instance.noise * instance.d_alpha[instance.positions(ids)]
    small = sens <= instance.p_max / 4.0
    flags = small.tolist()
    r1 = [lid for lid, ok in zip(ids, flags) if ok]
    r2 = [lid for lid, ok in zip(ids, flags) if not ok]

    sol1 = _limited_first_branch(instance, r1, beta[small]) if r1 else empty_solution("limited")
    sol2 = (
        solve_fixed(
            instance,
            r2,
            powers={lid: instance.p_max for lid in r2},
            thresholds=beta[~small],
            warn_preconditions=False,
        )
        if r2
        else empty_solution("fixed")
    )
    chosen = sol1 if len(sol1.selected) >= len(sol2.selected) else sol2
    return replace(chosen, algorithm="limited")


def _limited_first_branch(instance, r1, beta):
    """The unlimited greedy's weight-budget pass, then a second pass over the
    links it accepted, most sensitive first, that keeps a link while its
    outgoing weight onto the kept links stays within the budget."""
    first_pass, trace1, all_cands = _greedy_unlimited(instance, r1, beta)
    cands = _Candidates(instance, first_pass, *all_cands.subset(first_pass))
    # the first pass accepted its links least sensitive first; a load is the
    # weight from c onto the kept links, all more sensitive than c
    kept, trace2 = _greedy(
        reversed(first_pass), cands, np.zeros(len(first_pass)), SECOND_PASS_BUDGET, cands.weight_col
    )
    powers, geo = _power_recurrence(instance, kept, cands)
    return _finish(instance, kept, powers, "limited", trace1 + trace2, geo)
