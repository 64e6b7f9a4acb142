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
affectance row to the loads; rows, columns and blocks all come from one
kernel per value (see ``_Candidates``). Above ``_DENSE`` = 128 candidates no
solver builds an n x n matrix over its n candidates: a solve takes O(n *
|accepted|) time and O(n) memory, plus O(|accepted|^2) for the power
recurrence and the SINR evaluation of the accepted links, which share one
cross matrix taken from the same kernel. A set of at most 128 candidates,
such as a latency or flexible level, measures every pair once into one m x m
matrix (at most 128 KB) that every kernel reads, with the same floats. The
solvers measure only through their candidates, never through ``geometry``.
The fixed pass's rows and columns cover only the n_gate links that pass the
solo SINR gate, O(n_gate * |accepted|); a link that misses it appears only as
a trace row. The limited solver's second pass over the k links its first
pass accepted takes their weights in column blocks of 256 links, in O(k *
256) memory. Endpoints, ``d^alpha`` and thresholds are sliced from the
per-link arrays cached on ``Instance``, so every sensitivity and kernel here
reads the one ``Instance.d_alpha``.

``thresholds`` is a mapping id -> beta that overrides the links' own
thresholds, or an array aligned with ``links`` (see ``thresholds_for``). A
solve resolves its ids to rows and thresholds once and hands slices down.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from itertools import compress
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .model import (
    FEAS_RTOL,
    INF,
    Instance,
    Solution,
    Thresholds,
    _received,
    _sensitivities,
    _thresholds_at,
    empty_solution,
    index_of,
    powers_for,
    sensitivity_order,
    sinr_vector,
    thresholds_for,
)

# Second-pass weight budget of the limited-power solver, and the links per
# column block of the weights that pass evaluates.
SECOND_PASS_BUDGET = 0.25
_BLOCK = 256
# Candidate sets of at most this many links measure every pair once into one
# matrix (see ``_Candidates``): a level solve over a few dozen candidates then
# computes one matrix, not 2k + 1 distance rows. Timed against streaming, the
# unlimited greedy is faster or even up to 128 links and ~1.9x slower at 192,
# where the rows of its few accepted links cost less than every pair.
_DENSE = 128


def weight_budget(alpha: float) -> float:
    """Greedy acceptance budget tau = 1 / (6 * 3^alpha + 2)."""
    # 6 * 3^646 overflows to inf, so tau is 0.0 from there on; 3.0**647 would raise
    return 1.0 / (6.0 * 3.0 ** min(alpha, 646.0) + 2.0)


# Floating-point conditions the kernels saturate or mask by design (zero
# cross-distances, zero margins, infinite powers; an overflowing sensitivity
# is rejected), entered once around a pass's candidates, order and walk.
_ROW_ERRSTATE = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}
ALL = slice(None)  # the kernels' position of every candidate


class _Candidates:
    """O(n) arrays over a candidate set and the pair kernels the greedies add up.

    ``pos`` are the candidates' rows of the instance arrays, ``beta`` their
    resolved thresholds and ``p`` their powers, if any. Endpoints are gathered
    once (see ``MetricSpace.gather``). A kernel gives the value from each
    candidate a onto each b, for positions that broadcast: ``(k, ALL)`` is a
    row, ``(ALL, k)`` a column, ``(rows[:, None], cols[None, :])`` a block.
    A value onto itself is left as computed. Use it under ``_ROW_ERRSTATE``.

    A set of at most ``_DENSE`` candidates measures every pair once, at
    construction, into ``cross[i, j] = d(sender_j, receiver_i)^alpha`` (m x m
    floats, at most 128 KB), with the arithmetic of a streamed row, so both
    paths give the same bits. Paired against streaming on the capacity recipe
    (area 1000 * sqrt(n / 2000)), the unlimited solver's time ratio dense /
    streaming was 0.93 at 16 and 64 links, ~1.0 at 96 and 128, 1.85 at 192
    and 2.30 at 256; the fixed solver's was 0.80-0.85 at every size. Larger
    sets stream: ``cross`` is None.

    The fixed pass builds the set over only the links that pass the solo
    gate, so its rows and columns take O(n_gate) each; the links that miss
    it appear only as trace rows. Over such a set a zero power or a target
    without a positive margin occurs only through an underflowing beta * N
    or the gate's tolerance band, so the affectance kernel applies those
    masks only when the set has one (``silent``, ``saturated``).
    """

    def __init__(self, instance, ids, pos, beta, p=None):
        metric = instance.metric
        self.between = metric.between
        self.alpha = instance.alpha
        self.index = index_of(ids)
        self.senders = metric.gather(instance.senders[pos])
        self.receivers = metric.gather(instance.receivers[pos])
        self.cross = None
        if len(ids) <= _DENSE:
            # cross[i, j] = d(sender_j, receiver_i)^alpha, every pair measured
            # once with the streaming kernel's arithmetic
            self.cross = (self.between(self.receivers[..., :, None], self.senders[..., None, :])
                          ** self.alpha)
        self.d_alpha = instance.d_alpha[pos]
        self.beta = beta
        self.sens = _sensitivities(ids, beta, self.d_alpha)
        if p is not None:
            self.p = p
            self.margin = p / self.d_alpha - beta * instance.noise
            self.silent = not p.all()
            self.saturated = not (self.margin > 0).all()

    def _alpha(self, a, b):
        """d(sender_a, receiver_b)^alpha, read from ``cross`` when the set
        has one."""
        if self.cross is not None:
            return self.cross[b, a]
        return self.between(self.receivers[..., b], self.senders[..., a]) ** self.alpha

    def weights(self, a, b):
        """Directed weight min(1, s_a s_b / (x_ab x_ba) + s_a / x_ab + s_a / x_ba),
        with sensitivities s and x_ab = ``_alpha(a, b)``. Zero cross-distances
        saturate individual terms, and the min clamps at 1."""
        s_a = self.sens[a]
        x_ab, x_ba = self._alpha(a, b), self._alpha(b, a)
        return np.minimum(1.0, (s_a * self.sens[b]) / (x_ab * x_ba) + s_a / x_ab + s_a / x_ba)

    def affectances(self, a, b):
        """Affectance of senders a onto targets b, beta_b * received / margin_b
        with margins p / d^alpha - beta * N. Saturates at 1, and a target
        without a positive margin takes 1 from every sender, silent or not."""
        x = self._alpha(a, b)
        received = _received(self.p[a], x) if self.silent else self.p[a] / x
        value = np.minimum(1.0, self.beta[b] * received / self.margin[b])
        return np.where(self.margin[b] > 0, value, 1.0) if self.saturated else value


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
    pos = instance.positions(ids)
    beta = _thresholds_at(instance, ids, thresholds, pos)
    selected, trace, cands = _greedy_unlimited(instance, ids, pos, beta)
    return _finish(instance, cands, selected[::-1], "unlimited", trace)


def _greedy(candidates, index, load, budget, row):
    """Walk ``candidates`` (ids, positions ``index[id]``) in the given order
    and accept each whose entry of ``load`` is within ``budget``; accepting
    the candidate at position k adds ``row(k)`` to ``load`` in place. Entry k
    of that row is never read, since each candidate is walked once. A
    candidate missing from ``index`` is rejected at an infinite load.

    Returns the accepted ids in acceptance order and one trace row
    (id, accepted, load) per candidate.
    """
    accepted = []
    trace = []
    for cand in candidates:
        k = index.get(cand)
        if k is None:
            trace.append((cand, False, INF))
            continue
        lk = load.item(k)
        ok = lk <= budget
        trace.append((cand, ok, lk))
        if ok:
            accepted.append(cand)
            load += row(k)
    return accepted, tuple(trace)


def _greedy_unlimited(instance, ids, pos, beta):
    """Weight-budget pass of the unlimited greedy over nonempty ``ids`` (rows
    ``pos``, thresholds ``beta``): accepted links (least sensitive first),
    trace rows and the candidates.

    A load is the summed weight from the accepted links, added one row at a
    time in acceptance order. Accepted links are less sensitive than every
    later candidate, so no rank mask is needed. The first candidate starts at
    load 0, so at least one link is accepted.
    """
    with np.errstate(**_ROW_ERRSTATE):
        cands = _Candidates(instance, ids, pos, beta)
        order = sensitivity_order(instance, ids, beta)
        accepted, trace = _greedy(reversed(order), cands.index, np.zeros(len(ids)),
                                  weight_budget(instance.alpha), lambda k: cands.weights(k, ALL))
    return accepted, trace, cands


def _finish(instance, cands, accepted, algorithm, trace, p=None):
    """Solution over ``accepted``, some of the candidates ``cands``. ``p``,
    if given, holds the candidates' powers; otherwise the power recurrence
    assigns them, walking ``accepted`` in order, most sensitive link first:
    p(l) = 2 beta N d^alpha + 2 beta d^alpha * sum of prior p / cross-distance^alpha.

    The recurrence and the SINRs read one k x k matrix over the accepted
    links in sorted id order, cross[i, j] = d(sender_j, receiver_i)^alpha
    from the candidates' kernel: the floats of ``geometry().cross_alpha``,
    so the SINRs are ``evaluate_sinrs``' arithmetic. Scalar steps use Python
    floats. The trace is kept even when nothing is selected."""
    selected = sorted(accepted)
    at = np.array(list(map(cands.index.__getitem__, selected)), dtype=np.intp)
    with np.errstate(**_ROW_ERRSTATE):
        cross = cands._alpha(at[None, :], at[:, None])
        if p is None:
            beta, d_alpha = cands.beta[at].tolist(), cands.d_alpha[at].tolist()
            gain = 1.0 / cross
            # interference[k]: summed p / cross-distance^alpha at link k from
            # the links assigned so far, in assignment order
            interference = np.zeros(len(at))
            powers = np.empty(len(at))
            rank = {lid: k for k, lid in enumerate(selected)}
            for k in map(rank.__getitem__, accepted):
                pk = 2.0 * beta[k] * d_alpha[k] * (instance.noise + interference.item(k))
                powers[k] = pk
                interference += pk * gain[:, k]
        else:
            powers = p[at]
    return Solution(
        selected=tuple(selected),
        powers=dict(zip(selected, powers.tolist())),
        sinr=dict(zip(selected, sinr_vector(cross, powers, instance.noise).tolist())),
        objective=float(len(selected)),
        algorithm=algorithm,
        trace=trace,
    )


def check_power_preconditions(
    instance: Instance,
    ids: Sequence[int],
    powers: Union[Mapping[int, float], np.ndarray],
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

    ``powers`` is a mapping id -> power, or an array aligned with ``ids``
    (as ``solve_fixed`` holds them); ``thresholds`` is as in
    ``thresholds_for``.
    """
    if isinstance(powers, np.ndarray):
        if powers.shape != (len(ids),):
            raise ValueError("power array does not match the links")
        p = powers.astype(np.float64, copy=False)
    else:
        p = np.array(powers_for(instance, ids, powers), dtype=np.float64)
    s = thresholds_for(instance, ids, thresholds) * instance.d_alpha[instance.positions(ids)]
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
    p = np.array(powers_for(instance, ids, powers), dtype=np.float64)
    pos = instance.positions(ids)
    beta = _thresholds_at(instance, ids, thresholds, pos)
    final, trace, cands = _fixed_pass(instance, ids, pos, beta, p)
    if warn_preconditions:
        issues = check_power_preconditions(instance, ids, p, beta)
        if issues:
            warnings.warn(
                "fixed power assignment is not monotone (sub-)linear in sensitivity: "
                + issues[0],
                RuntimeWarning,
                stacklevel=2,
            )
    return _finish(instance, cands, final, "fixed", trace, cands.p)


def _fixed_pass(instance, ids, pos, beta, p):
    """Tentative pass and filter of the fixed solver over nonempty ``ids``
    (rows ``pos``, thresholds ``beta``, powers ``p``): the kept links, one
    trace row per link and the candidates.

    A link that misses the solo SINR gate (p / d^alpha must reach beta * N up
    to tolerance) is never accepted and its affectance enters no other
    link's load, so it is walked only as a trace row (id, False, inf). The
    candidates, and with them every row and column, cover the links that
    pass the gate: O(n_gate * |accepted|).
    """
    with np.errstate(**_ROW_ERRSTATE):
        order = sensitivity_order(instance, ids, beta)
        d_alpha = instance.d_alpha[pos]
        gate = p / d_alpha >= beta * instance.noise * (1 - FEAS_RTOL)
        if not gate.all():
            # the candidates check repeated ids and overflowing sensitivities
            # only among the links that pass the gate
            index_of(ids)
            _sensitivities(ids, beta, d_alpha)
            ids = list(compress(ids, gate.tolist()))
            pos, beta, p = pos[gate], beta[gate], p[gate]
        cands = _Candidates(instance, ids, pos, beta, p)
        # load[c]: affectance between c and the tentative links, both ways;
        # incoming[c]: affectance from the tentative links onto c. The filter
        # reads a tentative link's own entry, so its row's is zeroed
        incoming = np.zeros(len(ids))

        def both_ways(k):
            row = cands.affectances(k, ALL)
            row[k] = 0.0
            np.add(incoming, row, out=incoming)
            return row + cands.affectances(ALL, k)

        tentative, trace = _greedy(reversed(order), cands.index, np.zeros(len(ids)), 0.5,
                                   both_ways)
    return [lid for lid in tentative if incoming[cands.index[lid]] < 1.0], trace, cands


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
    the fixed-power solver at full power. The larger solution wins, traced
    by both branches' traces, so its trace names every candidate.
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
    pos = instance.positions(ids)
    beta = _thresholds_at(instance, ids, thresholds, pos)
    with np.errstate(over="ignore"):  # its branch rejects a sensitivity that overflows
        small = beta * instance.noise * instance.d_alpha[pos] <= instance.p_max / 4.0
    sol1, sol2 = empty_solution("limited"), empty_solution("fixed")
    if small.any():
        r1 = list(compress(ids, small.tolist()))
        sol1 = _limited_first_branch(instance, r1, pos[small], beta[small])
    if not small.all():
        big = ~small
        r2 = list(compress(ids, big.tolist()))
        p = np.full(len(r2), instance.p_max, dtype=np.float64)
        final, trace, cands = _fixed_pass(instance, r2, pos[big], beta[big], p)
        sol2 = _finish(instance, cands, final, "fixed", trace, cands.p)
    chosen = sol1 if len(sol1.selected) >= len(sol2.selected) else sol2
    return replace(chosen, algorithm="limited", trace=sol1.trace + sol2.trace)


def _limited_first_branch(instance, r1, pos, beta):
    """The unlimited greedy's weight-budget pass, then a second pass over the
    links it accepted, most sensitive first, that keeps a link while its
    outgoing weight onto the kept links, taken a block of ``_BLOCK`` columns
    at a time, stays within the budget."""
    first_pass, trace1, cands = _greedy_unlimited(instance, r1, pos, beta)
    # the first pass accepted its links least sensitive first; walked back, a
    # load is the weight from c onto the kept links, all more sensitive than c
    walk = first_pass[::-1]
    at = np.array([cands.index[lid] for lid in walk], dtype=np.intp)
    load, kept, trace2 = np.zeros(len(walk)), [], ()
    with np.errstate(**_ROW_ERRSTATE):
        for start in range(0, len(walk), _BLOCK):
            cols = slice(start, start + _BLOCK)
            # block[a, j]: weight from walked link start + a onto start + j
            block = cands.weights(at[start:, None], at[None, cols])
            got, trace = _greedy(walk[cols], index_of(walk[cols]), load[start:],
                                 SECOND_PASS_BUDGET, lambda j: block[:, j])
            kept += got
            trace2 += trace
    return _finish(instance, cands, kept, "limited", trace1 + trace2)
