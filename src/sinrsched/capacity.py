"""Threshold capacity maximization: greedy link selection with power control.

Three solvers share the sensitivity ordering from the model:

* ``solve_unlimited`` — greedy selection under a pairwise weight budget,
  then a power recurrence that walks from the most sensitive link down.
  Every returned link meets its SINR threshold.
* ``solve_fixed``     — greedy under a bidirectional affectance budget for a
  given power assignment, followed by a clean-up filter.
* ``solve_limited``   — splits links by whether a quarter of the power cap
  covers their sensitivity, runs a capped variant of the unlimited solver's
  passes on one part and the fixed solver's pass at full power on the other,
  and finishes only the branch that keeps more links (powers, SINRs), which
  it returns. Powers never exceed the cap.

Every greedy pass lays its candidate arrays out once in walk order, least
sensitive first with ties by descending id, so that the candidates not yet
walked are a suffix. One loop, ``_greedy``, walks every pass: it accepts a
candidate while its load stays within the budget and, on accepting the
candidate at position j, adds the accepted link's weight or affectance row
to the loads of positions j + 1 on; rows, columns and blocks all come from
one kernel per value (see ``_Candidates``). No row touches a walked entry,
so when the walk ends the load array holds every candidate's walk-time load
and the trace is read off it. Above ``_DENSE`` = 128 candidates no solver
builds an n x n matrix over its n candidates: a solve takes O(n *
|accepted|) time and O(n) memory, plus O(|accepted|^2) for the power
recurrence and the SINR evaluation of the accepted links, which share one
cross matrix taken from the same kernel. A set of at most 128 candidates,
such as a latency or flexible level, has one m x m matrix (at most 128 KB)
that every kernel reads, with the same floats. On an instance of at most 128
links that matrix is sliced out of the instance's own pair matrix, measured
on the first solve and kept (``Instance._cross_alpha``), so the many level
solves of a latency schedule measure no distance; on a larger instance the
set measures its own. The solvers measure only through their candidates,
never through ``geometry``, whose matrix is the checkers' own. The fixed
pass's rows and columns cover only the n_gate links that pass the solo SINR
gate, O(n_gate * |accepted|); a link that misses it appears only as a trace
row. A load only grows, so an unwalked candidate above the budget 1/2 can
never be accepted: after every 8th accept the fixed pass freezes each such
candidate at its load then, which its trace row records, and once at most
half of the candidates its rows cover still matter (tentative links, whose
incoming affectance the filter reads, and unwalked candidates that are not
frozen) it compacts them to those, through ``_Candidates.subset``, still in
walk order. Frozen loads follow from the accepts alone, not from when the
set is compacted, so a rejected candidate still changes no other row. On an
n = 10^5 instance (area 1000 * sqrt(n / 300), uniform power 10^6) this cut
the rows' work to 30 % and ``solve_fixed`` from 13.5 to 5.0 s on a 2-CPU
Linux machine. A compaction writes the loads it drops, which are final,
back to the pass's load array. The limited solver's second pass over the k
links its first pass accepted takes their weights in column blocks of 256
links, in O(k * 256) memory. Endpoints, ``d^alpha`` and thresholds are
sliced from the per-link arrays cached on ``Instance``, so every
sensitivity and kernel here reads the one ``Instance.d_alpha``. Every cross
``d^alpha`` is one ``MetricSpace.between`` call, which raises the squared
distance to alpha / 2 with no square root (the sum itself at alpha = 2).

``thresholds`` is a mapping id -> beta that overrides the links' own
thresholds, or an array aligned with ``links`` (see ``thresholds_for``). A
solve resolves its ids to rows and thresholds once, asks
``sensitivity_order`` for its links' order together with the index that
lays its arrays out in it, and hands the walk-order arrays down: no pass
looks an id up. Under the links' own thresholds (every solve whose caller
gave none) that reads the order the instance sorts once and keeps:
capacity-large's unlimited, limited and fixed solves of one instance sort
its sensitivities once between them, and the limited solver's two branches
walk parts of one order. Overrides, such as every latency or flexible
level's, sort their own; a level also passes the rows it holds (``pos``).
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
    _DENSE,
    _sensitivities,
    _sinr,
    empty_solution,
    index_of,
    powers_for,
    sensitivity_order,
    thresholds_for,
)

# Second-pass weight budget of the limited-power solver, and the links per
# column block of the weights that pass evaluates.
SECOND_PASS_BUDGET = 0.25
_BLOCK = 256


def weight_budget(alpha: float) -> float:
    """Greedy acceptance budget tau = 1 / (6 * 3^alpha + 2)."""
    # 6 * 3^646 overflows to inf, so tau is 0.0 from there on; 3.0**647 would raise
    return 1.0 / (6.0 * 3.0 ** min(alpha, 646.0) + 2.0)


# Floating-point conditions the kernels saturate by design (zero
# cross-distances, zero margins, overflowing products; an overflowing
# sensitivity is rejected), entered once by each public solver around its
# candidates, order, walks and finish.
_ROW_ERRSTATE = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}
ALL = slice(None)  # the kernels' position of every candidate


class _Candidates:
    """O(n) arrays over a candidate set, in walk order, and the pair kernels
    the greedies add up.

    ``ids`` (a list) are the candidates in the order a pass walks them,
    least sensitive first, ``pos`` their rows of the instance arrays,
    ``beta`` their resolved thresholds and ``p`` their powers, None when the
    power recurrence is to assign them; a candidate's position is its index
    in these. A kernel gives the value from each candidate a onto each b, for
    positions that broadcast: ``(k, ALL)`` is a row, ``(ALL, k)`` a column,
    ``(k, slice(k + 1, None))`` the part of a row after k, ``(rows[:, None],
    cols[None, :])`` a block. A value onto itself is left as computed. Use it
    under ``_ROW_ERRSTATE``.

    ``_alpha`` reads ``cross[i, j] = d(sender_j, receiver_i)^alpha`` (m x m
    floats, at most 128 KB) when the set has it, and otherwise measures with
    ``MetricSpace.between`` at the instance's alpha, on endpoints gathered
    once (see ``MetricSpace.gather``). Where ``cross`` comes from:

    * an instance of at most ``_DENSE`` links: sliced at ``pos`` out of the
      instance's pair matrix, which the first solve on it measures;
    * a larger instance, and a set of at most ``_DENSE`` candidates: every
      pair measured once, at construction;
    * a larger set: none (``cross`` is None), every row and column streams.

    All three measure with the same call as a streamed row, so they give the
    same bits. Paired against streaming on the capacity recipe (area 1000 *
    sqrt(n / 2000)), the unlimited solver's time ratio dense / streaming was
    0.93 at 16 and 64 links, ~1.0 at 96 and 128, 1.85 at 192 and 2.30 at
    256; the fixed solver's was 0.80-0.85 at every size.

    The fixed pass builds the set over only the links that pass the solo
    gate, so its rows and columns take O(n_gate) each; the links that miss
    it appear only as trace rows. The gate holds 0 < p < inf and p / d^alpha
    >= beta * N up to tolerance, so every power is finite and positive, and
    ``margin`` = p / d^alpha - beta * N is clamped at 0: only a link in the
    gate's tolerance band, or one whose beta * N underflows, has margin 0.
    """

    def __init__(self, instance, ids, pos, beta, p=None):
        self.ids = ids
        self.cross = None
        if len(instance.links) <= _DENSE:
            # rows pos, then columns pos, of the instance's pair matrix,
            # which is measured once per instance
            self.cross = instance._cross_alpha.take(pos, 0).take(pos, 1)
        else:
            metric = instance.metric
            self.between = metric.between
            self.alpha = instance.alpha
            self.senders = metric.gather(instance.senders[pos])
            self.receivers = metric.gather(instance.receivers[pos])
            if len(ids) <= _DENSE:
                # cross[i, j] = d(sender_j, receiver_i)^alpha, every pair
                # measured once with the streaming kernel's call
                self.cross = self.between(self.receivers[..., :, None],
                                          self.senders[..., None, :], self.alpha)
        self.d_alpha = instance.d_alpha[pos]
        self.beta = beta
        self.sens = beta * self.d_alpha
        self.p = p
        if p is not None:
            self.margin = np.maximum(p / self.d_alpha - beta * instance.noise, 0.0)

    def _alpha(self, a, b):
        """d(sender_a, receiver_b)^alpha, read from ``cross`` when the set
        has one."""
        if self.cross is not None:
            return self.cross[b, a]
        return self.between(self.receivers[..., b], self.senders[..., a], self.alpha)

    def weights(self, a, b):
        """Directed weight min(1, s_a s_b / (x_ab x_ba) + s_a / x_ab + s_a / x_ba),
        with sensitivities s and x_ab = ``_alpha(a, b)``. Zero cross-distances
        saturate individual terms, and the min clamps at 1."""
        s_a = self.sens[a]
        x_ab, x_ba = self._alpha(a, b), self._alpha(b, a)
        return np.minimum(1.0, (s_a * self.sens[b]) / (x_ab * x_ba) + s_a / x_ab + s_a / x_ba)

    def affectances(self, a, b):
        """Affectance of senders a onto targets b, beta_b * (p_a / x_ab) /
        margin_b, saturated at 1, so every value lies in [0, 1]. With finite
        positive powers, a target of margin 0 reads inf, or NaN (0 / 0) from
        a sender so far that p_a / x_ab is 0, and ``fmin`` reads both as 1:
        it takes 1 from every sender."""
        return np.fmin(1.0, self.beta[b] * (self.p[a] / self._alpha(a, b)) / self.margin[b])

    def subset(self, at):
        """The candidates at positions ``at`` of this set, which has powers:
        their endpoints, thresholds, powers and margins, and ``cross`` when
        this set has one; what ``affectances`` reads, and no more."""
        sub = object.__new__(_Candidates)
        if self.cross is not None:
            sub.cross = self.cross.take(at, 0).take(at, 1)
        else:
            sub.cross, sub.between, sub.alpha = None, self.between, self.alpha
            # take keeps each coordinate's row contiguous, where [..., at] would not
            sub.senders, sub.receivers = self.senders.take(at, -1), self.receivers.take(at, -1)
        sub.beta, sub.p, sub.margin = self.beta[at], self.p[at], self.margin[at]
        return sub


def solve_unlimited(
    instance: Instance,
    links: Optional[Sequence[int]] = None,
    thresholds: Optional[Thresholds] = None,
    *,
    pos: Optional[np.ndarray] = None,
) -> Solution:
    """Greedy capacity maximization choosing powers from an unbounded range.

    Selection walks from the least to the most sensitive link and accepts a
    candidate when the summed weight from already accepted links stays within
    the budget. Powers are then assigned from the most sensitive link down;
    each power covers noise plus the interference of the more sensitive links
    twice over, which guarantees every accepted link meets its threshold.
    A link whose beta * d^alpha * N underflows to 0, and which would get
    power 0, is dropped up front. ``pos``, when given, are the rows of
    ``links`` in the instance arrays (``Instance.positions(links)``), which
    a caller that holds them passes to save the lookups; the links must then
    be distinct, which is not checked.
    """
    ids, pos = _rows(instance, links, pos)
    if not ids:
        return empty_solution("unlimited")
    beta = _thresholds(instance, ids, thresholds, pos)
    with np.errstate(**_ROW_ERRSTATE):
        accepted, trace, cands = _greedy_unlimited(
            instance, *_walk_order(instance, ids, pos, beta, thresholds is None))
        return _finish(instance, cands, accepted[::-1], "unlimited", trace)


def _rows(instance, links, pos):
    """(ids, rows) of a solve's links: the instance's own ``link_ids`` at
    rows 0..n-1 when ``links`` is None, else a list of ``links`` and their
    rows, ``pos`` when the caller holds them. Without ``pos``, a link given
    twice raises ValueError naming it (see ``index_of``): it would count as
    two interfering copies of itself."""
    if links is None:
        return instance.link_ids, np.arange(len(instance.links))
    ids = list(links)
    if pos is None:
        pos = instance.positions(ids)
        if len(set(ids)) < len(ids):
            index_of(ids)
    return ids, pos


def _thresholds(instance, ids, thresholds, pos):
    """The solve's threshold array (see ``thresholds_for``). An array of
    overrides is taken as it is: ``sensitivity_order`` checks it when the
    solve sorts by it, before anything reads it, so that a level solve
    checks its thresholds once."""
    if isinstance(thresholds, np.ndarray):
        return thresholds
    return thresholds_for(instance, ids, thresholds, pos)


def _walk_order(instance, ids, pos, beta, own, *aligned):
    """``ids`` in the order every pass walks them, least sensitive first with
    ties by descending id (``sensitivity_order`` reversed), and their rows
    ``pos``, thresholds ``beta`` (the links' own when ``own``) and each array
    of ``aligned`` laid out in that order. An override whose sensitivity
    overflows raises ValueError naming the first such link of ``ids``; the
    links' own cannot overflow (see ``Instance``)."""
    order_ids, order = sensitivity_order(instance, None if ids is instance.link_ids else ids,
                                         None if own else beta, pos, return_index=True)
    walk = order[::-1]
    pos_w, beta_w = pos[walk], beta[walk]
    # the last link walked is the most sensitive
    if not own and beta_w.item(-1) * instance.d_alpha.item(pos_w.item(-1)) == INF:
        _sensitivities(ids, beta, instance.d_alpha[pos])
    return order_ids[::-1], pos_w, beta_w, *(a[walk] for a in aligned)


def _admit(gate, ids, *aligned):
    """``ids`` (a list) and each array of ``aligned`` cut to the links where
    the mask ``gate`` holds."""
    if gate.all():
        return ids, *aligned
    return list(compress(ids, gate.tolist())), *(a[gate] for a in aligned)


def _greedy(load, budget, accept):
    """Walk the candidates at positions 0, 1, ... of ``load`` and accept each
    whose load is within ``budget``. Accepting the candidate at position i
    calls ``accept(i)``, which adds its row to the entries after i and
    returns the array and position the walk goes on from: ``load`` and i +
    1, unless the pass compacted its candidates. No row touches a walked
    entry, so when the walk ends each entry holds the load the walk
    compared, and a candidate was accepted exactly when that load is within
    ``budget``.
    """
    i = 0
    while i < len(load):
        if load.item(i) <= budget:
            load, i = accept(i)
        else:
            i += 1


def _walked(ids, load, budget, gate=None):
    """(accepted, trace) of a walk over ``ids`` that left each link's
    walk-time load in ``load``: the positions whose load is within
    ``budget``, and one trace row (id, accepted, load) per link. When
    ``load`` covers fewer links, they are those where the mask ``gate``
    holds, and the others are rejected at an infinite load."""
    ok = load <= budget
    accepted = ok.nonzero()[0]
    if len(load) < len(ids):
        full = np.full(len(ids), INF)
        full[gate] = load
        load, ok = full, full <= budget
    return accepted, tuple(zip(ids, ok.tolist(), load.tolist()))


def _greedy_unlimited(instance, ids, pos, beta):
    """Weight-budget pass of the unlimited greedy over nonempty ``ids`` in
    walk order (rows ``pos``, thresholds ``beta``): the positions of the
    accepted candidates (least sensitive first), trace rows and the
    candidates.

    A load is the summed weight from the accepted links, added one row at a
    time in acceptance order. Accepted links are less sensitive than every
    later candidate, so no rank mask is needed. A link whose beta * d^alpha *
    N underflows to 0 would get power 0 from the recurrence, so it is never
    accepted and is walked only as a trace row (id, False, inf). The first
    admitted candidate starts at load 0, so it is accepted.
    """
    cands = _Candidates(instance, ids, pos, beta)
    gate = cands.sens * instance.noise > 0
    if not gate.all():  # rare: some beta * d^alpha * N underflows
        cands = _Candidates(instance, *_admit(gate, ids, pos, beta))
    load = np.zeros(len(cands.ids))
    budget = weight_budget(instance.alpha)

    def accept(i):
        rest = load[i + 1:]
        rest += cands.weights(i, slice(i + 1, None))
        return load, i + 1

    _greedy(load, budget, accept)
    return *_walked(ids, load, budget, gate), cands


def _finish(instance, cands, at, algorithm, trace):
    """Solution over the candidates at positions ``at`` of ``cands``, at the
    candidates' powers if they have any; otherwise the power recurrence
    assigns them, walking ``at`` in order, most sensitive link first:
    p(l) = 2 beta N d^alpha + 2 beta d^alpha * sum of prior p / cross-distance^alpha.

    The recurrence and the SINRs read one k x k matrix over the selected
    links in sorted id order, cross[i, j] = d(sender_j, receiver_i)^alpha
    from the candidates' kernel: the floats of ``geometry().cross_alpha``,
    so the SINRs are ``evaluate_sinrs``' arithmetic. Scalar steps use Python
    floats. The trace is kept even when nothing is selected."""
    at = at.tolist()
    by_id = sorted(at, key=cands.ids.__getitem__)
    selected = [cands.ids[k] for k in by_id]
    sel = np.fromiter(by_id, np.intp, len(by_id))
    cross = cands._alpha(sel[None, :], sel[:, None])
    if cands.p is None:
        beta, d_alpha = cands.beta[sel].tolist(), cands.d_alpha[sel].tolist()
        gain = 1.0 / cross
        # interference[k]: summed p / cross-distance^alpha at link k from the
        # links assigned so far, in assignment order; no link reads the last
        # assigned link's column
        interference, powers = np.zeros(len(sel)), np.empty(len(sel))
        rank = dict(zip(by_id, range(len(by_id))))
        last = rank[at[-1]] if at else None
        for k in map(rank.__getitem__, at):
            powers[k] = pk = 2.0 * beta[k] * d_alpha[k] * (instance.noise + interference.item(k))
            if k != last:
                interference += pk * gain[:, k]
    else:
        powers = cands.p[sel]
    return Solution(
        selected=tuple(selected),
        powers=dict(zip(selected, powers.tolist())),
        sinr=dict(zip(selected, _sinr(cross, powers, instance.noise).tolist())),
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
    # the instance's own ids (an all-link solve's) are rows 0..n-1
    own = ids is instance.link_ids
    pos = np.arange(len(ids)) if own else instance.positions(ids)
    d_alpha = instance.d_alpha if own else instance.d_alpha[pos]
    s = thresholds_for(instance, ids, thresholds, pos) * d_alpha
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
    *,
    pos: Optional[np.ndarray] = None,
) -> Solution:
    """Greedy capacity maximization under a given power assignment.

    Candidates that cannot meet their threshold even alone, or whose power
    is zero or not finite, are dropped up front. The tentative pass accepts
    a link when incoming plus outgoing affectance against the accepted set
    stays within 1/2; the final filter keeps links whose total incoming
    affectance is below 1, so every returned link meets its threshold.
    ``pos`` is as in ``solve_unlimited``.
    """
    ids, pos = _rows(instance, links, pos)
    if not ids:
        return empty_solution("fixed")
    p = np.array(powers_for(instance, ids, powers), dtype=np.float64)
    beta = _thresholds(instance, ids, thresholds, pos)
    with np.errstate(**_ROW_ERRSTATE):
        final, trace, cands = _fixed_pass(
            instance, *_walk_order(instance, ids, pos, beta, thresholds is None, p))
        solution = _finish(instance, cands, final, "fixed", trace)
    if warn_preconditions:
        issues = check_power_preconditions(instance, ids, p, beta)
        if issues:
            warnings.warn(
                "fixed power assignment is not monotone (sub-)linear in sensitivity: "
                + issues[0],
                RuntimeWarning,
                stacklevel=2,
            )
    return solution


def _fixed_pass(instance, ids, pos, beta, p):
    """Tentative pass and filter of the fixed solver over nonempty ``ids`` in
    walk order (rows ``pos``, thresholds ``beta``, powers ``p``): the kept
    links' positions among the candidates, one trace row per link and the
    candidates.

    A link that misses the solo SINR gate (0 < p < inf, and p / d^alpha must
    reach beta * N up to tolerance) is never accepted and its affectance
    enters no other link's load, so it is walked only as a trace row (id,
    False, inf). The candidates, and with them every row and column, cover
    the links that pass the gate: O(n_gate * |accepted|), and from the first
    compaction on only the candidates that still matter (see
    ``_FixedLoads``). A rejected row's load is its walk-time load, unless the
    candidate was frozen: then it is the load at the check that froze it,
    above the budget and at most the walk-time sum.
    """
    d_alpha = instance.d_alpha[pos]
    gate = (0 < p) & (p < INF) & (p / d_alpha >= beta * instance.noise * (1 - FEAS_RTOL))
    cands = _Candidates(instance, *_admit(gate, ids, pos, beta, p))
    loads = _FixedLoads(cands)
    _greedy(loads.tracked, 0.5, loads.accept)
    load, incoming = loads.result()
    tentative, trace = _walked(ids, load, 0.5, gate)
    return tentative[incoming < 1.0], trace, cands


# The fixed pass looks for dead candidates after every _CHECK-th accept
_CHECK = 8


def _compacts(matter: int, tracked: int) -> bool:
    """Whether the fixed pass compacts its ``tracked`` candidates to the
    ``matter`` of them that still matter: when at most half do."""
    return 2 * matter <= tracked


class _FixedLoads:
    """The tentative pass's loads over the candidates ``cands``, which
    ``_greedy`` walks in ``tracked``: ``accept(j)`` adds the two-way
    affectance row of the tentative link at tracked position j to the
    unwalked candidates, from j + 1 on, and its outgoing affectances to
    ``incoming``.

    Rows cover only the tracked candidates, at first all of them. After
    every ``_CHECK``-th accept, each unwalked candidate whose load is above
    the budget 1/2 is frozen: a load only grows, so the walk will reject it,
    and its load stays the one at that check (the zeroed entries ``frozen``
    of each later row). When at most half of the tracked candidates still
    matter (tentative, so that ``incoming`` gets every add, or unwalked and
    not frozen), the tracked set is compacted to those, still in walk order:
    the tentative links, all walked, come first. Which candidates freeze,
    and at what loads, follows from the accepts alone, not from when the set
    is compacted.

    ``load`` holds every candidate's load. ``at`` are the tracked
    candidates' positions (None while every candidate is tracked), ``sub``
    the candidates over them, and ``tracked`` and ``incoming`` their loads
    and the affectances from the tentative links onto them; ``tracked`` is
    ``load`` itself until the first compaction, and is written back over
    ``load`` at each later one and at the end. ``kept`` are the tentative
    links' tracked positions in acceptance order.
    """

    def __init__(self, cands):
        n = len(cands.beta)
        self.sub = cands
        self.load = self.tracked = np.zeros(n)
        self.incoming = np.zeros(n)
        self.kept = []
        self.at = self.frozen = None

    def accept(self, j):
        out = self.sub.affectances(j, ALL)
        out[j] = 0.0
        self.incoming += out
        rest = out[j + 1:]
        rest += self.sub.affectances(slice(j + 1, None), j)
        if self.frozen is not None:
            out[self.frozen] = 0.0
        self.tracked[j + 1:] += rest
        self.kept.append(j)
        if len(self.kept) % _CHECK:
            return self.tracked, j + 1
        return self._check(j)

    def _check(self, j):
        """Freeze the unwalked candidates above the budget (the tentative
        link at tracked position j was walked last), and compact when at
        most half of the tracked candidates still matter. Returns the array
        and position the walk goes on from."""
        dead = self.tracked[j + 1:] > 0.5
        frozen = np.flatnonzero(dead)
        self.frozen = frozen + (j + 1) if frozen.size else None
        # every tentative link is tracked, and walked
        if not _compacts(len(self.kept) + len(dead) - frozen.size, len(self.tracked)):
            return self.tracked, j + 1
        keep = np.concatenate((self.kept, np.flatnonzero(~dead) + (j + 1)))
        self._write_back()
        self.at = keep if self.at is None else self.at[keep]
        self.sub = self.sub.subset(keep)
        self.tracked, self.incoming = self.tracked[keep], self.incoming[keep]
        self.kept = list(range(len(self.kept)))
        self.frozen = None
        return self.tracked, len(self.kept)

    def _write_back(self):
        if self.at is not None:
            self.load[self.at] = self.tracked

    def result(self) -> tuple:
        """(load, incoming) once the walk has ended: every candidate's trace
        load, and the affectance from the other tentative links onto each
        tentative link, in acceptance order."""
        self._write_back()
        return self.load, self.incoming[self.kept]


def solve_limited(
    instance: Instance,
    links: Optional[Sequence[int]] = None,
    thresholds: Optional[Thresholds] = None,
    *,
    pos: Optional[np.ndarray] = None,
) -> Solution:
    """Capacity maximization with powers chosen from [0, p_max].

    Links whose sensitivity fits within a quarter of the cap go through the
    unlimited-power greedy plus a second pass that re-checks each kept link's
    outgoing weight against the already kept, more sensitive links; that
    bound makes the power recurrence respect the cap. The remaining links run
    the fixed-power solver at full power. The branch that keeps more links
    wins, the small-sensitivity one on a tie, and only it is finished: its
    powers, SINRs and ``Solution`` are built once, for the links returned.
    Its trace is both branches' traces, so it names every candidate.
    ``pos`` is as in ``solve_unlimited``.
    """
    if instance.p_max == INF:
        # no cap to respect: the unlimited solver's solution stands as is
        return replace(solve_unlimited(instance, links, thresholds, pos=pos), algorithm="limited")

    ids, pos = _rows(instance, links, pos)
    if not ids:
        return empty_solution("limited")
    beta = _thresholds(instance, ids, thresholds, pos)
    # the branch to finish, by its kept links' positions and its candidates;
    # the trace names both branches' candidates
    kept, trace, cands = None, (), None
    with np.errstate(**_ROW_ERRSTATE):
        # one walk order, which each branch walks its part of
        ids, pos, beta = _walk_order(instance, ids, pos, beta, thresholds is None)
        small = beta * instance.noise * instance.d_alpha[pos] <= instance.p_max / 4.0
        if small.any():
            kept, trace, cands = _limited_first_branch(instance, *_admit(small, ids, pos, beta))
        if not small.all():
            r2, pos2, beta2 = _admit(~small, ids, pos, beta)
            full = np.full(len(r2), instance.p_max, dtype=np.float64)
            final, trace2, cands2 = _fixed_pass(instance, r2, pos2, beta2, full)
            # the small-sensitivity branch, if any, wins a tie
            if cands is None or len(final) > len(kept):
                kept, cands = final, cands2
            trace += trace2
        return _finish(instance, cands, kept, "limited", trace)


def _limited_first_branch(instance, ids, pos, beta):
    """The unlimited greedy's weight-budget pass over ``ids`` in walk order
    (rows ``pos``, thresholds ``beta``), then a second pass over the links it
    accepted, most sensitive first, that keeps a link while its outgoing
    weight onto the kept links, taken a block of ``_BLOCK`` columns at a
    time, stays within the budget. Returns the kept links' positions among
    the candidates, most sensitive first, the first pass's trace rows
    followed by the second's, and the candidates."""
    first, trace1, cands = _greedy_unlimited(instance, ids, pos, beta)
    # the first pass accepted its links least sensitive first; walked back, a
    # load is the weight from c onto the kept links, all more sensitive than c
    walk = first[::-1]
    load = np.zeros(len(walk))
    for start in range(0, len(walk), _BLOCK):
        cols = slice(start, start + _BLOCK)
        # block[a, j]: weight from walked link start + a onto start + j
        block = cands.weights(walk[start:, None], walk[None, cols])
        part = load[cols]

        def accept(j):
            rest = load[start + j + 1:]
            rest += block[j + 1:, j]
            return part, j + 1

        _greedy(part, SECOND_PASS_BUDGET, accept)
    kept, trace2 = _walked([cands.ids[k] for k in walk.tolist()], load, SECOND_PASS_BUDGET)
    return walk[kept], trace1 + trace2, cands
