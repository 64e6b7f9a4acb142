"""The capacity solvers against a walk written from the formulas.

The reference shares no code with the solvers' candidate arrays
(``capacity._Candidates``) or their order: it sorts the links with a Python
key, least sensitive first with ties by descending id, walks them one id at
a time, and reads every weight and affectance from dense matrices built on
the checkers' cross matrix (``geometry``). A candidate's load is the sum of
the accepted links' entries onto it, added in acceptance order; the fixed
pass freezes an unwalked candidate after every 8th accept, as ``Solution``
documents. The solvers must reproduce it bit for bit: selections, powers,
SINRs and every trace row.
"""

import json
import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrsched import (
    INF,
    GenConfig,
    Instance,
    Link,
    MetricSpace,
    gen_random,
    solve_fixed,
    solve_limited,
    solve_unlimited,
)
from sinrsched.capacity import SECOND_PASS_BUDGET, weight_budget
from sinrsched.model import FEAS_RTOL, evaluate_sinrs, geometry

FREEZE_EVERY = 8  # accepts between two freeze checks of the fixed pass


class _Dense:
    """Cross-distances, weights and, given powers, affectances over ``ids``
    as dense matrices, indexed by ``row[id]``."""

    def __init__(self, inst, ids, beta, powers=None):
        geo = geometry(inst, ids)
        self.row = {lid: k for k, lid in enumerate(geo.ids)}
        self.cross = geo.cross_alpha  # cross[i, j] = d(sender_j, receiver_i)^alpha
        x = self.cross.T  # x[a, b] = d(sender_a, receiver_b)^alpha
        b = np.array([beta[lid] for lid in geo.ids])
        s = b * geo.d_alpha
        with np.errstate(all="ignore"):
            # weight of a onto b: min(1, s_a s_b / (x_ab x_ba) + s_a / x_ab + s_a / x_ba)
            self.w = np.minimum(1.0, (s[:, None] * s[None, :]) / (x * x.T)
                                + s[:, None] / x + s[:, None] / x.T)
            self.gain = 1.0 / self.cross
            if powers is not None:
                p = np.array([powers[lid] for lid in geo.ids], dtype=np.float64)
                margin = np.maximum(p / geo.d_alpha - b * inst.noise, 0.0)
                # affectance of a onto b: beta_b (p_a / x_ab) / margin_b, at most 1
                self.a = np.fmin(1.0, b[None, :] * (p[:, None] / x) / margin[None, :])

    def weight(self, a, b):
        return self.w[self.row[a], self.row[b]]

    def both_ways(self, a, b):
        return self.a[self.row[a], self.row[b]] + self.a[self.row[b], self.row[a]]

    def onto(self, a, b):
        return self.a[self.row[a], self.row[b]]


def _inputs(inst, links, thresholds):
    """(ids, beta, d_alpha): the solve's ids, and each one's threshold (its
    override, else its own) and d^alpha, by id."""
    ids = list(inst.link_ids if links is None else links)
    own = {link.id: link.threshold for link in inst.links}
    if isinstance(thresholds, np.ndarray):
        beta = dict(zip(ids, thresholds.tolist()))
    else:
        beta = {lid: float((thresholds or {}).get(lid, own[lid])) for lid in ids}
    d_alpha = dict(zip(inst.link_ids, inst.d_alpha.tolist()))
    return ids, beta, {lid: d_alpha[lid] for lid in ids}


def _walk_order(ids, beta, d_alpha):
    """Least sensitive first, ties by descending id."""
    return sorted(ids, key=lambda lid: (beta[lid] * d_alpha[lid], -lid))


def _walk(walk, admitted, budget, value):
    """(accepted, trace): a link outside ``admitted`` is rejected at an
    infinite load; another's load is the sum of value(a, c) over the links a
    accepted before it, in acceptance order."""
    accepted, trace = [], []
    for c in walk:
        if c not in admitted:
            trace.append((c, False, INF))
            continue
        load = 0.0
        for a in accepted:
            load += value(a, c)
        ok = bool(load <= budget)
        trace.append((c, ok, float(load)))
        if ok:
            accepted.append(c)
    return accepted, trace


def _fixed_walk(inst, ids, beta, d_alpha, powers, dense):
    """The fixed pass: (kept, trace) of the tentative walk under the budget
    1/2, with the freeze rule, and the filter on incoming affectance."""
    walk = _walk_order(ids, beta, d_alpha)
    gated = {lid for lid in walk
             if 0 < powers[lid] < INF
             and powers[lid] / d_alpha[lid] >= beta[lid] * inst.noise * (1 - FEAS_RTOL)}

    def load_of(c):
        load = 0.0
        for t in tentative:
            load += dense.both_ways(t, c)
        return load

    # after every 8th accept, each gated candidate not yet walked whose load
    # is above the budget keeps its load then, the first time it is found
    frozen, tentative, trace = {}, [], []
    for step, c in enumerate(walk):
        if c not in gated:
            trace.append((c, False, INF))
            continue
        load = frozen[c] if c in frozen else load_of(c)
        ok = bool(load <= 0.5)
        trace.append((c, ok, float(load)))
        if ok:
            tentative.append(c)
            if len(tentative) % FREEZE_EVERY == 0:
                for later in walk[step + 1:]:
                    if later in gated and later not in frozen:
                        partial = load_of(later)
                        if partial > 0.5:
                            frozen[later] = partial
    kept = []
    for t in tentative:
        incoming = 0.0
        for other in tentative:
            if other != t:
                incoming += dense.onto(other, t)
        if incoming < 1.0:
            kept.append(t)
    return kept, trace


def _recurrence(inst, order, beta, d_alpha, dense):
    """Powers of ``order``, most sensitive first: p = 2 beta d^alpha (N + the
    prior links' p / cross-distance^alpha, summed in assignment order)."""
    powers = {}
    for lid in order:
        interference = 0.0
        for prev in powers:
            interference += powers[prev] * dense.gain[dense.row[lid], dense.row[prev]]
        powers[lid] = 2.0 * beta[lid] * d_alpha[lid] * (inst.noise + float(interference))
    return powers


def _solution(inst, selected, powers, trace):
    selected = sorted(selected)
    sinr = evaluate_sinrs(inst, selected, powers) if selected else {}
    return selected, {lid: powers[lid] for lid in selected}, sinr, trace


def ref_unlimited(inst, links=None, thresholds=None):
    ids, beta, d_alpha = _inputs(inst, links, thresholds)
    dense = _Dense(inst, ids, beta)
    admitted = {lid for lid in ids if beta[lid] * d_alpha[lid] * inst.noise > 0}
    accepted, trace = _walk(_walk_order(ids, beta, d_alpha), admitted,
                            weight_budget(inst.alpha), dense.weight)
    powers = _recurrence(inst, accepted[::-1], beta, d_alpha, dense)
    return _solution(inst, accepted, powers, trace)


def ref_fixed(inst, powers, links=None, thresholds=None):
    ids, beta, d_alpha = _inputs(inst, links, thresholds)
    kept, trace = _fixed_walk(inst, ids, beta, d_alpha, powers,
                              _Dense(inst, ids, beta, powers))
    return _solution(inst, kept, powers, trace)


def ref_limited(inst, links=None, thresholds=None):
    if inst.p_max == INF:
        return ref_unlimited(inst, links, thresholds)
    ids, beta, d_alpha = _inputs(inst, links, thresholds)
    small = [lid for lid in ids if beta[lid] * inst.noise * d_alpha[lid] <= inst.p_max / 4.0]
    big = [lid for lid in ids if lid not in set(small)]
    first = ([], {}, [])
    if small:
        dense = _Dense(inst, small, beta)
        admitted = {lid for lid in small if beta[lid] * d_alpha[lid] * inst.noise > 0}
        accepted, trace1 = _walk(_walk_order(small, beta, d_alpha), admitted,
                                 weight_budget(inst.alpha), dense.weight)
        # most sensitive first; a load is the weight from c onto the kept links
        kept, trace2 = _walk(accepted[::-1], set(accepted), SECOND_PASS_BUDGET,
                             lambda k, c: dense.weight(c, k))
        first = (kept, _recurrence(inst, kept, beta, d_alpha, dense), trace1 + trace2)
    second = ([], {}, [])
    if big:
        full = dict.fromkeys(big, inst.p_max)
        kept, trace = _fixed_walk(inst, big, beta, d_alpha, full, _Dense(inst, big, beta, full))
        second = (kept, full, trace)
    won = first if small and len(first[0]) >= len(second[0]) else second
    return _solution(inst, won[0], won[1], first[2] + second[2])


def _assert_matches(sol, want):
    selected, powers, sinr, trace = want
    assert list(sol.selected) == selected
    assert sol.powers == powers
    assert sol.sinr == sinr
    assert list(sol.trace) == trace
    for row in sol.trace:
        assert type(row[0]) is int and type(row[1]) is bool and type(row[2]) is float
    # JSON text pins every float to its exact repr (and 0.0 apart from 0)
    assert json.dumps([list(row) for row in sol.trace]) == json.dumps([list(r) for r in trace])


# -- small instances with ties, gate failures and overrides -------------------

# receiver offsets with few distinct squared lengths (1, 2, 5, 25), so that
# equal thresholds tie sensitivities exactly
OFFSETS = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 4), (4, 3), (5, 0), (0, 5)]
LEVELS = [0.25, 1.0, 2.0, 4.0]


@st.composite
def _cases(draw):
    """An instance of 1 to 40 links on a spread integer grid, with distinct
    ids in random order, a subset of them or all, the links' own thresholds
    or a mapping or array of overrides, a cap (split between the limited
    solver's branches, below or above every sensitivity, or none) and fixed
    powers, some of which fail the solo gate. Noise 5e-324 underflows beta *
    d^alpha * N to 0 where beta * d^alpha is below 1/2, and the unlimited
    greedy walks those links as rejected rows."""
    n = draw(st.integers(1, 40))
    ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    # spread apart, many links fit, so that some fixed passes freeze
    spread = draw(st.sampled_from([1, 4, 16]))
    points, links = [], []
    for lid in ids:
        x, y = spread * draw(st.integers(0, 12)), spread * draw(st.integers(0, 12))
        dx, dy = draw(st.sampled_from(OFFSETS))
        points += [[x, y], [x + dx, y + dy]]
        links.append(Link(lid, len(points) - 2, len(points) - 1,
                          threshold=draw(st.sampled_from(LEVELS))))
    alpha = draw(st.sampled_from([2.0, 3.0, 4.0]))
    noise = draw(st.sampled_from([0.1, 1.0, 5e-324]))
    inst = Instance(MetricSpace.euclidean(points), alpha, noise, tuple(links),
                    allow_sub_unit_threshold=True)
    links = None
    if draw(st.booleans()):
        links = draw(st.permutations(ids))[:draw(st.integers(1, n))]
    chosen = list(inst.link_ids if links is None else links)
    kind = draw(st.sampled_from(["own", "mapping", "array"]))
    thresholds = None
    if kind == "mapping":
        thresholds = {lid: draw(st.sampled_from(LEVELS)) for lid in chosen if draw(st.booleans())}
    elif kind == "array":
        thresholds = np.array([draw(st.sampled_from(LEVELS)) for _ in chosen])
    _, beta, d_alpha = _inputs(inst, links, thresholds)
    sens = sorted(beta[lid] * noise * d_alpha[lid] for lid in chosen)
    cap = draw(st.sampled_from(["split", "below", "above", "none"]))
    if cap == "split" and len(set(sens)) > 1:
        q = draw(st.integers(0, len(sens) - 2))
        p_max = 2.0 * (sens[q] + sens[q + 1])
    else:
        p_max = {"below": sens[0] / 2, "above": 8.0 * sens[-1]}.get(cap, INF)
    if 0 < p_max < INF:
        inst = replace(inst, p_max=p_max)
    powers = {}
    for lid in chosen:
        level = beta[lid] * noise * d_alpha[lid]
        powers[lid] = draw(st.sampled_from([
            level, level * (1 - FEAS_RTOL / 2), 4.0 * level, 1e3 * level, 1e3 * level,
            1e3 * level, level / 2, 0.0, math.inf, math.nan, -1.0]))
    return inst, links, thresholds, powers


@given(_cases())
@settings(max_examples=300, deadline=None)
def test_solvers_match_the_reference_walk(case):
    inst, links, thresholds, powers = case
    _assert_matches(solve_unlimited(inst, links, thresholds),
                    ref_unlimited(inst, links, thresholds))
    _assert_matches(solve_limited(inst, links, thresholds), ref_limited(inst, links, thresholds))
    _assert_matches(solve_fixed(inst, links, powers, thresholds, warn_preconditions=False),
                    ref_fixed(inst, powers, links, thresholds))


def test_solvers_match_the_reference_walk_on_capacity_large():
    # capacity-large's first instance: thousands of rows, both limited
    # branches, and fixed passes long enough to freeze and compact
    inst = gen_random(GenConfig(n=2000, seed=1000, area=1000.0, d_range=(1.0, 100.0),
                                beta_range=(1.0, 10.0), p_max=20.0 * 30.0**2))
    uniform = dict.fromkeys(inst.link_ids, inst.p_max)
    _assert_matches(solve_unlimited(inst), ref_unlimited(inst))
    _assert_matches(solve_limited(inst), ref_limited(inst))
    _assert_matches(solve_fixed(inst, powers=uniform, warn_preconditions=False),
                    ref_fixed(inst, uniform))
