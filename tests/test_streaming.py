"""Streaming capacity greedies against a dense reference, and their memory bound.

The reference below is the dense formulation: full weight and affectance
matrices over every candidate, and each load summed over the accepted links
in acceptance order. The streaming solvers must reproduce it exactly:
selected sets, powers, SINRs and trace rows, bit for bit.
"""

import json
import tracemalloc

import numpy as np
import pytest

from sinrsched import (
    INF,
    GenConfig,
    Instance,
    Link,
    MetricSpace,
    gen_line,
    gen_random,
    solve_fixed,
    solve_limited,
    solve_unlimited,
)
from sinrsched import capacity, model
from sinrsched.capacity import SECOND_PASS_BUDGET, weight_budget
from sinrsched.model import (
    FEAS_RTOL,
    Solution,
    empty_solution,
    evaluate_sinrs,
    geometry,
    sensitivity_order,
    thresholds_for,
)

P_MAX = 20.0 * 30.0**2


# -- dense reference ---------------------------------------------------------

def _weight_matrix(geo, beta, rank):
    """W[a, b] = directed weight from link a onto link b."""
    sens = beta * geo.d_alpha
    x = geo.cross_alpha.T  # x[a, b] = d(sender_a, receiver_b)^alpha
    with np.errstate(divide="ignore", over="ignore"):
        pair = (sens[:, None] * sens[None, :]) / (x * x.T)
        toward = sens[:, None] / x
        away = sens[:, None] / x.T
        w = np.minimum(1.0, pair + toward + away)
    ranks = np.array([rank[lid] for lid in geo.ids])
    w[ranks[:, None] <= ranks[None, :]] = 0.0
    np.fill_diagonal(w, 0.0)
    return w


def _affectance_matrix(geo, beta, p, noise):
    """A[a, b] = affectance of link a on link b; diagonal zero."""
    margin = p / geo.d_alpha - beta * noise
    with np.errstate(divide="ignore", invalid="ignore"):
        received = p[None, :] / geo.cross_alpha
    received = np.where(p[None, :] == 0, 0.0, received)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = beta[:, None] * received / margin[:, None]
    a = np.where(margin[:, None] > 0, a, np.where(received > 0, INF, 0.0))
    a = np.minimum(1.0, a).T
    bad = margin <= 0
    if np.any(bad):
        a[:, bad] = 1.0
    np.fill_diagonal(a, 0.0)
    return a


def _ref_finish(instance, selected, powers, algorithm, trace):
    if not selected:
        return empty_solution(algorithm)
    selected = tuple(sorted(selected))
    return Solution(selected, {lid: powers[lid] for lid in selected},
                    evaluate_sinrs(instance, selected, powers), float(len(selected)),
                    algorithm, trace)


def _ref_power_recurrence(instance, geo, beta, order, accepted):
    member = set(accepted)
    powers, assigned = {}, []
    for lid in order:
        if lid not in member:
            continue
        k = geo.index[lid]
        interference = 0.0
        for prev in assigned:
            interference += powers[prev] * geo.gain[k, geo.index[prev]]
        powers[lid] = float(2.0 * beta[k] * geo.d_alpha[k] * (instance.noise + interference))
        assigned.append(lid)
    return powers


def _ref_greedy_unlimited(instance, ids, thresholds):
    order = sensitivity_order(instance, ids, thresholds)
    geo = geometry(instance, ids)
    beta = thresholds_for(instance, ids, thresholds)
    w = _weight_matrix(geo, beta, {lid: pos for pos, lid in enumerate(order)})
    accepted, trace = [], []
    for cand in reversed(order):
        c = geo.index[cand]
        incoming = float(sum(w[geo.index[a], c] for a in accepted))
        ok = incoming <= weight_budget(instance.alpha)
        trace.append((cand, ok, incoming))
        if ok:
            accepted.append(cand)
    return accepted, tuple(trace), order, geo, beta, w


def ref_unlimited(instance, thresholds=None):
    accepted, trace, order, geo, beta, _ = _ref_greedy_unlimited(
        instance, list(instance.link_ids), thresholds)
    powers = _ref_power_recurrence(instance, geo, beta, order, accepted)
    return _ref_finish(instance, accepted, powers, "unlimited", trace)


def ref_fixed(instance, ids, powers, thresholds=None):
    order = sensitivity_order(instance, ids, thresholds)
    geo = geometry(instance, ids)
    beta = thresholds_for(instance, ids, thresholds)
    p = np.array([powers[lid] for lid in geo.ids], dtype=np.float64)
    a = _affectance_matrix(geo, beta, p, instance.noise)
    tentative, trace = [], []
    for cand in reversed(order):
        c = geo.index[cand]
        if not p[c] / geo.d_alpha[c] >= beta[c] * instance.noise * (1 - FEAS_RTOL):
            trace.append((cand, False, INF))
            continue
        load = float(sum(a[geo.index[t], c] + a[c, geo.index[t]] for t in tentative))
        ok = load <= 0.5
        trace.append((cand, ok, load))
        if ok:
            tentative.append(cand)
    final = [lid for lid in tentative
             if sum(a[geo.index[t], geo.index[lid]] for t in tentative) < 1.0]
    return _ref_finish(instance, final, {lid: powers[lid] for lid in final}, "fixed", trace)


def ref_limited(instance, thresholds=None):
    if instance.p_max == INF:
        sol = ref_unlimited(instance, thresholds)
        return Solution(sol.selected, sol.powers, sol.sinr, sol.objective, "limited", sol.trace)
    ids = list(instance.link_ids)
    beta = thresholds_for(instance, ids, thresholds)
    r1 = [lid for k, lid in enumerate(ids)
          if float(beta[k]) * instance.noise * instance.length(lid) ** instance.alpha
          <= instance.p_max / 4.0]
    r2 = [lid for lid in ids if lid not in r1]
    sol1 = empty_solution("limited")
    if r1:
        first, trace1, order, geo, beta1, w = _ref_greedy_unlimited(instance, r1, thresholds)
        kept, trace2 = [], []
        for cand in order:
            if cand not in first:
                continue
            c = geo.index[cand]
            outgoing = float(sum(w[c, geo.index[k]] for k in kept))
            ok = outgoing <= SECOND_PASS_BUDGET
            trace2.append((cand, ok, outgoing))
            if ok:
                kept.append(cand)
        powers = _ref_power_recurrence(instance, geo, beta1, order, kept)
        sol1 = _ref_finish(instance, kept, powers, "limited", trace1 + tuple(trace2))
    sol2 = (ref_fixed(instance, r2, {lid: instance.p_max for lid in r2}, thresholds)
            if r2 else empty_solution("fixed"))
    chosen = sol1 if len(sol1.selected) >= len(sol2.selected) else sol2
    return Solution(chosen.selected, chosen.powers, chosen.sinr, chosen.objective, "limited",
                    chosen.trace)


# -- differential checks -----------------------------------------------------

def _assert_identical(got, want):
    assert got.selected == want.selected
    assert got.powers == want.powers
    assert got.sinr == want.sinr
    assert got.trace == want.trace
    for row in got.trace:
        assert type(row[0]) is int and type(row[1]) is bool and type(row[2]) is float
    # JSON text pins every float to its exact repr (and 0.0 apart from 0)
    assert json.dumps(got.to_dict(include_trace=True)) == json.dumps(want.to_dict(include_trace=True))


def _check_all(inst, thresholds=None, powers=None):
    if powers is None:
        powers = {lid: inst.p_max if inst.p_max != INF else 1e6 for lid in inst.link_ids}
    _assert_identical(solve_unlimited(inst, thresholds=thresholds), ref_unlimited(inst, thresholds))
    _assert_identical(solve_limited(inst, thresholds=thresholds), ref_limited(inst, thresholds))
    _assert_identical(
        solve_fixed(inst, powers=powers, thresholds=thresholds, warn_preconditions=False),
        ref_fixed(inst, list(inst.link_ids), powers, thresholds),
    )


@pytest.mark.parametrize("n, seed", [(50, 1), (50, 2), (500, 3)])
def test_streaming_matches_dense_euclidean(n, seed):
    inst = gen_random(GenConfig(n=n, seed=seed, area=400.0, d_range=(1.0, 60.0), p_max=P_MAX))
    _check_all(inst)


@pytest.mark.parametrize("alpha, dim", [(2.5, 2), (3.0, 3), (4.0, 1)])
def test_streaming_matches_dense_other_alpha_and_dim(alpha, dim):
    inst = gen_random(GenConfig(n=80, seed=7, alpha=alpha, dim=dim, area=200.0,
                                d_range=(1.0, 40.0), p_max=1e9))
    _check_all(inst)


def test_streaming_matches_dense_unlimited_cap():
    inst = gen_random(GenConfig(n=60, seed=9, area=300.0, d_range=(1.0, 50.0)))
    _check_all(inst)


def test_streaming_matches_dense_matrix_metric():
    pts = np.random.default_rng(4).uniform(0.0, 100.0, size=(80, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    links = tuple(Link(k, 2 * k, 2 * k + 1, threshold=1.0 + k % 4) for k in range(40))
    inst = Instance(MetricSpace.from_matrix(d, validate=False), 2.0, 1.0, links, p_max=1e6)
    _check_all(inst)


def test_streaming_matches_dense_threshold_overrides():
    inst = gen_random(GenConfig(n=120, seed=5, area=300.0, d_range=(1.0, 50.0), p_max=P_MAX))
    thresholds = {lid: 1.0 + (lid % 5) * 0.75 for lid in inst.link_ids[::2]}
    _check_all(inst, thresholds=thresholds)


def test_streaming_matches_dense_degenerate_powers():
    # silent senders, targets whose margin is zero or negative, and the rest
    inst = gen_random(GenConfig(n=120, seed=6, area=300.0, d_range=(1.0, 50.0), p_max=P_MAX))
    rng = np.random.default_rng(6)
    powers = {}
    for lid in inst.link_ids:
        floor = inst.link(lid).threshold * inst.noise * inst.length(lid) ** inst.alpha
        powers[lid] = float(rng.choice([0.0, floor, floor * (1 - 1e-10), floor * 0.5, 1e5, 1e7]))
    assert any(p == 0.0 for p in powers.values())
    _check_all(inst, powers=powers)


def test_streaming_matches_dense_shared_endpoints():
    # sender of one link sits on the receiver of another: zero cross distance
    inst = gen_line(
        [(0, 1, 1), (1, 2, 1.5), (2, 3, 2), (10, 11, 1), (11, 10.5, 1), (30, 31, 3)],
        alpha=2, noise=0.1, p_max=50.0,
    )
    _check_all(inst, powers={lid: 5.0 for lid in inst.link_ids})
    pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 5.0], [6.0, 5.0], [0.0, 0.0]]
    links = (Link(0, 0, 1, threshold=1.0), Link(1, 2, 3, threshold=1.0),
             Link(2, 4, 5, threshold=2.0), Link(3, 6, 3, threshold=1.5))
    inst = Instance(MetricSpace.euclidean(pts), 2.0, 0.1, links, p_max=1e3)
    _check_all(inst, powers={0: 1.0, 1: 1.0, 2: 0.0, 3: 3.0})


def test_distances_match_dense_norm():
    pts = np.random.default_rng(8).normal(size=(40, 3)) * 50
    space = MetricSpace.euclidean(pts)
    rows, cols = list(range(0, 40, 3)), list(range(1, 40, 2))
    dense = np.linalg.norm(pts[rows][:, None, :] - pts[cols][None, :, :], axis=2)
    assert np.array_equal(space.pair_distances(rows, cols), dense)
    assert np.array_equal(space.distances(rows[2], cols), dense[2])
    assert np.array_equal(space.distances(rows, cols[:len(rows)]), np.diag(dense[:, :len(rows)]))


# -- memory bound ------------------------------------------------------------

def test_solvers_build_no_array_larger_than_accepted(monkeypatch):
    inst = gen_random(GenConfig(n=2000, seed=100_000, area=1000.0, d_range=(1.0, 100.0),
                                beta_range=(1.0, 10.0), p_max=P_MAX))
    shapes = []

    def spy(fn, shape_of):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            shapes.append(shape_of(out))
            return out
        return wrapped

    monkeypatch.setattr(capacity, "geometry", spy(model.geometry, lambda g: (g.n, g.n)))
    monkeypatch.setattr(model, "geometry", spy(model.geometry, lambda g: (g.n, g.n)))
    for name in ("pair_distances", "distances"):
        monkeypatch.setattr(MetricSpace, name, spy(getattr(MetricSpace, name), np.shape))

    uniform = {lid: inst.p_max for lid in inst.link_ids}
    for solve in (solve_unlimited, solve_limited,
                  lambda i: solve_fixed(i, powers=uniform, warn_preconditions=False)):
        shapes.clear()
        sol = solve(inst)
        accepted = sum(1 for row in sol.trace if row[1])
        assert 0 < accepted < len(inst.links) // 4
        matrices = [s for s in shapes if len(s) >= 2]
        assert matrices, "the solver evaluated no SINRs"
        assert max(max(s) for s in matrices) <= accepted


def test_validate_metric_at_400_points_in_quadratic_memory():
    pts = np.random.default_rng(2).uniform(0.0, 100.0, size=(400, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    tracemalloc.start()
    try:
        MetricSpace.from_matrix(d)
        bad = d.copy()
        bad[17, 230] = bad[230, 17] = 1e4
        with pytest.raises(ValueError, match=r"triangle inequality violated at pair \(17, 230\)"):
            MetricSpace.from_matrix(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an n^3 temporary would be 512 MB; n^2 arrays are 1.28 MB each
    assert peak < 32 * 2**20
