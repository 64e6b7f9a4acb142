"""Streaming capacity greedies against a dense reference, and their memory bound.

The reference below is the dense formulation: full weight and affectance
matrices over every candidate, and each load summed over the accepted links
in acceptance order. The streaming solvers must reproduce it exactly:
selected sets, powers, SINRs and trace rows, bit for bit.
"""

import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sinrsched import (
    INF,
    GenConfig,
    Instance,
    Link,
    MetricSpace,
    gen_line,
    gen_random,
    solve_fixed,
    solve_latency,
    solve_limited,
    solve_unlimited,
)
from sinrsched import capacity
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
        # the solvers keep the trace of a pass that selects nothing
        return Solution((), {}, {}, 0.0, algorithm, trace)
    selected = tuple(sorted(selected))
    return Solution(selected, {lid: powers[lid] for lid in selected},
                    evaluate_sinrs(instance, selected, powers), float(len(selected)),
                    algorithm, trace)


def _rows(geo):
    """Link id -> row of the geometry's arrays."""
    return {lid: k for k, lid in enumerate(geo.ids)}


def _ref_power_recurrence(instance, geo, beta, order, accepted):
    member = set(accepted)
    row = _rows(geo)
    powers, assigned = {}, []
    for lid in order:
        if lid not in member:
            continue
        k = row[lid]
        with np.errstate(divide="ignore"):
            gain = 1.0 / geo.cross_alpha[k]
        interference = 0.0
        for prev in assigned:
            interference += powers[prev] * gain[row[prev]]
        powers[lid] = float(2.0 * beta[k] * geo.d_alpha[k] * (instance.noise + interference))
        assigned.append(lid)
    return powers


def _ref_greedy_unlimited(instance, ids, thresholds):
    order = sensitivity_order(instance, ids, thresholds)
    geo = geometry(instance, ids)
    beta = thresholds_for(instance, ids, thresholds)
    w = _weight_matrix(geo, beta, {lid: pos for pos, lid in enumerate(order)})
    row = _rows(geo)
    accepted, trace = [], []
    for cand in reversed(order):
        c = row[cand]
        incoming = float(sum(w[row[a], c] for a in accepted))
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
    row = _rows(geo)
    tentative, trace = [], []
    for cand in reversed(order):
        c = row[cand]
        if not (0 < p[c] < INF
                and p[c] / geo.d_alpha[c] >= beta[c] * instance.noise * (1 - FEAS_RTOL)):
            trace.append((cand, False, INF))
            continue
        load = float(sum(a[row[t], c] + a[c, row[t]] for t in tentative))
        ok = load <= 0.5
        trace.append((cand, ok, load))
        if ok:
            tentative.append(cand)
    final = [lid for lid in tentative if sum(a[row[t], row[lid]] for t in tentative) < 1.0]
    return _ref_finish(instance, final, {lid: powers[lid] for lid in final}, "fixed", tuple(trace))


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
        row = _rows(geo)
        kept, trace2 = [], []
        for cand in order:
            if cand not in first:
                continue
            c = row[cand]
            outgoing = float(sum(w[c, row[k]] for k in kept))
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
                    sol1.trace + sol2.trace)


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


def test_streaming_matches_dense_powers_failing_the_gate():
    # links given NaN, -inf or negative powers fail the solo gate, and their
    # trace rows keep the reference's infinite load
    inst = gen_random(GenConfig(n=40, seed=12, area=200.0, d_range=(1.0, 30.0), p_max=P_MAX))
    given = [np.nan, -np.inf, -1.0, 1e6]
    _check_all(inst, powers={lid: given[k % 4] for k, lid in enumerate(inst.link_ids)})


def test_streaming_matches_dense_zero_power_that_passes_the_gate():
    # noise 5e-324 times threshold 0.1 underflows to 0, so link 1's zero
    # power reaches beta * N, but the gate also asks for a positive power:
    # link 1 is only a trace row, and its sender on link 0's receiver adds
    # nothing to any load
    inst = gen_line([(0, 1, 0.1), (1, 11, 0.1), (100, 101, 0.1)],
                    noise=5e-324, allow_sub_unit=True)
    powers = {0: 1.0, 1: 0.0, 2: 1.0}
    sol = solve_fixed(inst, powers=powers, warn_preconditions=False)
    _assert_identical(sol, ref_fixed(inst, list(inst.link_ids), powers))
    assert sol.trace[-1] == (1, False, INF)
    assert sol.selected == (0, 2)


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
    assert np.array_equal(space.distances(np.array(rows)[:, None], np.array(cols)[None, :]), dense)
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

    monkeypatch.setattr(MetricSpace, "between", spy(MetricSpace.between, np.shape))

    uniform = {lid: inst.p_max for lid in inst.link_ids}
    for solve in (solve_unlimited, solve_limited,
                  lambda i: solve_fixed(i, powers=uniform, warn_preconditions=False)):
        shapes.clear()
        sol = solve(inst)
        selected = len(sol.selected)
        assert 0 < selected < len(inst.links) // 4
        matrices = [s for s in shapes if len(s) >= 2]
        assert matrices, "the solver evaluated no SINRs"
        assert max(max(s) for s in matrices) <= selected


def test_only_sets_within_the_dense_limit_measure_every_pair(monkeypatch):
    m = capacity._DENSE
    inst = gen_random(GenConfig(n=m + 1, seed=3, area=400.0 * ((m + 1) / 50) ** 0.5,
                                d_range=(1.0, 60.0)))
    ids = list(inst.link_ids)
    shapes = []
    original_between = MetricSpace.between

    def between(self, a, b, alpha=1.0):
        out = original_between(self, a, b, alpha)
        shapes.append(np.shape(out))
        return out

    monkeypatch.setattr(MetricSpace, "between", between)
    # m links: one m x m matrix, from which every kernel and the SINRs read
    solve_unlimited(inst, ids[:m])
    assert shapes == [(m, m)]
    # m + 1 links stream: rows, and the k x k matrix over the k accepted
    shapes.clear()
    selected = len(solve_unlimited(inst, ids).selected)
    matrices = [s for s in shapes if len(s) >= 2]
    assert matrices and 0 < selected < m
    assert max(max(s) for s in matrices) <= selected


def _measured_shapes(monkeypatch):
    """The shapes of every array ``MetricSpace.between`` returns from now on."""
    shapes = []
    original_between = MetricSpace.between

    def between(self, a, b, alpha=1.0):
        out = original_between(self, a, b, alpha)
        shapes.append(np.shape(out))
        return out

    monkeypatch.setattr(MetricSpace, "between", between)
    return shapes


def test_a_small_instance_measures_its_pairs_once(monkeypatch):
    # latency-medium's recipe: every level solve of every slot slices one
    # 64 x 64 matrix, measured on first use and kept by the instance
    n = 64
    inst = gen_random(GenConfig(
        n=n, seed=2, area=1000.0, d_range=(1.0, 60.0), beta_range=(1.0, 2.0),
        demand_range=(0.5, 3.0),
        utility={"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0},
    ))
    assert n <= capacity._DENSE
    shapes = _measured_shapes(monkeypatch)
    first = solve_latency(inst)
    assert shapes == [(n, n)]
    shapes.clear()
    assert solve_latency(inst).to_dict(include_trace=True) == first.to_dict(include_trace=True)
    assert shapes == []
    # the checkers' geometry measures one matrix of its own on first use,
    # not the solvers' object, and slices it from then on
    geometry(inst, inst.link_ids[:5])
    assert shapes == [(n, n)]
    assert vars(inst)["_geometry_alpha"] is not vars(inst)["_cross_alpha"]
    shapes.clear()
    assert geometry(inst).cross_alpha.shape == (n, n)
    geometry(inst, inst.link_ids[7:2:-1])
    assert shapes == []


def test_an_instance_above_the_dense_limit_caches_no_matrix():
    m = capacity._DENSE
    inst = gen_random(GenConfig(n=m + 1, seed=3, area=400.0 * ((m + 1) / 50) ** 0.5,
                                d_range=(1.0, 60.0), p_max=P_MAX))
    ids = list(inst.link_ids)
    uniform = dict.fromkeys(ids, inst.p_max)
    for links in (ids, ids[:m], ids[:10]):
        assert solve_unlimited(inst, links).selected
        assert solve_limited(inst, links).selected
        assert solve_fixed(inst, links, powers=uniform, warn_preconditions=False).selected
        assert geometry(inst, links).cross_alpha.shape == (len(links),) * 2
    assert "_cross_alpha" not in vars(inst) and "_geometry_alpha" not in vars(inst)


def test_fixed_pass_measures_only_links_that_pass_the_solo_gate(monkeypatch):
    # capacity-large's recipe: solve_fixed and solve_limited's full-power
    # branch walk every candidate, but no distance array they measure spans
    # more links per axis than pass the solo gate
    inst = gen_random(GenConfig(n=2000, seed=100_000, area=1000.0, d_range=(1.0, 100.0),
                                beta_range=(1.0, 10.0), p_max=P_MAX))
    original_between = MetricSpace.between
    original_pass = capacity._fixed_pass
    passes = []  # per fixed pass: links walked, links passing the gate
    shapes = []  # per fixed pass: the shapes of the distance arrays it measured
    in_pass = False

    def between(self, a, b, alpha=1.0):
        out = original_between(self, a, b, alpha)
        if in_pass:
            shapes[-1].append(np.shape(out))
        return out

    def fixed_pass(instance, ids, pos, beta, p, own):
        nonlocal in_pass
        gate = p / instance.d_alpha[pos] >= beta * instance.noise * (1 - FEAS_RTOL)
        passes.append((len(ids), int(gate.sum())))
        shapes.append([])
        in_pass = True
        try:
            return original_pass(instance, ids, pos, beta, p, own)
        finally:
            in_pass = False

    monkeypatch.setattr(MetricSpace, "between", between)
    monkeypatch.setattr(capacity, "_fixed_pass", fixed_pass)
    uniform = {lid: inst.p_max for lid in inst.link_ids}
    assert solve_fixed(inst, powers=uniform, warn_preconditions=False).selected
    solve_limited(inst)
    assert len(passes) == 2
    for (walked, passing), measured in zip(passes, shapes):
        assert 0 < passing < walked and measured
        assert max(max(shape) for shape in measured) <= passing


def test_second_pass_weights_come_in_blocks_of_256_columns(monkeypatch):
    # the n = 10^4 capacity recipe: the limited solver's first pass accepts
    # k1 > 256 links, and the second pass over them must hold no array over
    # those links larger than k1 x 256
    n = 10_000
    inst = gen_random(GenConfig(n=n, seed=0, area=1000.0 * (n / 300) ** 0.5, p_max=P_MAX))
    original_between = MetricSpace.between
    original_first_pass = capacity._greedy_unlimited
    first_pass, shapes = [], []
    in_second_pass = False

    def between(self, a, b, alpha=1.0):
        out = original_between(self, a, b, alpha)
        if in_second_pass:
            shapes.append(out.shape)
        return out

    def greedy_unlimited(*args):
        nonlocal in_second_pass
        out = original_first_pass(*args)
        first_pass.append(len(out[0]))
        in_second_pass = True
        return out

    def ends_second_pass(original):
        def call(*args):
            nonlocal in_second_pass
            in_second_pass = False
            return original(*args)
        return call

    monkeypatch.setattr(MetricSpace, "between", between)
    monkeypatch.setattr(capacity, "_greedy_unlimited", greedy_unlimited)
    # the full-power branch's pass, if any, then the one finish follow the
    # second pass
    for name in ("_fixed_pass", "_finish"):
        monkeypatch.setattr(capacity, name, ends_second_pass(getattr(capacity, name)))
    sol = solve_limited(inst)
    (k1,) = first_pass
    assert k1 > 256 and sol.selected
    # two distance blocks per column block: onto its links, and back
    blocks = [(k1 - start, min(256, k1 - start)) for start in range(0, k1, 256)]
    assert shapes == [shape for shape in blocks for _ in range(2)]
    assert max(rows * cols for rows, cols in shapes) == k1 * 256



@pytest.mark.parametrize("split", ["both sides", "small only", "big only"])
def test_limited_solver_finishes_one_branch(monkeypatch, split):
    # a cap whose quarter falls between two sensitivities, above all of them
    # or below all of them: _finish runs once per solve, on the returned branch
    inst = gen_random(GenConfig(n=60, seed=11, area=300.0, d_range=(1.0, 60.0),
                                beta_range=(1.0, 10.0)))
    sens = np.sort(thresholds_for(inst, list(inst.link_ids)) * inst.noise * inst.d_alpha)
    p_max = {"both sides": 2.0 * float(sens[29] + sens[30]),
             "small only": 8.0 * float(sens[-1]), "big only": float(sens[0])}[split]
    inst = replace(inst, p_max=p_max)
    small = sens <= p_max / 4.0
    assert [small.any(), small.all()] == {"both sides": [True, False], "small only": [True, True],
                                          "big only": [False, False]}[split]
    original_finish = capacity._finish
    finished = []

    def finish(*args):
        finished.append(args[2])
        return original_finish(*args)

    monkeypatch.setattr(capacity, "_finish", finish)
    sol = solve_limited(inst)
    assert [sorted(kept) for kept in finished] == [list(sol.selected)] and sol.selected
    _assert_identical(sol, ref_limited(inst))

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


# -- randomized differential check of the limited and fixed solvers ----------

@st.composite
def _threshold_instances(draw):
    """Small instances with alpha from 1 to 4, a Euclidean or a matrix
    metric, the links' own thresholds or a mapping or array of overrides,
    and (mostly) a cap that splits the links between both branches of the
    limited solver. Short links are spread over a wide grid, and some reuse
    another link's node or coordinates, so that endpoints coincide."""
    pts = []

    def node():
        # an existing node, a new node at an existing node's coordinates, or a
        # new node on the grid
        how = draw(st.sampled_from(["new"] * 4 + ["reuse", "copy"])) if pts else "new"
        if how == "reuse":
            return draw(st.integers(0, len(pts) - 1))
        pts.append(pts[draw(st.integers(0, len(pts) - 1))] if how == "copy"
                   else draw(st.tuples(st.integers(0, 60), st.integers(0, 60))))
        return len(pts) - 1

    pairs = []
    for _ in range(draw(st.integers(1, 12))):
        s = node()
        if draw(st.booleans()):
            r = node()
        else:
            x, y = pts[s]
            pts.append((x + draw(st.integers(-3, 3)), y + draw(st.integers(-3, 3))))
            r = len(pts) - 1
        if pts[s] != pts[r]:
            pairs.append((s, r))
    assume(pairs)
    alpha = draw(st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0]))
    links = tuple(Link(k, s, r, threshold=draw(st.floats(1.0, 8.0)))
                  for k, (s, r) in enumerate(pairs))
    metric = MetricSpace.euclidean([list(p) for p in pts])
    if draw(st.booleans()):
        d = metric.distances(np.arange(len(pts))[:, None], np.arange(len(pts))[None, :])
        metric = MetricSpace.from_matrix(d, validate=False)
    noise = draw(st.sampled_from([0.1, 1.0]))
    inst = Instance(metric, alpha, noise, links)
    ids = list(inst.link_ids)
    kind = draw(st.sampled_from(["own", "mapping", "array"]))
    beta = thresholds_for(inst, ids)
    if kind != "own":
        beta = np.array([draw(st.floats(1.0, 8.0)) for _ in ids])
    mapping = None if kind == "own" else dict(zip(ids, beta.tolist()))
    sens = np.sort(beta * noise * inst.d_alpha)
    cap = draw(st.sampled_from(["split", "split", "split", "below", "above", "inf"]))
    if cap == "split":
        # a quarter of the cap falls between two sensitivities, well clear of
        # both: the reference recomputes d^alpha with Python's pow, which may
        # differ from the instance's numpy power in the last bit
        assume(len(ids) > 1)
        q = draw(st.integers(0, len(ids) - 2))
        assume(sens[q + 1] > sens[q] * (1 + 1e-6))
        p_max = 2.0 * float(sens[q] + sens[q + 1])
    else:
        p_max = {"below": float(sens[0]), "above": 8.0 * float(sens[-1]), "inf": INF}[cap]
    inst = replace(inst, p_max=p_max)
    thresholds = beta if kind == "array" else mapping
    levels = [0.0, 0.5, 1.0, 4.0, 1e3]
    powers = {lid: float(s) * draw(st.sampled_from(levels)) for lid, s in
              zip(ids, beta * noise * inst.d_alpha)}
    return inst, thresholds, mapping, powers, cap


@given(_threshold_instances(), st.sampled_from([1, 2, 3, 256]))
@settings(max_examples=300, deadline=None)
def test_limited_and_fixed_match_dense_on_random_instances(case, block):
    inst, thresholds, mapping, powers, cap = case
    # the dense references slice thresholds by id, so they take the mapping
    # form of an array of overrides; both forms give the same floats. Small
    # blocks split the limited solver's second pass into several.
    want = ref_limited(inst, mapping)
    with mock.patch.object(capacity, "_BLOCK", block):
        _assert_identical(solve_limited(inst, thresholds=thresholds), want)
    if cap == "split":
        ids = list(inst.link_ids)
        small = thresholds_for(inst, ids, mapping) * inst.noise * inst.d_alpha <= inst.p_max / 4.0
        assert small.any() and not small.all()
    _assert_identical(
        solve_fixed(inst, powers=powers, thresholds=thresholds, warn_preconditions=False),
        ref_fixed(inst, list(inst.link_ids), powers, mapping),
    )


# -- the squared-distance kernel against the length raised to alpha ---------

_between = MetricSpace.between


def _sqrt_then_power(self, a, b, alpha=1.0):
    """d^alpha as every caller computed it before ``between`` took alpha:
    the length, raised to alpha."""
    return _between(self, a, b) ** alpha


def _assert_same_decisions(got, want):
    """Same selection and accepted flags; powers and SINRs within 1e-12."""
    assert got.selected == want.selected
    assert [row[:2] for row in got.trace] == [row[:2] for row in want.trace]
    for lid in want.selected:
        assert math.isclose(got.powers[lid], want.powers[lid], rel_tol=1e-12)
        assert math.isclose(got.sinr[lid], want.sinr[lid], rel_tol=1e-12)


@given(_threshold_instances())
@settings(max_examples=300, deadline=None)
def test_squared_distance_kernel_moves_no_decision(case):
    inst, thresholds, _, powers, _ = case
    solves = (
        lambda i: solve_unlimited(i, thresholds=thresholds),
        lambda i: solve_limited(i, thresholds=thresholds),
        lambda i: solve_fixed(i, powers=powers, thresholds=thresholds, warn_preconditions=False),
    )
    with mock.patch.object(MetricSpace, "between", _sqrt_then_power):
        old = replace(inst)  # d_alpha measured again, with the old kernel
    # two sensitivities that the squared kernel ties exactly may round apart
    # under the old one, and then the greedies walk them in another order
    # (see the known answer below)
    assume(sensitivity_order(inst, thresholds=thresholds)
           == sensitivity_order(old, thresholds=thresholds))
    with mock.patch.object(MetricSpace, "between", _sqrt_then_power):
        want = [solve(old) for solve in solves]
    for solve, sol in zip(solves, want):
        _assert_same_decisions(solve(inst), sol)


def test_squared_distance_kernel_ties_sensitivities_the_old_kernel_rounds_apart():
    # at alpha = 4, link 1's squared length 2 squares to exactly 4.0, and the
    # old kernel's sqrt(2) ** 4 to 4.000000000000001; link 0's sensitivity is
    # 4 * 1.0. The tie breaks by ascending id, the rounded pair by size
    metric = MetricSpace.euclidean([[0, 0], [1, 0], [50, 50], [51, 51]])
    inst = Instance(metric, 4.0, 1.0, (Link(0, 0, 1, threshold=4.0), Link(1, 2, 3, threshold=1.0)))
    with mock.patch.object(MetricSpace, "between", _sqrt_then_power):
        old = replace(inst)
    assert inst.d_alpha.tolist() == [1.0, 4.0]
    assert old.d_alpha.tolist() == [1.0, 4.000000000000001]
    assert sensitivity_order(inst) == [0, 1]
    assert sensitivity_order(old) == [1, 0]
    # the greedy walks from the least sensitive link
    assert [row[:2] for row in solve_unlimited(inst).trace] == [(1, True), (0, True)]
