"""Utility families and their two oracle queries."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinrsched import (
    CappedUtility,
    ShannonUtility,
    StepUtility,
    UnboundedObjective,
    UtilityContractError,
    inverse_threshold,
    utility_from_dict,
    utility_to_dict,
)
from sinrsched import flexible
from sinrsched.flexible import _level_gammas
from sinrsched.generate import GenConfig, gen_random
from sinrsched.latency import solve_latency
from sinrsched.utility import RoundedUtility, UtilityTable, split_cap

STEP = StepUtility(((1.0, 0.5), (4.0, 2.0)))


def test_max_utility_top_step():
    assert STEP.max_value(10.0) == 2.0


def test_max_utility_middle_read():
    assert STEP.max_value(2.0) == 0.5


def test_max_utility_shannon_closed_form():
    assert ShannonUtility(1.0, 1.0).max_value(3.0) == pytest.approx(2.0)


def test_max_utility_unbounded_error():
    with pytest.raises(UnboundedObjective, match="unbounded"):
        ShannonUtility(1.0, 1.0).max_value(math.inf)
    # bounded families take an infinite cap in stride
    assert STEP.max_value(math.inf) == 2.0


def test_inverse_threshold_first_step_reaching_target():
    assert inverse_threshold(STEP, 1.0) == 4.0


def test_inverse_threshold_shannon():
    # log2(1 + 3) = 2
    assert inverse_threshold(ShannonUtility(1.0, 1.0), 2.0) == pytest.approx(3.0)


def test_inverse_threshold_unreachable():
    assert inverse_threshold(StepUtility(((1.0, 0.5),)), 0.6) is None


def test_inverse_threshold_rejects_utility_positive_below_one():
    class BelowOne:
        def min_gamma_for(self, target):
            return 0.5

    with pytest.raises(UtilityContractError, match="below SINR 1"):
        inverse_threshold(BelowOne(), 1.0)


def test_inverse_threshold_rejects_nonpositive_target():
    with pytest.raises(ValueError):
        inverse_threshold(STEP, 0.0)
    with pytest.raises(ValueError):
        inverse_threshold(STEP, -1.0)


def test_shannon_inverse_clamps_to_cutoff():
    u = ShannonUtility(1.0, cutoff=7.0)
    # any target below the cutoff value resolves to the cutoff itself
    assert inverse_threshold(u, 1.0) == 7.0
    assert u.value(6.9) == 0.0
    assert u.value(7.0) == pytest.approx(3.0)


def test_zero_below_one():
    assert STEP.value(0.999) == 0.0
    assert ShannonUtility(2.0).value(0.5) == 0.0


def test_step_validation():
    with pytest.raises(ValueError, match=">= 1"):
        StepUtility(((0.5, 1.0),))
    with pytest.raises(ValueError, match="increasing"):
        StepUtility(((2.0, 1.0), (2.0, 2.0)))
    with pytest.raises(ValueError, match="nondecreasing"):
        StepUtility(((1.0, 2.0), (3.0, 1.0)))
    with pytest.raises(ValueError, match="steps"):
        StepUtility(tuple((1.0 + k, float(k)) for k in range(10_001)))
    for bad in (((math.nan, 1.0),), ((1.0, math.inf),), ((1.0, 0.5), (2.0, math.nan))):
        with pytest.raises(ValueError, match="finite"):
            StepUtility(bad)


def test_shannon_validation():
    for scale, cutoff in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            ShannonUtility(scale, cutoff)


def test_shannon_inverse_beyond_every_finite_sinr():
    # 2^(target / scale) overflows from target / scale = 1024 on
    u = ShannonUtility(1.0)
    assert inverse_threshold(u, 1023.0) == 2.0**1023 - 1.0
    assert inverse_threshold(u, 1024.0) is None
    assert inverse_threshold(ShannonUtility(0.5), 2000.0) is None


@st.composite
def step_utilities(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    gammas = sorted(draw(st.lists(
        st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
        min_size=n, max_size=n, unique=True,
    )))
    values = sorted(draw(st.lists(
        st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
        min_size=n, max_size=n,
    )))
    return StepUtility(tuple(zip(gammas, values)))


@given(u=step_utilities(), frac=st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_step_inverse_round_trip(u, frac):
    top = u.max_value(math.inf)
    target = frac * top
    gamma = inverse_threshold(u, target)
    assert gamma is not None and gamma >= 1.0
    assert u.value(gamma) >= target
    # just below the returned gamma the target is not reached
    below = math.nextafter(gamma, 0.0)
    assert u.value(below) < target


@given(
    scale=st.floats(min_value=0.1, max_value=10.0),
    target=st.floats(min_value=0.01, max_value=50.0),
)
@settings(max_examples=300, deadline=None)
def test_shannon_inverse_round_trip(scale, target):
    u = ShannonUtility(scale, 1.0)
    gamma = inverse_threshold(u, target)
    assert gamma >= 1.0
    assert u.value(gamma) >= target * (1 - 1e-9)
    if gamma > 1.0:
        assert u.value(gamma * (1 - 1e-6)) < target


@given(u=step_utilities(), a=st.floats(0.01, 1.0), b=st.floats(0.01, 1.0))
@settings(max_examples=200, deadline=None)
def test_inverse_monotone_in_target(u, a, b):
    top = u.max_value(math.inf)
    lo, hi = sorted((a * top, b * top))
    g_lo, g_hi = inverse_threshold(u, lo), inverse_threshold(u, hi)
    assert g_lo <= g_hi


shannon_utilities = st.builds(
    ShannonUtility, scale=st.floats(1e-3, 10.0), cutoff=st.floats(1.0, 8.0)
)
bases = st.one_of(step_utilities(), shannon_utilities)
cores = st.one_of(
    bases,
    st.builds(RoundedUtility, bases, demand=st.floats(0.05, 20.0), denom=st.integers(1, 200)),
)
utilities = st.one_of(
    cores, st.builds(CappedUtility, cores, cap=st.floats(0.0, 6.0)),
    st.builds(CappedUtility, st.builds(CappedUtility, cores, cap=st.floats(0.0, 6.0)),
              cap=st.floats(0.0, 6.0)),
)


def _edge_targets(u):
    """Targets where a query changes its answer: step values, caps, rounding
    steps, and the Shannon overflow at target / scale = 1024."""
    out = []
    while isinstance(u, CappedUtility):
        out.append(u.cap)
        u = u.base
    if isinstance(u, RoundedUtility):
        steps = [k / u.denom for k in (1, u.denom // 2, u.denom)]
        out += steps + [math.nextafter(t, d) for t in steps for d in (0.0, math.inf)]
        out += [k * u.demand / u.denom for k in (1, u.denom)]
        u = u.base
    if isinstance(u, StepUtility):
        out += [v for _, v in u.steps]
    else:
        edge = 1024 * u.scale
        out += [edge, math.nextafter(edge, 0.0), 2 * edge]
    return [t for t in out if t > 0]


def _assert_rows_match(gamma, targets, us):
    assert gamma.shape == (len(targets), len(us))
    for t, row in zip(targets, gamma.tolist()):
        for u, got in zip(us, row):
            want = inverse_threshold(u, t)
            assert (math.isnan(got) if want is None else got == want), (u, t, want, got)


@given(
    us=st.lists(utilities, max_size=7),
    extra=st.lists(st.floats(1e-6, 1e4), max_size=3),
    caps=st.lists(st.floats(0.0, 6.0), min_size=7, max_size=7),
    at_edge=st.lists(st.none() | st.integers(0, 99), min_size=7, max_size=7),
    out=st.lists(st.booleans(), min_size=7, max_size=7),
)
@example(
    us=[STEP, ShannonUtility(0.5), RoundedUtility(STEP, 1.0, 4),
        RoundedUtility(ShannonUtility(1.0), 2.0, 6), CappedUtility(STEP, 0.7)],
    extra=[], caps=[0.0] * 7, at_edge=[0, None, 0, 1, 3, None, None],
    out=[True, False, False, True, False, True, False],
)
@settings(max_examples=300, deadline=None)
def test_table_search_equals_scalar_inverse(us, extra, caps, at_edge, out):
    # the table holds the cores; the sweep's masked search applies the caps
    # (the smallest of a row's nested ones) and gives the scalar answers of
    # the capped utilities themselves
    targets = extra + [t for u in us for t in _edge_targets(u)] + [1e300]
    split = [split_cap(u) for u in us]
    table = UtilityTable([core for _, core in split])
    cap = np.array([c for c, _ in split])
    _assert_rows_match(_level_gammas(table, cap, np.array(targets)[:, None]), targets, us)
    # further caps, among them caps equal to targets and to a row's step
    # values, give CappedUtility's answers; a cap of -inf leaves its row out
    # of every target, as one of 0 does
    edges = [_edge_targets(u) for u in us]
    caps = [c if k is None or not e else e[k % len(e)] for c, k, e in zip(caps, at_edge, edges)]
    capped = [CappedUtility(u, 0.0 if o else c) for u, c, o in zip(us, caps, out)]
    targets = targets + [c for c in caps if c > 0]
    cap = np.minimum(cap, [-math.inf if o else c for c, o in zip(caps, out)])
    _assert_rows_match(_level_gammas(table, cap, np.array(targets)[:, None]), targets, capped)
    # a cap of -inf leaves every row out: an empty level
    assert np.isnan(_level_gammas(table, np.full(len(us), -math.inf), np.ones((1, 1)))).all()


def test_latency_sweeps_search_two_table_objects(monkeypatch):
    # the sweep's cap vector is the one holder of its caps, so every sweep of
    # a scheme searches the scheme's one table of uncapped cores; the spy
    # holds the tables themselves, so no id is reused by a collected copy
    inst = gen_random(GenConfig(
        n=64, seed=0, area=1000.0, d_range=(1.0, 60.0), beta_range=(1.0, 2.0),
        demand_range=(0.5, 3.0),
        utility={"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0},
    ))
    searched = []

    def spy(u, target):
        searched.append(u)
        return inverse_threshold(u, target)

    monkeypatch.setattr(flexible, "inverse_threshold", spy)
    schedule = solve_latency(inst)
    sweeps = sum(len(run.slots) + run.stalled for run in schedule.runs.values())
    assert len(searched) == sweeps > 2
    assert all(isinstance(table, UtilityTable) for table in searched)
    assert len({id(table) for table in searched}) == 2


def test_table_search_edges():
    shannon = ShannonUtility(0.5)
    table = UtilityTable([STEP, shannon])
    targets = [0.5, 2.0, 512.0]
    got = inverse_threshold(table, np.array(targets)[:, None])
    assert got.tolist()[0] == [1.0, inverse_threshold(shannon, 0.5)]
    assert got.tolist()[1][0] == 4.0
    assert math.isnan(got[2, 1])  # 512 / 0.5 = 1024: beyond every finite SINR
    assert inverse_threshold(UtilityTable([]), np.ones((3, 1))).shape == (3, 0)
    with pytest.raises(ValueError, match="> 0"):
        inverse_threshold(table, np.array([1.0, 0.0])[:, None])
    with pytest.raises(TypeError, match="no array form"):
        UtilityTable([object()])
    # a cap is the sweep's to hold: a table takes uncapped utilities only
    with pytest.raises(TypeError, match="no array form"):
        UtilityTable([CappedUtility(STEP, 0.5)])


def test_capped_utility():
    capped = CappedUtility(STEP, 0.7)
    assert capped.value(10.0) == 0.7
    assert capped.value(2.0) == 0.5
    assert capped.max_value(math.inf) == 0.7
    assert inverse_threshold(capped, 0.5) == 1.0
    assert inverse_threshold(capped, 0.8) is None


def test_capped_utility_rejects_nan_cap():
    # a NaN cap made value() NaN while the inverse treated it as no cap
    with pytest.raises(ValueError, match="NaN"):
        CappedUtility(STEP, float("nan"))
    with pytest.raises(ValueError, match=">= 0"):
        CappedUtility(STEP, -0.5)


def test_utility_json_round_trip():
    for u in (STEP, ShannonUtility(1.5, 2.0)):
        assert utility_from_dict(utility_to_dict(u)) == u
    with pytest.raises(ValueError, match="unknown utility"):
        utility_from_dict({"type": "mystery"})
