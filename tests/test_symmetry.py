"""Exact symmetries of the three capacity solvers.

Each relation maps an instance to another on which every solve must agree
with the original bit for bit, with no reference answer needed:

* coordinates scaled by 2^j, with the cap and fixed powers scaled by
  2^(j * alpha): every d^alpha scales by that exact power of two, so every
  weight, affectance, load and SINR stays the same float and every power
  scales exactly;
* the first two axes swapped, or one axis reflected: each squared distance
  adds the same two squares, or the same squares;
* the link list permuted: the walk follows sensitivity and id, not list order;
* ids relabelled in an order-preserving way: ties still break alike.

Selections, trace rows (loads included) and SINRs must be identical, and
powers equal the original's times the scale.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrsched import GenConfig, Instance, Link, MetricSpace, gen_random
from sinrsched import capacity, solve_fixed, solve_limited, solve_unlimited


def _points(inst):
    return np.array(inst.metric.to_dict()["points"], dtype=np.float64)


def _rebuilt(inst, points=None, links=None, p_max=None):
    return Instance(MetricSpace.euclidean(_points(inst) if points is None else points),
                    inst.alpha, inst.noise, inst.links if links is None else links,
                    p_max=inst.p_max if p_max is None else p_max)


def _related(inst, powers, relation, j=1, seed=0):
    """The image of ``inst`` and of the fixed powers (id -> p) under
    ``relation``, the factor every power scales by and the id map."""
    scale, rename = 1.0, (lambda lid: lid)
    if relation == "scale":
        scale = 2.0 ** (j * inst.alpha)
        image = _rebuilt(inst, _points(inst) * 2.0**j, p_max=inst.p_max * scale)
    elif relation == "swap":
        image = _rebuilt(inst, _points(inst)[:, [1, 0, *range(2, inst.metric.dim)]])
    elif relation == "reflect":
        points = _points(inst)
        points[:, -1] = -points[:, -1]
        image = _rebuilt(inst, points)
    elif relation == "permute":
        order = np.random.default_rng(seed).permutation(len(inst.links))
        image = _rebuilt(inst, links=[inst.links[k] for k in order.tolist()])
    else:  # relabel
        def rename(lid):
            return 3 * lid + 7

        image = _rebuilt(inst, links=[Link(rename(link.id), link.sender, link.receiver,
                                           threshold=link.threshold) for link in inst.links])
    return image, {rename(lid): p * scale for lid, p in powers.items()}, scale, rename


def _solves(inst, powers):
    return [solve_unlimited(inst), solve_limited(inst),
            solve_fixed(inst, powers=powers, warn_preconditions=False)]


def _assert_related(got, want, scale, rename):
    assert got.selected == tuple(map(rename, want.selected))
    assert got.trace == tuple((rename(lid), ok, load) for lid, ok, load in want.trace)
    assert got.sinr == {rename(lid): v for lid, v in want.sinr.items()}
    assert got.powers == {rename(lid): p * scale for lid, p in want.powers.items()}


def _check(inst, powers, relation, j=1, seed=0):
    image, image_powers, scale, rename = _related(inst, powers, relation, j, seed)
    for got, want in zip(_solves(image, image_powers), _solves(inst, powers)):
        _assert_related(got, want, scale, rename)


@st.composite
def _cases(draw):
    dim = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from([2.0, 3.0, 4.0]))
    inst = gen_random(GenConfig(
        n=draw(st.integers(1, 40)), seed=draw(st.integers(0, 10**6)), dim=dim, alpha=alpha,
        area=draw(st.sampled_from([60.0, 300.0])), d_range=(1.0, 40.0),
        beta_range=(1.0, 10.0), p_max=20.0 * 30.0**alpha))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # powers from a quarter of the cap to the cap: some links miss the solo gate
    scale = rng.uniform(0.25, 1.0, len(inst.links))
    powers = dict(zip(inst.link_ids, (inst.p_max * scale).tolist()))
    relations = ["scale", "reflect", "permute", "relabel"] + (["swap"] if dim > 1 else [])
    return inst, powers, draw(st.sampled_from(relations)), draw(st.sampled_from([-1, 1, 2]))


@given(case=_cases())
@settings(max_examples=150, deadline=None)
def test_capacity_solvers_are_exactly_symmetric(case):
    inst, powers, relation, j = case
    _check(inst, powers, relation, j=j, seed=len(inst.links))


@pytest.mark.parametrize("relation", ["scale", "swap", "reflect", "permute", "relabel"])
def test_symmetries_hold_where_the_fixed_pass_compacts(monkeypatch, relation):
    # capacity-large's instance at workload seed 1: the fixed pass and the
    # limited solver's full-power branch both compact their candidates
    inst = gen_random(GenConfig(n=2000, seed=1000, area=1000.0, d_range=(1.0, 100.0),
                                beta_range=(1.0, 10.0), alpha=2.0, p_max=20.0 * 30.0**2))
    powers = dict.fromkeys(inst.link_ids, inst.p_max)
    compactions = []
    subset = capacity._Candidates.subset

    def counted(self, at):
        compactions.append(len(at))
        return subset(self, at)

    monkeypatch.setattr(capacity._Candidates, "subset", counted)
    image, image_powers, scale, rename = _related(inst, powers, relation, seed=3)
    for solve in (lambda i, p: solve_limited(i),
                  lambda i, p: solve_fixed(i, powers=p, warn_preconditions=False)):
        compactions.clear()
        want = solve(inst, powers)
        assert compactions
        _assert_related(solve(image, image_powers), want, scale, rename)
