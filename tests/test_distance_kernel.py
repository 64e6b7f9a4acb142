"""Coordinate-major Euclidean distance kernel against the row-major reference.

``MetricSpace`` stores Euclidean points as one array per coordinate and sums
squared coordinate differences one coordinate at a time. The reference below
is the row-major arithmetic it replaced: gather ``(n, dim)`` rows, subtract,
square and ``np.add.reduce`` over the last axis. numpy adds fewer than 8
terms in order, so for dim 1-7 both give the same bits. From 8 terms on,
``add.reduce`` sums pairwise, and the two agree within a few ulp only.
``d^alpha`` is the squared distance raised to alpha / 2, not the distance
raised to alpha, so its references raise the squared sum.
"""

import json

import numpy as np
import pytest

from sinrsched import Instance, Link, MetricSpace, solve_unlimited
from sinrsched.model import geometry

ALPHA = 2.7


def _squared(points, i, j):
    """Row-major squared distances: the kernel's sum before the
    coordinate-major layout."""
    diff = points[np.asarray(i, dtype=np.intp)] - points[np.asarray(j, dtype=np.intp)]
    return np.add.reduce(diff * diff, axis=-1)


def _reference(points, i, j):
    """Row-major distances: the kernel before the coordinate-major layout."""
    return np.sqrt(_squared(points, i, j))


def _squared_in_order(points, i, j):
    """Row-major squared distances added one coordinate at a time, in
    coordinate order: the kernel's sum, bit for bit, at every dimension."""
    diff = points[i] - points[j]
    total = diff[..., 0] * diff[..., 0]
    for d in range(1, diff.shape[-1]):
        total = total + diff[..., d] * diff[..., d]
    return total


def _points(dim, n=60, seed=0):
    rng = np.random.default_rng(seed + dim)
    # coordinates over several orders of magnitude, so rounding differs per term
    return rng.uniform(-1e3, 1e3, size=(n, dim)) * rng.uniform(1e-3, 1.0, size=(n, 1))


def _index_shapes(n, seed=0):
    """(i, j) pairs: element-wise arrays, scalar x array both ways, column x
    row, and two scalars."""
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, size=80), rng.integers(0, n, size=80)
    return [
        (i, j),
        (int(i[0]), j),
        (i, int(j[0])),
        (i[:, None], j[None, :]),
        (int(i[1]), int(j[1])),
    ]


def _shared_endpoint_instance(points):
    """Links chained through shared nodes, so several cross distances are 0."""
    n = len(points)
    links = [Link(k, k, k + 1) for k in range(n - 1)]
    links += [Link(n - 1 + k, k + 2, k) for k in range(n - 2)]
    return Instance(MetricSpace.euclidean(points), ALPHA, 1.0, tuple(links))


@pytest.mark.parametrize("dim", range(1, 8))
def test_distances_bit_equal_to_row_major_reference(dim):
    pts = _points(dim)
    space = MetricSpace.euclidean(pts)
    for i, j in _index_shapes(len(pts)):
        got = space.distances(i, j)
        want = _reference(pts, i, j)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
    rows, cols = [3, 0, 59, 17, 17], [5, 8, 1, 17, 40, 2]
    assert np.array_equal(
        space.distances(np.array(rows)[:, None], np.array(cols)[None, :]),
        _reference(pts, np.array(rows)[:, None], np.array(cols)[None, :]),
    )


@pytest.mark.parametrize("dim", range(1, 8))
def test_instance_and_geometry_bit_equal_to_row_major_reference(dim):
    pts = _points(dim, n=12)
    inst = _shared_endpoint_instance(pts)
    senders = np.array([link.sender for link in inst.links])
    receivers = np.array([link.receiver for link in inst.links])
    # d^alpha is the squared distance raised to alpha / 2
    assert np.array_equal(inst.d_alpha, _squared(pts, receivers, senders) ** (ALPHA / 2))
    cross_alpha = geometry(inst).cross_alpha
    want = _squared(pts, receivers[:, None], senders[None, :]) ** (ALPHA / 2)
    assert np.array_equal(cross_alpha, want)
    assert np.count_nonzero(cross_alpha == 0) > 0


@pytest.mark.parametrize("dim", range(8, 13))
def test_distances_within_a_few_ulp_where_reduce_sums_pairwise(dim):
    pts = _points(dim)
    space = MetricSpace.euclidean(pts)
    for i, j in _index_shapes(len(pts)):
        got, want = np.atleast_1d(space.distances(i, j)), np.atleast_1d(_reference(pts, i, j))
        np.testing.assert_array_max_ulp(got, want, maxulp=4)
    inst = _shared_endpoint_instance(pts[:12])
    receivers = np.array([link.receiver for link in inst.links])
    senders = np.array([link.sender for link in inst.links])
    want = _reference(pts, receivers[:, None], senders[None, :]) ** ALPHA
    np.testing.assert_allclose(geometry(inst).cross_alpha, want, rtol=16 * ALPHA * 2.0**-52)


@pytest.mark.parametrize("dim", range(1, 13))
def test_distance_list_stays_the_norm_and_to_dict_the_points(dim):
    """``to_dict`` emits the points it was given. (``distance_list`` is gone;
    the name stays so that the test ids stay stable.)"""
    pts = _points(dim)
    space = MetricSpace.euclidean(pts)
    data = space.to_dict()
    assert data == {"type": "euclidean", "dim": dim, "points": pts.tolist()}
    text = json.dumps(data)
    assert json.dumps(MetricSpace.from_dict(json.loads(text)).to_dict()) == text


def _assert_lengths_are_kernel_bits(inst, d_alpha):
    lengths = inst.metric.distances(inst.receivers, inst.senders)
    assert [inst.length(lid) for lid in inst.link_ids] == lengths.tolist()
    assert np.array_equal(inst.d_alpha, d_alpha)
    for link in inst.links:
        assert inst.metric.distance(link.sender, link.receiver) == inst.length(link.id)


@pytest.mark.parametrize("dim", range(1, 13))
def test_length_and_d_alpha_are_the_kernel_bits(dim):
    pts = _points(dim, n=30)
    inst = _shared_endpoint_instance(pts)
    squared = _squared_in_order(pts, inst.receivers, inst.senders)
    _assert_lengths_are_kernel_bits(inst, squared ** (ALPHA / 2))


def test_length_and_d_alpha_are_the_matrix_entries():
    pts = _points(3, n=20)
    matrix = _reference(pts, np.arange(20)[:, None], np.arange(20)[None, :])
    inst = Instance(MetricSpace.from_matrix(matrix), ALPHA, 1.0, _shared_endpoint_instance(pts).links)
    # a matrix space raises its entries, the lengths, to alpha
    _assert_lengths_are_kernel_bits(inst, matrix[inst.receivers, inst.senders] ** ALPHA)
    for link in inst.links:
        assert inst.length(link.id) == matrix[link.receiver, link.sender]


def _cached_pair_matrices(inst):
    """The instance's two pair matrices: the solvers', as a solve builds it
    (every link at threshold 1, so that links without a threshold take
    part), and the checkers', as ``geometry`` builds it. Each is read-only
    and ``geometry`` over every link returns the checkers' bytes."""
    assert "_cross_alpha" not in vars(inst) and "_geometry_alpha" not in vars(inst)
    solve_unlimited(inst, thresholds=dict.fromkeys(inst.link_ids, 1.0))
    assert "_geometry_alpha" not in vars(inst)
    sliced = geometry(inst).cross_alpha
    matrices = vars(inst)["_cross_alpha"], vars(inst)["_geometry_alpha"]
    assert matrices[0] is not matrices[1]
    assert sliced.tobytes() == matrices[1].tobytes()
    for cross in matrices:
        assert not cross.flags.writeable
        with pytest.raises(ValueError):
            cross[0, 0] = 1.0
    return matrices


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cached_pair_matrix_bit_equal_to_row_major_reference(dim, alpha):
    pts = _points(dim, n=12)
    inst = _shared_endpoint_instance(pts)
    inst = Instance(inst.metric, alpha, inst.noise, inst.links)
    want = _squared(pts, inst.receivers[:, None], inst.senders[None, :]) ** (alpha / 2)
    for cross in _cached_pair_matrices(inst):
        assert cross.shape == (len(inst.links),) * 2
        assert cross.tobytes() == want.tobytes()
        assert np.count_nonzero(cross == 0) > 0


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_cached_pair_matrix_raises_the_matrix_entries(alpha):
    pts = _points(2, n=20)
    matrix = _reference(pts, np.arange(20)[:, None], np.arange(20)[None, :])
    links = _shared_endpoint_instance(pts).links
    inst = Instance(MetricSpace.from_matrix(matrix), alpha, 1.0, links)
    want = matrix[inst.receivers[:, None], inst.senders[None, :]] ** alpha
    for cross in _cached_pair_matrices(inst):
        assert cross.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", range(1, 13))
def test_between_raises_the_squared_distance(dim):
    # alpha = 1 is np.sqrt of the squared sum, on arrays and on scalars alike
    # (a numpy scalar's ** 0.5 rounds otherwise now and then), alpha = 2 the
    # sum itself and alpha = 4 its square
    pts = _points(dim)
    space = MetricSpace.euclidean(pts)
    for i, j in _index_shapes(len(pts)):
        a, b = space.gather(i), space.gather(j)
        squared = _squared_in_order(pts, i, j)
        for alpha, want in ((1.0, np.sqrt(squared)), (2.0, squared)):
            got = space.between(a, b, alpha)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
        assert np.array_equal(space.between(a, b), np.sqrt(squared))
        if np.ndim(squared):  # a scalar's ** 2.0 is C's pow, not a product
            assert np.array_equal(space.between(a, b, 4.0), squared * squared)
