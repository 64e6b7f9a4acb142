"""Core data model: metric spaces, links, instances, SINR evaluation.

This module reads and writes the whole instance file: ``Instance.from_dict``
and ``to_dict``, with each link's utility through ``utility_from_dict`` and
``utility_to_dict``. The link entries have one reader, ``_json_columns``,
which reads each field as one column and finds the first faulty entry and
field from the columns. Its JSON field checkers (``_require``, ``_number``,
``_integer``) are the ones every reader in the package uses.

Everything here is immutable after construction and safe to share between
concurrent workers; all operations are pure functions of their inputs. (An
instance of at most ``_DENSE`` links keeps two pair matrices, the solvers'
and the checkers', and every instance its links' sensitivity order and its
``links`` tuple, each computed on its first use. Two workers may both
compute one; they get the same bits, or equal tuples of equal Links, so it
does not matter whose is kept.)
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, fields
from functools import cached_property, reduce
from itertools import chain, repeat
from operator import add, attrgetter
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .utility import ShannonUtility, StepUtility, UtilitySpec

INF = math.inf

# Relative tolerance for every SINR-vs-threshold comparison in the package:
# a link is considered feasible when gamma >= beta * (1 - FEAS_RTOL).
FEAS_RTOL = 1e-9

# Relative tolerance for power-cap comparisons.
CAP_RTOL = 1e-12

# Absolute tolerance below which a latency residual counts as met, and by
# which delivered utility may fall short of a demand.
RESIDUAL_TOL = 1e-9

# An instance of at most this many links measures every pair of its links
# once and keeps the matrix (at most 128 KB), one for the capacity solvers'
# candidate sets (``Instance._cross_alpha``) and one for ``geometry``
# (``Instance._geometry_alpha``). A capacity candidate set of at most this
# many links reads every pair from one matrix (see ``capacity._Candidates``):
# a level solve over a few dozen candidates then reads one matrix, not 2k + 1
# distance rows. Timed against streaming, the unlimited greedy is faster or
# even up to 128 links and ~1.9x slower at 192, where the rows of its few
# accepted links cost less than every pair.
_DENSE = 128

# largest distance matrix ``MetricSpace.from_matrix`` validates: its
# triangle check is O(n^3) time (0.29 s at 500 points, 2.4 s at 1,000 and
# 25 s at 2,000 on a 2-CPU machine), so a larger matrix is refused before
# it starts
METRIC_VALIDATE_LIMIT = 2048

# Threshold overrides: a mapping id -> beta, or an array aligned with the
# link ids it comes with (see ``thresholds_for``).
Thresholds = Union[Mapping[int, float], np.ndarray]


def float_sum(values) -> float:
    """Sum of floats, added left to right from 0.0: the bytes Python 3.11's
    ``sum`` gives, on every Python (3.12 compensates its float ``sum``)."""
    return float(reduce(add, values, 0.0))


class MetricSpace:
    """Finite metric space: Euclidean point set or explicit distance matrix.

    Euclidean spaces store their points coordinate-major, as one contiguous
    array per coordinate (shape ``(dim, n)``), and compute L2 distances on
    demand. ``between`` adds up ``(x_d[i] - x_d[j])^2`` one coordinate at a
    time, in coordinate order; for dim <= 7 that is bit for bit the sum
    numpy's ``add.reduce`` gives over the last axis of a row-major ``(n,
    dim)`` difference, and within a few ulp above that, where ``add.reduce``
    sums pairwise. It raises that squared distance to ``alpha / 2``: the
    distance is ``np.sqrt`` of it, ``d^2`` the sum itself, and no ``d^alpha``
    pays a square root. It is the package's only distance arithmetic:
    ``distance``, ``distances`` and every length and ``d^alpha`` go through
    it, on nodes that ``gather`` has looked up.

    Matrix spaces store the full symmetric matrix, whose entries ``between``
    raises to ``alpha``, and validate metric axioms (incl. the triangle
    inequality, O(n^3) time and O(n^2) memory) at load time, refusing a
    matrix over ``METRIC_VALIDATE_LIMIT`` points with a ValueError; only
    ``from_matrix(..., validate=False)`` skips the check.
    ``distances`` costs O(size of its result) in both kinds, so a row of
    distances from one node is O(n); ``between`` on gathered nodes saves the
    lookup of each node's coordinates.

    The stored array is read-only, also in a copy, which pickle, ``copy``
    and ``deepcopy`` build through the constructor. Two spaces are equal
    when they are of the same kind and dimension and store the same bytes.
    """

    __slots__ = ("_coords", "_matrix", "dim")

    def __init__(self, coords: Optional[np.ndarray], matrix: Optional[np.ndarray], dim: int):
        # a space stores one of the two, read-only
        (coords if matrix is None else matrix).flags.writeable = False
        self._coords = coords
        self._matrix = matrix
        self.dim = dim

    def __reduce__(self):
        return type(self), (self._coords, self._matrix, self.dim)

    def _key(self) -> tuple:
        # dim is 0 in a matrix space only; the bytes' length gives the size
        return self.dim, (self._coords if self._matrix is None else self._matrix).tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, MetricSpace) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @classmethod
    def euclidean(cls, points: Sequence[Sequence[float]], dim: Optional[int] = None) -> "MetricSpace":
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.size == 0:
            pts = pts.reshape(0, dim or 1)
        if dim is not None and pts.shape[1] != dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, declared {dim}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        return cls(np.ascontiguousarray(pts.T), None, pts.shape[1])

    @classmethod
    def from_matrix(cls, d: Sequence[Sequence[float]], validate: bool = True) -> "MetricSpace":
        mat = np.asarray(d, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("distance matrix must be square")
        if validate:
            _validate_metric(mat)
        return cls(None, mat.copy(), 0)

    @property
    def n_points(self) -> int:
        if self._coords is not None:
            return self._coords.shape[1]
        return self._matrix.shape[0]

    def _check_nodes(self, i: np.ndarray, j: np.ndarray) -> None:
        """Raise IndexError naming the first pair (i[k], j[k]) with a node
        outside the space; ``distances`` would wrap a negative index."""
        n = self.n_points
        outside = (i < 0) | (i >= n) | (j < 0) | (j >= n)
        if outside.any():
            k = int(np.argmax(outside))
            raise IndexError(f"node index out of range: ({i[k]}, {j[k]}) with {n} nodes")

    def distance(self, i: int, j: int) -> float:
        self._check_nodes(np.array([i]), np.array([j]))
        return float(self.distances(i, j))

    def distances(self, i, j) -> np.ndarray:
        """Element-wise distances d(i[k], j[k]) for node index arrays (or
        scalars) ``i`` and ``j`` that broadcast together."""
        return self.between(self.gather(i), self.gather(j))

    def gather(self, nodes) -> np.ndarray:
        """The given nodes (an index array or scalar) in the form ``between``
        takes: their coordinates, coordinate-major (shape ``(dim,) +
        nodes.shape``, a contiguous array, where ``[:, nodes]`` would give
        strided coordinate rows), in a Euclidean space, and the indices
        themselves in a matrix space. Either way, entry ``[..., k]`` stands
        for ``nodes[k]``, so a caller that measures from the same nodes many
        times gathers them once."""
        nodes = np.asarray(nodes, dtype=np.intp)
        return nodes if self._matrix is not None else np.take(self._coords, nodes, axis=1)

    def between(self, a, b, alpha=1.0) -> np.ndarray:
        """Element-wise distances between gathered nodes ``a`` and ``b`` (see
        ``gather``) that broadcast together, raised to ``alpha``."""
        if self._matrix is not None:
            return self._matrix[a, b] ** alpha
        # a[d] - b[d] is a fresh array, so squaring and adding in place is safe
        total = a[0] - b[0]
        total *= total
        for d in range(1, self.dim):
            diff = a[d] - b[d]
            diff *= diff
            total += diff
        # d^alpha is the squared distance raised to alpha / 2. np.sqrt, also
        # on a scalar, whose ** 0.5 may round otherwise
        if alpha == 1:
            return np.sqrt(total)
        return total if alpha == 2 else total ** (alpha / 2)

    def to_dict(self) -> dict:
        if self._coords is not None:
            return {"type": "euclidean", "dim": self.dim, "points": self._coords.T.tolist()}
        return {"type": "matrix", "d": self._matrix.tolist()}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricSpace":
        kind = data.get("type")
        if kind not in ("euclidean", "matrix"):
            raise ValueError(f"unknown metric type: {kind!r}")
        key = "points" if kind == "euclidean" else "d"
        _require(data.get(key), list, "a list", f"metric.{key}")
        if kind == "euclidean":
            dim = _integer(data.get("dim"), "metric.dim")
            if dim < 1:
                raise ValueError(f"metric.dim must be >= 1, not {dim}")
            return cls.euclidean(_json_points(data["points"], dim), dim=dim)
        try:
            return cls.from_matrix(data["d"])
        except TypeError as exc:  # a non-numeric entry
            raise ValueError(f"metric.{key}: {exc}") from None


def _validate_metric(mat: np.ndarray) -> None:
    n = mat.shape[0]
    if n > METRIC_VALIDATE_LIMIT:
        raise ValueError(f"distance matrix has {n} points; its O(n^3) metric check takes at "
                         f"most {METRIC_VALIDATE_LIMIT}")
    if np.any(mat < 0) or not np.all(np.isfinite(mat)):
        raise ValueError("distances must be finite and nonnegative")
    if np.any(np.diag(mat) != 0):
        raise ValueError("d(i, i) must be 0")
    if not np.array_equal(mat, mat.T):
        raise ValueError("distance matrix must be symmetric")
    if n >= 3:
        # min over k of d[i,k] + d[k,j] must not undercut d[i,j]; one k at a
        # time keeps the memory at O(n^2)
        via = mat[:, 0, None] + mat[None, 0, :]
        for k in range(1, n):
            np.minimum(via, mat[:, k, None] + mat[None, k, :], out=via)
        slack = 1e-12 * max(1.0, float(mat.max()))
        if np.any(via < mat - slack):
            i, j = np.unravel_index(np.argmin(via - mat), mat.shape)
            raise ValueError(f"triangle inequality violated at pair ({i}, {j})")


@dataclass(frozen=True)
class Link:
    """Directed sender/receiver pair with optional per-problem attributes.

    threshold   minimum SINR for a successful transmission (>= 1 unless the
                instance explicitly allows sub-unit thresholds)
    utility     maps achieved SINR to data-rate value (flexible-rate problems)
    demand      total utility to accumulate across schedule slots
    fixed_power transmit power for fixed-power problems
    """

    id: int
    sender: int
    receiver: int
    threshold: Optional[float] = None
    utility: Optional[UtilitySpec] = None
    demand: Optional[float] = None
    fixed_power: Optional[float] = None

    def __post_init__(self):
        lid = self.id
        if self.sender == self.receiver:
            raise ValueError(f"link {lid}: sender and receiver coincide")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ValueError(f"link {lid}: threshold must be finite")
        if self.demand is not None and not (0 <= self.demand < INF):
            raise ValueError(f"link {lid}: demand must be finite and >= 0")
        if self.fixed_power is not None and not (0 <= self.fixed_power < INF):
            raise ValueError(f"link {lid}: fixed power must be finite and >= 0")


class _LinksOnRead:
    """``Instance.links``: built from the instance's columns on the first
    read and kept in its ``__dict__``, which later reads find first (this is
    a non-data descriptor). A ``__getattr__`` hook would do the same, but it
    takes every attribute read of the class off the interpreter's
    specialized path: each costs several times as much, by an amount that
    changes from one process to the next."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        links = tuple(map(Link, *instance._columns()[5:]))
        instance.__dict__["links"] = links
        return links


@dataclass(frozen=True, init=False)
class Instance:
    """A scheduling world: metric space, physical constants and links.

    An instance keeps its links as columns, one entry per link in the order
    of ``links``: ``link_ids``, the tuple of link ids; the read-only arrays

    senders, receivers  node indices
    thresholds          link thresholds, NaN where a link has none; a link's
                        sensitivity threshold * d_alpha must be finite too

    and each link's utility, demand and fixed power (``_utilities``,
    ``_demands`` and ``_powers``, tuples holding the Links' own values, None
    where a link has none). ``positions`` maps link ids to rows of these and
    of the one per-link array computed at construction:

    d_alpha             length^alpha from ``MetricSpace.between``; every
                        sensitivity, weight, affectance, power and SINR in
                        the package reads it, so it must be finite and positive

    ``links``, and so ``link``, is built from the columns on first read and
    then kept. ``from_dict`` and the generators hand in columns, so a loaded
    or generated instance builds no Link until one is read, and no reader in
    the package reads one. ``Instance(links=...)`` reads the columns off the
    given Links once and keeps them as ``links``. Both ways in end in
    ``_setup``, which runs every check: each link's own, as ``Link`` runs
    them (``_check_links``), then the instance's.

    An instance of at most ``_DENSE`` = 128 links keeps two copies of the
    pair matrix ``cross[i, j] = d(sender_j, receiver_i)^alpha`` over all its
    links (at most 128 KB each), each measured with its own
    ``MetricSpace.between`` call on first access and kept read-only.
    ``_cross_alpha`` serves the capacity solvers, which slice every candidate
    set's matrix out of it. ``_geometry_alpha`` serves ``geometry``, and so
    ``evaluate_sinrs``, the oracles and the lemma checks, which certify the
    solvers' outputs: with a copy of their own, a fault in the solvers'
    matrix shows as a rejected solution instead of being checked against the
    same floats.

    Every instance also keeps, on first use, what ``sensitivity_order``
    needs under the links' own thresholds (``_by_sensitivity``): the rows by
    decreasing ``thresholds * d_alpha`` with ties by ascending id (one
    ``lexsort``; a link without a threshold sorts last), each row's rank in
    that order, both read-only arrays of n entries, and whether every link
    has a finite positive threshold, so that a request needs no check; and
    the ids in that order, a tuple (``_ids_by_sensitivity``).

    None of the columns and cached arrays is a field: ``==``, ``hash``,
    ``repr`` and ``dataclasses.replace`` read ``links`` instead, and so build
    it. Pickle, ``copy`` and ``deepcopy`` build a copy from the columns
    through ``_setup``, so its arrays are read-only too, it builds its own
    Links on first read, and it leaves the lazily cached arrays out,
    computing its own when it needs one.
    """

    metric: MetricSpace
    alpha: float
    noise: float
    links: tuple[Link, ...] = _LinksOnRead()
    p_max: float = INF
    allow_sub_unit_threshold: bool = False

    def __init__(self, metric, alpha, noise, links, p_max=INF, allow_sub_unit_threshold=False):
        links = tuple(links)
        object.__setattr__(self, "links", links)
        # one tuple per Link field, in the order _setup takes them
        columns = tuple(zip(*map(attrgetter(*(f.name for f in fields(Link))), links)))
        self._setup(metric, alpha, noise, p_max, allow_sub_unit_threshold, *(columns or [()] * 7))

    @classmethod
    def _from_columns(cls, metric, alpha, noise, p_max, allow_sub_unit_threshold, ids, senders,
                      receivers, betas, utilities, demands, powers) -> "Instance":
        """Instance from per-link columns (see ``_setup``), whose Links are
        built on the first read of ``links``."""
        self = object.__new__(cls)
        self._setup(metric, alpha, noise, p_max, allow_sub_unit_threshold, ids, senders,
                    receivers, betas, utilities, demands, powers)
        return self

    def _setup(self, metric, alpha, noise, p_max, sub_unit, ids, senders, receivers, betas,
               utilities, demands, powers) -> None:
        """Check and store the fields other than ``links`` and the columns:
        ``ids``, ``senders`` and ``receivers`` sequences of ints, ``betas`` a
        list or tuple of thresholds or None, and ``utilities``, ``demands``
        and ``powers`` tuples of the Links' values. The first link whose own
        fields ``Link`` refuses raises what ``Link`` raises, before any fault
        of the instance's (``_check_links``)."""
        nodes = np.array((senders, receivers), dtype=np.intp)
        nodes.flags.writeable = False
        senders, receivers = nodes[0], nodes[1]  # read-only views
        thresholds = _check_links(ids, senders, receivers, betas, utilities, demands, powers)
        if not 0 < alpha < INF:
            raise ValueError("path-loss exponent alpha must be finite and > 0")
        if not 0 < noise < INF:
            raise ValueError("ambient noise must be finite and strictly positive")
        if not p_max > 0:
            raise ValueError("p_max must be positive (math.inf for unlimited)")
        # one reduction: a negative node is a huge unsigned one
        if not np.maximum.reduce(nodes.view(np.uintp), axis=None, initial=0) < metric.n_points:
            metric._check_nodes(senders, receivers)
        positions = index_of(ids)
        ends = metric.gather(nodes)  # [..., 0, :] the senders', [..., 1, :] the receivers'
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            d_alpha = metric.between(ends[..., 1, :], ends[..., 0, :], alpha)
            sens = thresholds * d_alpha
        # the first link with a bad length, sensitivity or threshold; a bad
        # length wins. A length may under- or overflow.
        bad = ~((d_alpha > 0) & (d_alpha < INF)) | (sens == INF)
        if not sub_unit:
            bad |= thresholds < 1
        if bad.any():
            k = int(np.argmax(bad))
            if not 0 < d_alpha[k] < INF:
                with np.errstate(over="ignore"):  # its square may overflow
                    length = metric.distance(receivers[k], senders[k])
                raise ValueError(
                    f"link {ids[k]}: sender-receiver distance^alpha must be "
                    f"{'finite' if d_alpha[k] > 0 else '> 0'} "
                    f"(distance {length:g}, alpha {alpha:g})"
                )
            if sens[k] == INF:
                raise ValueError(_overflow_message(ids[k], thresholds[k], d_alpha[k]))
            raise ValueError(
                f"link {ids[k]}: threshold {betas[k]} < 1 (set allow_sub_unit_threshold to permit)"
            )
        d_alpha.flags.writeable = thresholds.flags.writeable = False
        # frozen: the class's own __setattr__ raises
        self.__dict__.update(
            metric=metric, alpha=alpha, noise=noise, p_max=p_max,
            allow_sub_unit_threshold=sub_unit, _positions=positions, link_ids=tuple(positions),
            senders=senders, receivers=receivers, d_alpha=d_alpha, thresholds=thresholds,
            _utilities=utilities, _demands=demands, _powers=powers,
        )

    def _columns(self, ids: Optional[Sequence[int]] = None) -> tuple:
        """The arguments of ``_from_columns``, in its order, that give this
        instance, or with ``ids`` its fragment of those links in that order:
        the constants, then ids, senders, receivers, thresholds (None where
        a link has none), utilities, demands and powers, the per-link ones as
        Python values. A link id not in the instance raises KeyError."""
        betas = self.thresholds.tolist()
        if np.isnan(self.thresholds).any():
            betas = [None if math.isnan(beta) else beta for beta in betas]
        columns = (self.link_ids, self.senders.tolist(), self.receivers.tolist(), betas,
                   self._utilities, self._demands, self._powers)
        if ids is not None:
            rows = list(map(self._position, ids))
            columns = [tuple(map(column.__getitem__, rows)) for column in columns]
        return (self.metric, self.alpha, self.noise, self.p_max, self.allow_sub_unit_threshold,
                *columns)

    def __reduce__(self):
        # through the columns, so a copy builds no Link until it reads one
        return type(self)._from_columns, self._columns()

    @cached_property
    def _cross_alpha(self) -> np.ndarray:
        metric = self.metric
        with np.errstate(over="ignore"):  # an infinite cross distance is zero gain
            cross = metric.between(metric.gather(self.receivers[:, None]),
                                   metric.gather(self.senders[None, :]), self.alpha)
        cross.flags.writeable = False
        return cross

    @cached_property
    def _geometry_alpha(self) -> np.ndarray:
        cross = _measure_pairs(self, slice(None))
        cross.flags.writeable = False
        return cross

    @cached_property
    def _by_sensitivity(self) -> tuple:
        # -NaN is NaN, which lexsort puts last
        order = np.lexsort((np.array(self.link_ids), -(self.thresholds * self.d_alpha)))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        order.flags.writeable = rank.flags.writeable = False
        # a NaN threshold fails the comparison
        return order, rank, not self.link_ids or bool(np.minimum.reduce(self.thresholds) > 0)

    @cached_property
    def _ids_by_sensitivity(self) -> tuple:
        ids = self.link_ids
        return tuple([ids[k] for k in self._by_sensitivity[0].tolist()])

    def _position(self, link_id: int) -> int:
        try:
            return self._positions[link_id]
        except KeyError:
            raise KeyError(f"no link with id {link_id}") from None

    def link(self, link_id: int) -> Link:
        return self.links[self._position(link_id)]

    def positions(self, ids: Sequence[int]) -> np.ndarray:
        """Rows of the cached per-link arrays for the given link ids."""
        try:
            return np.fromiter(map(self._positions.__getitem__, ids), np.intp, len(ids))
        except KeyError as exc:
            raise KeyError(f"no link with id {exc.args[0]}") from None

    def length(self, link_id: int) -> float:
        """Sender-receiver distance. ``d_alpha`` is not this float raised to
        alpha: in a Euclidean space both come from one squared distance, which
        ``d_alpha`` raises to alpha / 2."""
        k = self._position(link_id)
        return float(self.metric.distances(self.receivers[k], self.senders[k]))

    def to_dict(self) -> dict:
        links = []
        for lid, sender, receiver, beta, utility, demand, power in zip(*self._columns()[5:]):
            entry: dict = {"id": lid, "s": sender, "r": receiver}
            if beta is not None:
                entry["beta"] = beta
            if utility is not None:
                entry["utility"] = utility_to_dict(utility)
            if demand is not None:
                entry["demand"] = demand
            if power is not None:
                entry["power"] = power
            links.append(entry)
        out = {
            "alpha": self.alpha,
            "noise": self.noise,
            "p_max": "inf" if self.p_max == INF else self.p_max,
            "metric": self.metric.to_dict(),
            "links": links,
        }
        if self.allow_sub_unit_threshold:
            out["allow_sub_unit_threshold"] = True
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "Instance":
        """Instance from its JSON form, which fills the per-link columns; its
        Links are built on the first read of ``links``. A field of the wrong
        type raises ValueError naming the field.

        Faults are raised in the order of a reader that took one entry at a
        time: an entry's field faults (``_json_columns``) and then what
        ``Link`` refuses in it, entry by entry; then the constants' field
        faults; then the instance's own checks (``_setup``). So a fault in
        the entries is raised only after ``_check_links`` has passed the
        entries before it, and a fault of the constants only after it has
        passed all of them."""
        _require(data, Mapping, "an object", "instance")
        metric = data.get("metric")
        _require(metric, Mapping, "an object", "metric")
        metric = MetricSpace.from_dict(metric)
        entries = data.get("links")
        _require(entries, list, "a list", "links")
        columns, fault = _json_columns(entries, metric.n_points)
        try:
            constants = _json_constants(data)
        except ValueError as exc:  # raised after the entries' faults
            fault = fault or exc
        if fault is not None:
            # the links before the fault are read: the first that Link
            # refuses raises first
            _check_links(*columns)
            raise fault
        return cls._from_columns(metric, *constants, *columns)


def _json_constants(data: Mapping) -> tuple:
    """(alpha, noise, p_max, allow_sub_unit_threshold) of an instance's JSON
    form, each checked in the order the first reader checked them."""
    p_max = data.get("p_max", "inf")
    sub_unit = data.get("allow_sub_unit_threshold", False)
    _require(sub_unit, bool, "a boolean", "allow_sub_unit_threshold")
    alpha = _number(data.get("alpha"), "alpha")
    noise = _number(data.get("noise"), "noise")
    return alpha, noise, INF if p_max in ("inf", None) else _number(p_max, "p_max"), sub_unit


def _json_columns(entries: list, n_points: int) -> tuple:
    """(columns, fault): the columns of the JSON link ``entries`` that
    ``_check_links`` and ``Instance._setup`` take, over the entries before
    the first fault, and that fault (a ValueError), or None.

    The first fault is the one a reader taking one entry at a time meets
    first: the entry must be an object, then its fields s and r, their nodes
    (in a metric of ``n_points``), utility, id, beta, demand and power must
    hold, in that order. Here each field is read as one column, over the
    entries before the first fault found so far. A column whose values all
    have their exact JSON types takes no per-value work; in any other, each
    value of another type goes through the field's checker until one
    raises, and that entry becomes the new limit. A later column can only
    find a fault before it, so the last fault found is the first in that
    order. Whether ``Link`` accepts the entries before it is left to
    ``_check_links``.

    The columns are the ids (a list), the senders and receivers (int
    arrays), the thresholds (a list) and the utilities, demands and powers
    (tuples); every number is read as ``_number`` reads it.
    """
    fault, columns = None, []

    def cut(k: int, exc: ValueError) -> None:
        nonlocal entries, fault
        entries, fault = entries[:k], exc
        for column in columns:
            del column[k:]

    if not set(map(type, entries)) <= {dict}:
        for k, entry in enumerate(entries):
            if not isinstance(entry, Mapping):
                cut(k, _type_error(entry, "an object", None, k))
                break
        entries = list(map(dict, entries))  # other Mappings, read as the JSON objects are

    def read(key: str, exact: set, check) -> list:
        """The entries' ``key`` fields, each whose type is not in ``exact``
        through ``check``; cut at the first that ``check`` refuses."""
        values = list(map(dict.get, entries, repeat(key)))
        columns.append(values)
        if not set(map(type, values)) <= exact:
            for k, value in enumerate(values):
                if type(value) not in exact:
                    try:
                        values[k] = check(value, key, k)
                    except ValueError as exc:
                        cut(k, exc)
                        break
        return values

    senders, receivers = read("s", {int}, _integer), read("r", {int}, _integer)
    try:
        nodes = np.array((senders, receivers), dtype=np.intp)
        # one reduction: a negative node is a huge unsigned one
        inside = np.maximum.reduce(nodes.view(np.uintp), axis=None, initial=0) < n_points
    except OverflowError:  # a node beyond intp, so outside the metric
        inside = False
    if not inside:  # also in an empty metric with no links
        for k, (sender, receiver) in enumerate(zip(senders, receivers)):
            if not (0 <= sender < n_points and 0 <= receiver < n_points):
                key, node = ("s", sender) if not 0 <= sender < n_points else ("r", receiver)
                cut(k, ValueError(f"links[{k}].{key}: node {node} is not in the metric"))
                nodes = np.array((senders, receivers), dtype=np.intp)
                break
    utilities = read("utility", {type(None)}, _json_utility)
    ids = read("id", {int}, _integer)
    betas, demands, powers = (read(key, {float, type(None)}, _number)
                              for key in ("beta", "demand", "power"))
    senders, receivers = nodes[:, :len(entries)]  # the rows before a later cut
    return (ids, senders, receivers, betas, tuple(utilities), tuple(demands), tuple(powers)), fault


def _json_utility(value, key: str, link: int) -> UtilitySpec:
    """A link entry's utility from its JSON form; a fault raises ValueError
    naming the link and the utility's field."""
    _require(value, Mapping, "an object", key, link)
    try:
        return utility_from_dict(value)
    except KeyError as exc:
        raise ValueError(f"links[{link}].{key}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"links[{link}].{key}: {exc}") from None


def _check_links(ids, senders, receivers, betas, utilities, demands, powers) -> np.ndarray:
    """Raise what ``Link`` raises for the first link whose own fields it
    refuses; return the thresholds ``betas`` as an array, NaN for None.
    ``senders`` and ``receivers`` are int arrays. The test is one count per
    column, where counting the None entries tells a missing value from a NaN
    one; only when a count falls short are the rows replayed through
    ``Link``, in order, up to the first bad one."""
    thresholds = np.array(betas, dtype=np.float64)  # None: NaN
    n = len(betas)
    holds = (np.count_nonzero(senders != receivers) == n
             and np.count_nonzero(np.isfinite(thresholds)) + betas.count(None) == n)
    for values in (demands, powers):
        missing = values.count(None)
        if holds and missing < n:
            amounts = np.array(values, dtype=np.float64)
            holds = np.count_nonzero((amounts >= 0) & (amounts < INF)) + missing == n
    if not holds:
        for row in zip(ids, senders.tolist(), receivers.tolist(), betas, utilities, demands,
                       powers):
            Link(*row)
    return thresholds


def utility_to_dict(u: UtilitySpec) -> dict:
    if isinstance(u, StepUtility):
        return {"type": "step", "steps": [[g, v] for g, v in u.steps]}
    if isinstance(u, ShannonUtility):
        return {"type": "shannon", "scale": u.scale, "cutoff": u.cutoff}
    raise TypeError(f"cannot serialize utility of type {type(u).__name__}")


def utility_from_dict(data: Mapping) -> UtilitySpec:
    """Utility from its JSON form: ``steps`` is a list of [gamma, value]
    pairs of numbers, and ``scale`` and ``cutoff`` are numbers. A field of
    another JSON type raises ValueError naming it (``steps[0][1]``), one step
    at a time; a missing field raises KeyError."""
    kind = data.get("type")
    if kind == "step":
        steps = data["steps"]
        _require(steps, list, "a list", "steps")
        pairs = []
        for k, step in enumerate(steps):
            key = f"steps[{k}]"
            _require(step, list, "a [gamma, value] pair", key)
            if len(step) != 2:
                raise ValueError(f"{key} must be a [gamma, value] pair, got {len(step)} entries")
            pairs.append((_number(step[0], key + "[0]"), _number(step[1], key + "[1]")))
        return StepUtility(tuple(pairs))
    if kind == "shannon":
        scale = _number(data["scale"], "scale")
        return ShannonUtility(scale=scale, cutoff=_number(data.get("cutoff", 1.0), "cutoff"))
    raise ValueError(f"unknown utility type: {kind!r}")


# Checks of decoded JSON fields. A field is named by its key, or by the index
# of its link entry plus the key; the name is built only for the error.

_JSON_TYPES = {
    type(None): "null", bool: "a boolean", str: "a string", list: "a list", dict: "an object"
}


def _name(key, link) -> str:
    return key if link is None else f"links[{link}]" + ("" if key is None else f".{key}")


def _type_error(value, what: str, key, link) -> ValueError:
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    return ValueError(f"{_name(key, link)} must be {what}, got {got}")


def _require(value, kind, what: str, key, link=None) -> None:
    # a dict is a Mapping; skip the slower abstract-class check for it
    if not (kind is Mapping and type(value) is dict) and not isinstance(value, kind):
        raise _type_error(value, what, key, link)


def _number(value, key: str, link=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _type_error(value, "a number", key, link)
    try:
        return float(value)
    except OverflowError:  # an int beyond float range
        raise ValueError(f"{_name(key, link)} is too large for a float") from None


def _integer(value, key: str, link=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _type_error(value, "an integer", key, link)
    return value


def _json_points(points: list, dim: int) -> np.ndarray:
    """A JSON list of points, each a list of ``dim`` numbers, as an (n, dim)
    array. Any other entry, or a number too large for a float, is a
    ValueError naming it: unlike numpy, no string or bool is a coordinate."""
    flat = None
    if (set(map(type, points)) <= {list} and set(map(len, points)) <= {dim}
            and set(map(type, chain.from_iterable(points))) <= {int, float}):
        with suppress(OverflowError):  # an int beyond float range, named below
            flat = np.fromiter(chain.from_iterable(points), np.float64, len(points) * dim)
    if flat is None:
        for k, point in enumerate(points):
            key = f"metric.points[{k}]"
            _require(point, list, "a list", key)
            if len(point) != dim:
                raise ValueError(f"points have dimension {len(point)}, declared {dim}")
            for d, x in enumerate(point):
                _number(x, f"{key}[{d}]")
        flat = np.fromiter(chain.from_iterable(points), np.float64, len(points) * dim)
    return flat.reshape(-1, dim)


def _id_numbers(value, key: str) -> dict[int, float]:
    """A JSON object link id -> number, such as a solution's powers."""
    _require(value, Mapping, "an object", key)
    out = {}
    for lid, number in value.items():
        name = f'{key}["{lid}"]'
        try:
            lid = int(lid)
        except (TypeError, ValueError):
            raise ValueError(f"{name}: key is not a link id") from None
        out[lid] = _number(number, name)
    return out


@dataclass(frozen=True)
class Geometry:
    """Dense per-candidate-set arrays used by oracles and SINR evaluation.

    Building one for k links costs O(k^2) time and memory. The capacity
    solvers build none (they read distances through the instance's kernel);
    ``evaluate_sinrs``, the oracles and the lemma checks build one over the
    links they are given. On an instance of at most ``_DENSE`` links its
    cross matrix is sliced out of ``Instance._geometry_alpha``, which the
    first call measures, and otherwise measured per call.

    ids         candidate link ids, fixed order
    d_alpha     own sender-receiver distance^alpha per link
    cross_alpha cross_alpha[i, j] = d(sender_j, receiver_i)^alpha; the gain
                of sender j at receiver i is its reciprocal
    """

    ids: tuple[int, ...]
    d_alpha: np.ndarray
    cross_alpha: np.ndarray

    @property
    def n(self) -> int:
        return len(self.ids)


def index_of(ids: Sequence[int]) -> dict[int, int]:
    """Link id -> position in ``ids``; iterating it walks ``ids`` in order.
    Raises ValueError naming the first link that appears more than once,
    which would otherwise count as two interfering copies of itself."""
    index = {lid: k for k, lid in enumerate(ids)}
    if len(index) < len(ids):
        seen = set()
        for lid in ids:
            if lid in seen:
                raise ValueError(f"link {lid} appears more than once")
            seen.add(lid)
    return index


def geometry(instance: Instance, ids: Optional[Sequence[int]] = None) -> Geometry:
    """Geometry of ``ids`` (default: every link), which must be distinct."""
    if ids is None:
        ids = instance.link_ids
    ids = tuple(ids)
    index_of(ids)
    pos = instance.positions(ids)
    if len(instance.link_ids) <= _DENSE:
        # rows pos, then columns pos, of the checkers' own matrix
        cross = instance._geometry_alpha.take(pos, 0).take(pos, 1)
    else:
        cross = _measure_pairs(instance, pos)
    return Geometry(ids, instance.d_alpha[pos], cross)


def _measure_pairs(instance: Instance, pos) -> np.ndarray:
    """``geometry``'s cross matrix over the links at rows ``pos`` (an index
    array, or a slice) of the instance arrays, measured."""
    metric = instance.metric
    with np.errstate(over="ignore"):  # an infinite cross distance is zero gain
        return metric.between(metric.gather(instance.receivers[pos][:, None]),
                              metric.gather(instance.senders[pos][None, :]), instance.alpha)


def thresholds_for(
    instance: Instance,
    ids: Sequence[int],
    thresholds: Optional[Thresholds] = None,
    pos: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-link threshold array for ``ids``, whose rows of the instance
    arrays are ``pos`` if given.

    ``thresholds`` is a mapping id -> beta that wins over the links' own
    thresholds, or an array of thresholds aligned with ``ids``, which is
    used as is. Raises ValueError naming the first link whose threshold is
    not finite and positive.
    """
    ids = list(ids)
    if isinstance(thresholds, np.ndarray):
        if thresholds.shape != (len(ids),):
            raise ValueError("threshold array does not match the links")
        out = thresholds
    else:
        out = instance.thresholds[instance.positions(ids) if pos is None else pos]
        missing = np.isnan(out)
        if thresholds:
            given = [k for k, lid in enumerate(ids) if lid in thresholds]
            out[given] = [thresholds[ids[k]] for k in given]
            missing[given] = False
        if missing.any():
            raise ValueError(f"link {ids[int(np.argmax(missing))]} has no threshold")
    # the reductions carry a NaN, which fails both comparisons
    if len(out) and not (np.minimum.reduce(out) > 0 and np.maximum.reduce(out) < INF):
        k = int(np.argmin((out > 0) & (out < INF)))
        raise ValueError(f"link {ids[k]}: threshold must be finite and positive, got {out[k]}")
    return out


def _sensitivities(ids, beta: np.ndarray, d_alpha: np.ndarray) -> np.ndarray:
    """Sensitivities beta * d^alpha of ``ids``, from finite positive
    thresholds. Raises ValueError naming the first link whose product
    overflows; callers run it under ``np.errstate(over="ignore")``, so no
    solver or oracle warns or runs on an infinite sensitivity."""
    sens = beta * d_alpha
    if len(sens) and np.maximum.reduce(sens) == INF:
        k = int(np.argmin(sens < INF))
        raise ValueError(_overflow_message(ids[k], beta[k], d_alpha[k]))
    return sens


def _overflow_message(lid, beta, d_alpha) -> str:
    return (f"link {lid}: sensitivity threshold * distance^alpha must be finite "
            f"(threshold {beta:g}, distance^alpha {d_alpha:g})")


def _sinr(cross_alpha: np.ndarray, p: np.ndarray, noise: float) -> np.ndarray:
    """``sinr_vector``'s arithmetic, for callers already under
    ``np.errstate(divide="ignore", invalid="ignore")``: a zero cross-distance
    divides by zero, and an infinite power over an infinite one is invalid.
    Received strength is p / d^alpha per sender, and zero power emits nothing
    even from a zero-distance sender; that guard runs only when some power is
    0, since without a zero it gives the same floats."""
    received = p[..., None, :] / cross_alpha
    if np.count_nonzero(p) < p.size:
        received = np.where(p[..., None, :] == 0, 0.0, received)
    signal = np.diagonal(received, axis1=-2, axis2=-1)
    return signal / (received.sum(axis=-1) - signal + noise)


def sinr_vector(cross_alpha: np.ndarray, p: np.ndarray, noise: float) -> np.ndarray:
    """SINR of every link of a candidate set, given its matrix
    cross_alpha[i, j] = d(sender_j, receiver_i)^alpha and its power array.
    Leading axes, if any, stack independent sets: (m, k, k) matrices with
    (m, k) powers give (m, k) SINRs, each row the same floats as its own
    call. An infinite power gives an infinite or NaN SINR, without a
    warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _sinr(cross_alpha, p, noise)


def evaluate_sinrs(
    instance: Instance,
    selected: Sequence[int],
    powers: Mapping[int, float],
) -> dict[int, float]:
    """Recompute the SINR of every selected link under the assignment."""
    selected = list(selected)
    if not selected:
        return {}
    geo = geometry(instance, selected)
    p = np.array(powers_for(instance, selected, powers), dtype=np.float64)
    return dict(zip(selected, sinr_vector(geo.cross_alpha, p, instance.noise).tolist()))


def powers_for(
    instance: Instance,
    ids: Sequence[int],
    powers: Optional[Mapping[int, float]] = None,
) -> list[float]:
    """Power of each link in ``ids``, in order: its entry in ``powers`` when
    a mapping is given, else its own fixed power. Raises ValueError naming
    the first link without one."""
    if powers is None:
        # the instance's own ids (an all-link solve's) are its links in order
        own = instance._powers
        out = list(own) if ids is instance.link_ids else [own[instance._position(lid)] for lid in ids]
        missing = "link {} has no fixed power"
    else:
        out = [powers.get(lid) for lid in ids]
        missing = "missing power for link {}"
    for lid, p in zip(ids, out):
        if p is None:
            raise ValueError(missing.format(lid))
    return out


def sensitivity_order(
    instance: Instance,
    links: Optional[Sequence[int]] = None,
    thresholds: Optional[Thresholds] = None,
    pos: Optional[np.ndarray] = None,
    return_index: bool = False,
) -> Union[list[int], tuple[list[int], np.ndarray]]:
    """Link ids ordered by decreasing sensitivity beta * d^alpha.

    Position 0 is the most sensitive link (rank 1). Ties break by ascending
    link id so runs are reproducible. The ordering is a total order and does
    not depend on the order of the input list. The key is the threshold
    times ``Instance.d_alpha``, the same float the greedies' weight and
    affectance rows use.

    Under the links' own thresholds (``thresholds`` None) the order is read
    off the instance, which sorts all its links once
    (``Instance._by_sensitivity``): every link's is that order itself, and a
    subset's an argsort of its links' ranks in it. Overrides sort their own
    keys with one ``lexsort``. Either way a link without a threshold raises
    ValueError (see ``thresholds_for``).

    ``pos`` are the rows of ``links`` in the instance arrays when the caller
    holds them, as in ``thresholds_for``. With ``return_index`` the result
    is the pair (ids, index), where ``index[k]`` is the position of
    ``ids[k]`` in ``links`` (its row when ``links`` is None), so that a
    caller lays out arrays aligned with ``links`` in this order without
    looking an id up.
    """
    if links is None:
        ids = instance.link_ids
        pos = None if thresholds is None else np.arange(len(ids))
    else:
        ids = list(links)
        if pos is None:
            pos = instance.positions(ids)
    if thresholds is not None:
        sens = thresholds_for(instance, ids, thresholds, pos) * instance.d_alpha[pos]
        order = np.lexsort((np.array(ids), -sens))
    else:
        order, rank, valid = instance._by_sensitivity
        if not valid:
            thresholds_for(instance, ids, None, pos)  # names the first bad one in ids
        if links is not None:
            # stable: the merge sort lexsort runs too, where the default
            # quicksort maps another sort kernel (+0.3 MB peak RSS)
            order = np.argsort(rank[pos], kind="stable")
    if links is None and thresholds is None:
        out = list(instance._ids_by_sensitivity)
    else:
        # on a tuple of ids a comprehension takes half the time of map(ids.__getitem__)
        out = [ids[k] for k in order.tolist()]
    return (out, order) if return_index else out


@dataclass(frozen=True)
class Solution:
    """Selected links with powers, per-link SINR and the objective value.

    ``trace`` holds one row (id, accepted, load) per candidate in walk
    order, where load is what the greedy compared with its budget: inf for a
    link a pass rejects up front. The fixed pass (``solve_fixed`` and the
    full-power branch of ``solve_limited``) freezes a candidate whose load
    passed the budget before it was walked, at one of the checks after every
    8th accept; its row holds the load at the first such check, which is
    above the budget and at most its load when walked.
    """

    selected: tuple[int, ...]
    powers: dict[int, float]
    sinr: dict[int, float]
    objective: float
    algorithm: str
    trace: tuple = ()

    def to_dict(self, include_trace: bool = False) -> dict:
        out = {
            "selected": list(self.selected),
            "powers": {str(k): v for k, v in self.powers.items()},
            "sinr": {str(k): v for k, v in self.sinr.items()},
            "objective": self.objective,
            "algorithm": self.algorithm,
        }
        if include_trace and self.trace:
            out["trace"] = [list(row) for row in self.trace]
        return out

    @classmethod
    def from_dict(cls, data: Mapping, name: str = "") -> "Solution":
        """Solution from its JSON form. A field of the wrong type raises
        ValueError naming the field, after ``name`` (where the solution sits
        in a larger artifact) when one is given."""
        _require(data, Mapping, "an object", name or "solution")
        at = f"{name}." if name else ""
        selected = data.get("selected")
        _require(selected, list, "a list", at + "selected")
        algorithm = data.get("algorithm", "")
        _require(algorithm, str, "a string", at + "algorithm")
        trace = data.get("trace", [])
        _require(trace, list, "a list", at + "trace")
        for k, row in enumerate(trace):
            _require(row, list, "a list", f"{at}trace[{k}]")
        return cls(
            selected=tuple(_integer(lid, f"{at}selected[{k}]") for k, lid in enumerate(selected)),
            powers=_id_numbers(data.get("powers"), at + "powers"),
            sinr=_id_numbers(data.get("sinr"), at + "sinr"),
            objective=_number(data.get("objective"), at + "objective"),
            algorithm=algorithm,
            trace=tuple(tuple(row) for row in trace),
        )


def empty_solution(algorithm: str) -> Solution:
    return Solution((), {}, {}, 0.0, algorithm)
