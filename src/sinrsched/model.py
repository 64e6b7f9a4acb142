"""Core data model: metric spaces, links, instances, SINR evaluation.

This module reads and writes the whole instance file: ``Instance.from_dict``
and ``to_dict``, with each link's utility through ``utility_from_dict`` and
``utility_to_dict``. Its JSON field checkers (``_require``, ``_number``,
``_integer``) are the ones every reader in the package uses.

Everything here is immutable after construction and safe to share between
concurrent workers; all operations are pure functions of their inputs. (An
instance of at most ``_DENSE`` links keeps two pair matrices, the solvers'
and the checkers', and every instance its links' sensitivity order, each
computed on its first use; every worker that computes one gets the same
bits, so it does not matter whose is kept.)
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, fields
from functools import cached_property, reduce
from itertools import chain
from operator import add
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
        nodes.shape``), in a Euclidean space, and the indices themselves in a
        matrix space. Either way, entry ``[..., k]`` stands for ``nodes[k]``,
        so a caller that measures from the same nodes many times gathers them
        once."""
        nodes = np.asarray(nodes, dtype=np.intp)
        return nodes if self._matrix is not None else self._coords[:, nodes]

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


@dataclass(frozen=True, init=False)
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

    # Written out, checking the arguments before it stores them, because an
    # instance load builds one Link per entry: the generated __init__ plus a
    # __post_init__ reading the fields back cost ~20 % more per link. One
    # self.__dict__.update(...) would store the fields ~0.45 us faster, but
    # it gives each Link a dict of its own: ~190 B more per link, +80 %.
    def __init__(self, id, sender, receiver, threshold=None, utility=None, demand=None,
                 fixed_power=None):
        if sender == receiver:
            raise ValueError(f"link {id}: sender and receiver coincide")
        if threshold is not None and not math.isfinite(threshold):
            raise ValueError(f"link {id}: threshold must be finite")
        if demand is not None and not (0 <= demand < INF):
            raise ValueError(f"link {id}: demand must be finite and >= 0")
        if fixed_power is not None and not (0 <= fixed_power < INF):
            raise ValueError(f"link {id}: fixed power must be finite and >= 0")
        store = object.__setattr__  # frozen: the class's own __setattr__ raises
        store(self, "id", id)
        store(self, "sender", sender)
        store(self, "receiver", receiver)
        store(self, "threshold", threshold)
        store(self, "utility", utility)
        store(self, "demand", demand)
        store(self, "fixed_power", fixed_power)


@dataclass(frozen=True)
class Instance:
    """A scheduling world: metric space, physical constants and links.

    Per-link data is computed once, at construction. ``link_ids`` is the
    tuple of link ids, and ``positions`` maps link ids to rows of the cached
    arrays, which follow the order of ``links``:

    senders, receivers  node indices
    d_alpha             length^alpha from ``MetricSpace.between``; every
                        sensitivity, weight, affectance, power and SINR in
                        the package reads it, so it must be finite and positive
    thresholds          link thresholds, NaN where a link has none; a link's
                        sensitivity threshold * d_alpha must be finite too

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
    has a finite positive threshold, so that a request needs no check.

    None of the cached arrays is a field: ``==``, ``hash`` and
    ``dataclasses.replace`` ignore them. Pickle, ``copy`` and ``deepcopy``
    build a copy through the constructor, so its cached arrays are read-only
    too and it leaves the lazily cached ones out, computing its own when it
    needs one.
    """

    metric: MetricSpace
    alpha: float
    noise: float
    links: tuple[Link, ...]
    p_max: float = INF
    allow_sub_unit_threshold: bool = False

    def __post_init__(self):
        if not 0 < self.alpha < INF:
            raise ValueError("path-loss exponent alpha must be finite and > 0")
        if not 0 < self.noise < INF:
            raise ValueError("ambient noise must be finite and strictly positive")
        if not self.p_max > 0:
            raise ValueError("p_max must be positive (math.inf for unlimited)")
        object.__setattr__(self, "links", tuple(self.links))
        senders = np.array([link.sender for link in self.links], dtype=np.intp)
        receivers = np.array([link.receiver for link in self.links], dtype=np.intp)
        self.metric._check_nodes(senders, receivers)
        positions = index_of([link.id for link in self.links])
        thresholds = np.array(
            [math.nan if link.threshold is None else link.threshold for link in self.links],
            dtype=np.float64,
        )
        metric = self.metric
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            d_alpha = metric.between(metric.gather(receivers), metric.gather(senders), self.alpha)
            sens = thresholds * d_alpha
        # the first link with a bad length, sensitivity or threshold; a bad
        # length wins. A length may under- or overflow.
        bad = ~((d_alpha > 0) & (d_alpha < INF)) | (sens == INF)
        if not self.allow_sub_unit_threshold:
            bad |= thresholds < 1
        if bad.any():
            k = int(np.argmax(bad))
            link = self.links[k]
            if not 0 < d_alpha[k] < INF:
                with np.errstate(over="ignore"):  # its square may overflow
                    length = metric.distance(receivers[k], senders[k])
                raise ValueError(
                    f"link {link.id}: sender-receiver distance^alpha must be "
                    f"{'finite' if d_alpha[k] > 0 else '> 0'} "
                    f"(distance {length:g}, alpha {self.alpha:g})"
                )
            if sens[k] == INF:
                raise ValueError(_overflow_message(link.id, thresholds[k], d_alpha[k]))
            raise ValueError(
                f"link {link.id}: threshold {link.threshold} < 1 "
                "(set allow_sub_unit_threshold to permit)"
            )
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "link_ids", tuple(positions))
        arrays = {
            "senders": senders,
            "receivers": receivers,
            "d_alpha": d_alpha,
            "thresholds": thresholds,
        }
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __reduce__(self):
        return type(self), tuple(getattr(self, field.name) for field in fields(self))

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
        return order, rank, not self.links or bool(np.minimum.reduce(self.thresholds) > 0)

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
        for link in self.links:
            entry: dict = {"id": link.id, "s": link.sender, "r": link.receiver}
            if link.threshold is not None:
                entry["beta"] = link.threshold
            if link.utility is not None:
                entry["utility"] = utility_to_dict(link.utility)
            if link.demand is not None:
                entry["demand"] = link.demand
            if link.fixed_power is not None:
                entry["power"] = link.fixed_power
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
        """Instance from its JSON form. A field of the wrong type raises
        ValueError naming the field."""
        _require(data, Mapping, "an object", "instance")
        metric = data.get("metric")
        _require(metric, Mapping, "an object", "metric")
        metric = MetricSpace.from_dict(metric)
        entries = data.get("links")
        _require(entries, list, "a list", "links")
        n_points = metric.n_points
        links = []
        # Exact JSON types are checked inline; the helpers run only to convert
        # an int-valued number or to raise, in the order of the fields below.
        for k, entry in enumerate(entries):
            if type(entry) is not dict:
                _require(entry, Mapping, "an object", None, k)
            get = entry.get
            sender, receiver = get("s"), get("r")
            if type(sender) is not int:
                sender = _integer(sender, "s", k)
            if type(receiver) is not int:
                receiver = _integer(receiver, "r", k)
            if not (0 <= sender < n_points and 0 <= receiver < n_points):
                key, node = ("s", sender) if not 0 <= sender < n_points else ("r", receiver)
                raise ValueError(f"links[{k}].{key}: node {node} is not in the metric")
            utility = get("utility")
            if utility is not None:
                _require(utility, Mapping, "an object", "utility", k)
                try:
                    utility = utility_from_dict(utility)
                except KeyError as exc:
                    raise ValueError(f"links[{k}].utility: missing field {exc}") from None
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"links[{k}].utility: {exc}") from None
            lid, beta, demand, power = get("id"), get("beta"), get("demand"), get("power")
            if type(lid) is not int:
                lid = _integer(lid, "id", k)
            if type(beta) is not float and beta is not None:
                beta = _number(beta, "beta", k)
            if type(demand) is not float and demand is not None:
                demand = _number(demand, "demand", k)
            if type(power) is not float and power is not None:
                power = _number(power, "power", k)
            links.append(Link(lid, sender, receiver, beta, utility, demand, power))
        p_max = data.get("p_max", "inf")
        sub_unit = data.get("allow_sub_unit_threshold", False)
        _require(sub_unit, bool, "a boolean", "allow_sub_unit_threshold")
        return cls(
            metric=metric,
            alpha=_number(data.get("alpha"), "alpha"),
            noise=_number(data.get("noise"), "noise"),
            p_max=INF if p_max in ("inf", None) else _number(p_max, "p_max"),
            links=tuple(links),
            allow_sub_unit_threshold=sub_unit,
        )


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
    if len(instance.links) <= _DENSE:
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
        links = instance.links if ids is instance.link_ids else map(instance.link, ids)
        out = [link.fixed_power for link in links]
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
) -> list[int]:
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
    """
    if links is None:
        ids, pos = instance.link_ids, np.arange(len(instance.links))
    else:
        ids = list(links)
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
    # on a tuple of ids a comprehension takes half the time of map(ids.__getitem__)
    return [ids[k] for k in order.tolist()]


@dataclass(frozen=True)
class Solution:
    """Selected links with powers, per-link SINR and the objective value."""

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
