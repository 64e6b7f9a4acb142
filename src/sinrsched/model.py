"""Core data model: metric spaces, links, instances, SINR evaluation.

Everything here is immutable after construction and safe to share between
concurrent workers; all operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .utility import UtilitySpec, utility_from_dict, utility_to_dict

INF = math.inf

# Relative tolerance for every SINR-vs-threshold comparison in the package:
# a link is considered feasible when gamma >= beta * (1 - FEAS_RTOL).
FEAS_RTOL = 1e-9

# Relative tolerance for power-cap comparisons.
CAP_RTOL = 1e-12

# Threshold overrides: a mapping id -> beta, or an array aligned with the
# link ids it comes with (see ``thresholds_for``).
Thresholds = Union[Mapping[int, float], np.ndarray]


class MetricSpace:
    """Finite metric space: Euclidean point set or explicit distance matrix.

    Euclidean spaces store their points coordinate-major, as one contiguous
    array per coordinate (shape ``(dim, n)``), and compute L2 distances on
    demand. ``between`` adds up ``(x_d[i] - x_d[j])^2`` one coordinate at a
    time, in coordinate order, and takes the square root; for dim <= 7 that is
    bit for bit the sum numpy's ``add.reduce`` gives over the last axis of a
    row-major ``(n, dim)`` difference, and within a few ulp above that, where
    ``add.reduce`` sums pairwise. It is the package's only distance
    arithmetic: ``distance``, ``distances`` and every length and ``d^alpha``
    go through it, on nodes that ``gather`` has looked up.

    Matrix spaces store the full symmetric matrix and validate metric axioms
    (incl. the triangle inequality, O(n^3) time and O(n^2) memory) at load
    time; only ``from_matrix(..., validate=False)`` skips the check.
    ``distances`` costs O(size of its result) in both kinds, so a row of
    distances from one node is O(n); ``between`` on gathered nodes saves the
    lookup of each node's coordinates.
    """

    __slots__ = ("_coords", "_matrix", "dim")

    def __init__(self, coords: Optional[np.ndarray], matrix: Optional[np.ndarray], dim: int):
        self._coords = coords
        self._matrix = matrix
        self.dim = dim

    @classmethod
    def euclidean(cls, points: Sequence[Sequence[float]], dim: Optional[int] = None) -> "MetricSpace":
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.size == 0:
            pts = pts.reshape(0, dim or 1)
        if dim is not None and pts.shape[1] != dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, declared {dim}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        coords = np.ascontiguousarray(pts.T)
        coords.flags.writeable = False
        return cls(coords, None, pts.shape[1])

    @classmethod
    def from_matrix(cls, d: Sequence[Sequence[float]], validate: bool = True) -> "MetricSpace":
        mat = np.asarray(d, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("distance matrix must be square")
        if validate:
            _validate_metric(mat)
        mat = mat.copy()
        mat.flags.writeable = False
        return cls(None, mat, 0)

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

    def between(self, a, b) -> np.ndarray:
        """Element-wise distances between gathered nodes ``a`` and ``b`` (see
        ``gather``) that broadcast together."""
        if self._matrix is not None:
            return self._matrix[a, b]
        # a[d] - b[d] is a fresh array, so squaring and adding in place is safe
        total = a[0] - b[0]
        total *= total
        for d in range(1, self.dim):
            diff = a[d] - b[d]
            diff *= diff
            total += diff
        return np.sqrt(total)

    def pair_distances(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Matrix D with D[i, j] = d(rows[i], cols[j])."""
        ri = np.asarray(rows, dtype=np.intp)
        ci = np.asarray(cols, dtype=np.intp)
        return self.distances(ri[:, None], ci[None, :])

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
        try:
            if kind == "euclidean":
                return cls.euclidean(data["points"], dim=_integer(data.get("dim"), "metric.dim"))
            return cls.from_matrix(data["d"])
        except TypeError as exc:  # a non-numeric entry
            raise ValueError(f"metric.{key}: {exc}") from None


def _validate_metric(mat: np.ndarray) -> None:
    n = mat.shape[0]
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
        if self.sender == self.receiver:
            raise ValueError(f"link {self.id}: sender and receiver coincide")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ValueError(f"link {self.id}: threshold must be finite")
        if self.demand is not None and not (0 <= self.demand < INF):
            raise ValueError(f"link {self.id}: demand must be finite and >= 0")
        if self.fixed_power is not None and not (0 <= self.fixed_power < INF):
            raise ValueError(f"link {self.id}: fixed power must be finite and >= 0")


@dataclass(frozen=True)
class Instance:
    """A scheduling world: metric space, physical constants and links.

    Per-link data is computed once, at construction. ``link_ids`` is the
    tuple of link ids, and ``positions`` maps link ids to rows of the cached
    arrays, which follow the order of ``links``:

    senders, receivers  node indices
    d_alpha             length^alpha, lengths from ``MetricSpace.distances``;
                        every sensitivity, weight, affectance, power and SINR
                        in the package reads it, so it must be positive
    thresholds          link thresholds, NaN where a link has none
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
        lengths = self.metric.distances(receivers, senders)
        d_alpha = lengths**self.alpha
        positions = index_of([link.id for link in self.links])
        for k, link in enumerate(self.links):
            if not d_alpha[k] > 0:  # also when a short length underflows
                raise ValueError(
                    f"link {link.id}: sender-receiver distance^alpha must be > 0 "
                    f"(distance {lengths[k]:g}, alpha {self.alpha:g})"
                )
            if (
                link.threshold is not None
                and link.threshold < 1
                and not self.allow_sub_unit_threshold
            ):
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
            "thresholds": np.array(
                [math.nan if link.threshold is None else link.threshold for link in self.links],
                dtype=np.float64,
            ),
        }
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)

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
            return np.array([self._positions[lid] for lid in ids], dtype=np.intp)
        except KeyError as exc:
            raise KeyError(f"no link with id {exc.args[0]}") from None

    def length(self, link_id: int) -> float:
        """Sender-receiver distance, the one ``d_alpha`` was raised from."""
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
        for k, entry in enumerate(entries):
            _require(entry, Mapping, "an object", None, k)
            sender = _integer(entry.get("s"), "s", k)
            receiver = _integer(entry.get("r"), "r", k)
            if not (0 <= sender < n_points and 0 <= receiver < n_points):
                key, node = ("s", sender) if not 0 <= sender < n_points else ("r", receiver)
                raise ValueError(f"links[{k}].{key}: node {node} is not in the metric")
            utility = entry.get("utility")
            if utility is not None:
                _require(utility, Mapping, "an object", "utility", k)
                try:
                    utility = utility_from_dict(utility)
                except KeyError as exc:
                    raise ValueError(f"links[{k}].utility: missing field {exc}") from None
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"links[{k}].utility: {exc}") from None
            links.append(
                Link(
                    id=_integer(entry.get("id"), "id", k),
                    sender=sender,
                    receiver=receiver,
                    threshold=_number(entry.get("beta"), "beta", k, optional=True),
                    utility=utility,
                    demand=_number(entry.get("demand"), "demand", k, optional=True),
                    fixed_power=_number(entry.get("power"), "power", k, optional=True),
                )
            )
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


# Checks of decoded JSON fields. A field is named by its key, or by the index
# of its link entry plus the key; the name is built only for the error.

_JSON_TYPES = {
    type(None): "null", bool: "a boolean", str: "a string", list: "a list", dict: "an object"
}


def _type_error(value, what: str, key, link) -> ValueError:
    name = key if link is None else f"links[{link}]" + ("" if key is None else f".{key}")
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    return ValueError(f"{name} must be {what}, got {got}")


def _require(value, kind, what: str, key, link=None) -> None:
    # a dict is a Mapping; skip the slower abstract-class check for it
    if not (kind is Mapping and type(value) is dict) and not isinstance(value, kind):
        raise _type_error(value, what, key, link)


def _number(value, key: str, link=None, optional: bool = False) -> Optional[float]:
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _type_error(value, "a number", key, link)
    return float(value)


def _integer(value, key: str, link=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _type_error(value, "an integer", key, link)
    return value


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
    solvers never build one over all candidates, only over the links they
    accepted.

    ids         candidate link ids, fixed order
    d_alpha     own sender-receiver distance^alpha per link
    cross_alpha cross_alpha[i, j] = d(sender_j, receiver_i)^alpha; the gain
                of sender j at receiver i is its reciprocal
    """

    ids: tuple[int, ...]
    d_alpha: np.ndarray
    cross_alpha: np.ndarray
    index: dict

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
    index = index_of(ids)
    pos = instance.positions(ids)
    cross = instance.metric.pair_distances(instance.receivers[pos], instance.senders[pos])
    return Geometry(ids, instance.d_alpha[pos], cross**instance.alpha, index)


def thresholds_for(
    instance: Instance,
    ids: Sequence[int],
    thresholds: Optional[Thresholds] = None,
) -> np.ndarray:
    """Per-link threshold array for ``ids``.

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
        out = instance.thresholds[instance.positions(ids)]
        missing = np.isnan(out)
        if thresholds:
            given = [k for k, lid in enumerate(ids) if lid in thresholds]
            out[given] = [thresholds[ids[k]] for k in given]
            missing[given] = False
        if missing.any():
            raise ValueError(f"link {ids[int(np.argmax(missing))]} has no threshold")
    # NaN fails both comparisons
    if not ((out > 0).all() and (out < INF).all()):
        k = int(np.argmin((out > 0) & (out < INF)))
        raise ValueError(f"link {ids[k]}: threshold must be finite and positive, got {out[k]}")
    return out


def _received(p: np.ndarray, dist_alpha_row: np.ndarray) -> np.ndarray:
    """Per-sender received strength p / d^alpha; zero power emits nothing even
    from a zero-distance sender. A zero distance divides by zero and an
    infinite power over an infinite distance is invalid: callers run it
    under ``np.errstate(divide="ignore", invalid="ignore")``."""
    return np.where(p == 0, 0.0, p / dist_alpha_row)


def sinr_vector(cross_alpha: np.ndarray, p: np.ndarray, noise: float) -> np.ndarray:
    """SINR of every link of a candidate set, given its matrix
    cross_alpha[i, j] = d(sender_j, receiver_i)^alpha and its power array.
    Leading axes, if any, stack independent sets: (m, k, k) matrices with
    (m, k) powers give (m, k) SINRs, each row the same floats as its own
    call. An infinite power gives an infinite or NaN SINR, without a
    warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        received = _received(p[..., None, :], cross_alpha)
        signal = np.diagonal(received, axis1=-2, axis2=-1)
        return signal / (received.sum(axis=-1) - signal + noise)


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
        out = [instance.link(lid).fixed_power for lid in ids]
        missing = "link {} has no fixed power"
    else:
        out = [powers.get(lid) for lid in ids]
        missing = "missing power for link {}"
    for lid, p in zip(ids, out):
        if p is None:
            raise ValueError(missing.format(lid))
    return out


def utilities_for(
    instance: Instance,
    ids: Sequence[int],
    utilities: Optional[Mapping[int, UtilitySpec]] = None,
) -> list[UtilitySpec]:
    """Utility of each link in ``ids``, in order: its entry in
    ``utilities``, else its own. Raises ValueError naming the first link
    without one."""
    out = []
    for lid in ids:
        u = None if utilities is None else utilities.get(lid)
        out.append(instance.link(lid).utility if u is None else u)
        if out[-1] is None:
            raise ValueError(f"link {lid} has no utility")
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
    """
    if links is None:
        links = instance.link_ids
    ids = list(links)
    beta = thresholds_for(instance, ids, thresholds)
    sens = beta * instance.d_alpha[instance.positions(ids)]
    return [ids[k] for k in np.lexsort((np.array(ids), -sens)).tolist()]


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
