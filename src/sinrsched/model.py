"""Core data model: metric spaces, links, instances, SINR evaluation.

Everything here is immutable after construction and safe to share between
concurrent workers; all operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .utility import UtilitySpec, utility_from_dict, utility_to_dict

INF = math.inf

# Relative tolerance for every SINR-vs-threshold comparison in the package:
# a link is considered feasible when gamma >= beta * (1 - FEAS_RTOL).
FEAS_RTOL = 1e-9

# Relative tolerance for power-cap comparisons.
CAP_RTOL = 1e-12


class MetricSpace:
    """Finite metric space: Euclidean point set or explicit distance matrix.

    Euclidean spaces compute L2 distances on demand; matrix spaces store the
    full symmetric matrix and validate metric axioms (incl. the triangle
    inequality, O(n^3) time and O(n^2) memory) at load time unless
    ``validate=False``. ``distances`` costs O(size of its result) in both
    kinds, so a row of distances from one node is O(n).
    """

    __slots__ = ("_points", "_matrix", "dim")

    def __init__(self, points: Optional[np.ndarray], matrix: Optional[np.ndarray], dim: int):
        self._points = points
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
        pts.flags.writeable = False
        return cls(pts, None, pts.shape[1])

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
    def is_euclidean(self) -> bool:
        return self._points is not None

    @property
    def n_points(self) -> int:
        if self._points is not None:
            return self._points.shape[0]
        return self._matrix.shape[0]

    def distance(self, i: int, j: int) -> float:
        n = self.n_points
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"node index out of range: ({i}, {j}) with {n} nodes")
        if self._matrix is not None:
            return float(self._matrix[i, j])
        return float(np.linalg.norm(self._points[i] - self._points[j]))

    def distances(self, i, j) -> np.ndarray:
        """Element-wise distances d(i[k], j[k]) for node index arrays (or
        scalars) ``i`` and ``j`` that broadcast together."""
        i = np.asarray(i, dtype=np.intp)
        j = np.asarray(j, dtype=np.intp)
        if self._matrix is not None:
            return self._matrix[i, j]
        diff = self._points[i] - self._points[j]
        return np.sqrt(np.add.reduce(diff * diff, axis=-1))

    def pair_distances(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Matrix D with D[i, j] = d(rows[i], cols[j])."""
        ri = np.asarray(rows, dtype=np.intp)
        ci = np.asarray(cols, dtype=np.intp)
        return self.distances(ri[:, None], ci[None, :])

    def to_dict(self) -> dict:
        if self._points is not None:
            return {"type": "euclidean", "dim": self.dim, "points": self._points.tolist()}
        return {"type": "matrix", "d": self._matrix.tolist()}

    @classmethod
    def from_dict(cls, data: Mapping, validate: bool = True) -> "MetricSpace":
        kind = data.get("type")
        if kind == "euclidean":
            return cls.euclidean(data["points"], dim=int(data["dim"]))
        if kind == "matrix":
            return cls.from_matrix(data["d"], validate=validate)
        raise ValueError(f"unknown metric type: {kind!r}")


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


def distance(space: MetricSpace, i: int, j: int) -> float:
    """Distance between two node indices."""
    return space.distance(i, j)


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
        if self.demand is not None and self.demand < 0:
            raise ValueError(f"link {self.id}: demand must be >= 0")
        if self.fixed_power is not None and not (0 <= self.fixed_power < INF):
            raise ValueError(f"link {self.id}: fixed power must be finite and >= 0")


@dataclass(frozen=True)
class Instance:
    """A scheduling world: metric space, physical constants and links.

    Every link's sender-receiver distance is computed once, at construction,
    and ``length`` returns the cached value.
    """

    metric: MetricSpace
    alpha: float
    noise: float
    links: tuple[Link, ...]
    p_max: float = INF
    allow_sub_unit_threshold: bool = False

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("path-loss exponent alpha must be > 0")
        if not self.noise > 0:
            raise ValueError("ambient noise must be strictly positive")
        if not self.p_max > 0:
            raise ValueError("p_max must be positive (math.inf for unlimited)")
        object.__setattr__(self, "links", tuple(self.links))
        lengths = {}
        for link in self.links:
            if link.id in lengths:
                raise ValueError(f"duplicate link id {link.id}")
            lengths[link.id] = self.metric.distance(link.sender, link.receiver)
            if lengths[link.id] <= 0:
                raise ValueError(f"link {link.id}: zero sender-receiver distance")
            if (
                link.threshold is not None
                and link.threshold < 1
                and not self.allow_sub_unit_threshold
            ):
                raise ValueError(
                    f"link {link.id}: threshold {link.threshold} < 1 "
                    "(set allow_sub_unit_threshold to permit)"
                )
        object.__setattr__(self, "_by_id", {link.id: link for link in self.links})
        object.__setattr__(self, "_lengths", lengths)

    def link(self, link_id: int) -> Link:
        try:
            return self._by_id[link_id]
        except KeyError:
            raise KeyError(f"no link with id {link_id}") from None

    @property
    def link_ids(self) -> tuple[int, ...]:
        return tuple(link.id for link in self.links)

    def length(self, link_id: int) -> float:
        """Sender-receiver distance, cached at construction."""
        try:
            return self._lengths[link_id]
        except KeyError:
            raise KeyError(f"no link with id {link_id}") from None

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
    def from_dict(cls, data: Mapping, validate_metric: bool = True) -> "Instance":
        p_max = data.get("p_max", "inf")
        links = []
        for entry in data["links"]:
            utility = entry.get("utility")
            links.append(
                Link(
                    id=int(entry["id"]),
                    sender=int(entry["s"]),
                    receiver=int(entry["r"]),
                    threshold=entry.get("beta"),
                    utility=utility_from_dict(utility) if utility is not None else None,
                    demand=entry.get("demand"),
                    fixed_power=entry.get("power"),
                )
            )
        return cls(
            metric=MetricSpace.from_dict(data["metric"], validate=validate_metric),
            alpha=float(data["alpha"]),
            noise=float(data["noise"]),
            p_max=INF if p_max in ("inf", None) else float(p_max),
            links=tuple(links),
            allow_sub_unit_threshold=bool(data.get("allow_sub_unit_threshold", False)),
        )


@dataclass(frozen=True)
class Geometry:
    """Dense per-candidate-set arrays used by oracles and SINR evaluation.

    Building one for k links costs O(k^2) time and memory. The capacity
    solvers never build one over all candidates, only over the links they
    accepted.

    ids         candidate link ids, fixed order
    d_alpha     own sender-receiver distance^alpha per link
    cross_alpha cross_alpha[i, j] = d(sender_j, receiver_i)^alpha
    gain        gain[i, j] = 1 / cross_alpha[i, j]; diagonal 1 / d_alpha
    """

    ids: tuple[int, ...]
    d_alpha: np.ndarray
    cross_alpha: np.ndarray
    gain: np.ndarray
    index: dict

    @property
    def n(self) -> int:
        return len(self.ids)


def geometry(instance: Instance, ids: Optional[Sequence[int]] = None) -> Geometry:
    if ids is None:
        ids = instance.link_ids
    ids = tuple(ids)
    senders = [instance.link(i).sender for i in ids]
    receivers = [instance.link(i).receiver for i in ids]
    cross = instance.metric.pair_distances(receivers, senders)
    cross_alpha = cross**instance.alpha
    d_alpha = np.diag(cross_alpha).copy()
    if np.any(d_alpha <= 0):
        raise ValueError("zero-length link in candidate set")
    with np.errstate(divide="ignore"):
        gain = 1.0 / cross_alpha
    return Geometry(ids, d_alpha, cross_alpha, gain, {lid: k for k, lid in enumerate(ids)})


def thresholds_for(
    instance: Instance,
    ids: Sequence[int],
    thresholds: Optional[Mapping[int, float]] = None,
) -> np.ndarray:
    """Per-link threshold array; override mapping wins over link attributes."""
    out = np.empty(len(ids))
    for k, lid in enumerate(ids):
        if thresholds is not None and lid in thresholds:
            out[k] = thresholds[lid]
        else:
            beta = instance.link(lid).threshold
            if beta is None:
                raise ValueError(f"link {lid} has no threshold")
            out[k] = beta
    if np.any(out <= 0):
        raise ValueError("thresholds must be positive")
    return out


def sinr(
    instance: Instance,
    active: Iterable[int],
    powers: Mapping[int, float],
    target: int,
) -> float:
    """SINR of ``target`` when the links in ``active`` transmit with ``powers``.

    Received strength is p / d^alpha; the denominator adds the ambient noise,
    so it is strictly positive.
    """
    active = list(active)
    if target not in active:
        raise ValueError(f"target link {target} is not active")
    for lid in active:
        if lid not in powers:
            raise ValueError(f"missing power for link {lid}")
    geo = geometry(instance, active)
    p = np.array([powers[lid] for lid in active], dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("powers must be >= 0")
    t = geo.index[target]
    received = _received(p, geo.cross_alpha[t])
    signal = received[t]
    interference = float(received.sum() - signal)
    return float(signal / (interference + instance.noise))


def _received(p: np.ndarray, dist_alpha_row: np.ndarray) -> np.ndarray:
    """Per-sender received strength p / d^alpha; zero power emits nothing even
    from a zero-distance sender."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = p / dist_alpha_row
    return np.where(p == 0, 0.0, out)


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
    p = np.array([powers[lid] for lid in selected], dtype=np.float64)
    out = {}
    for k, lid in enumerate(selected):
        received = _received(p, geo.cross_alpha[k])
        signal = received[k]
        interference = float(received.sum() - signal)
        out[lid] = float(signal / (interference + instance.noise))
    return out


def sensitivity_order(
    instance: Instance,
    links: Optional[Sequence[int]] = None,
    thresholds: Optional[Mapping[int, float]] = None,
) -> list[int]:
    """Link ids ordered by decreasing sensitivity beta * d^alpha.

    Position 0 is the most sensitive link (rank 1). Ties break by ascending
    link id so runs are reproducible. The ordering is a total order and does
    not depend on the order of the input list.
    """
    if links is None:
        links = instance.link_ids
    ids = list(links)
    beta = thresholds_for(instance, ids, thresholds)
    sens = {lid: float(beta[k]) * instance.length(lid) ** instance.alpha for k, lid in enumerate(ids)}
    return sorted(ids, key=lambda lid: (-sens[lid], lid))


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
    def from_dict(cls, data: Mapping) -> "Solution":
        return cls(
            selected=tuple(int(i) for i in data["selected"]),
            powers={int(k): float(v) for k, v in data["powers"].items()},
            sinr={int(k): float(v) for k, v in data["sinr"].items()},
            objective=float(data["objective"]),
            algorithm=str(data.get("algorithm", "")),
            trace=tuple(tuple(row) for row in data.get("trace", ())),
        )


def empty_solution(algorithm: str) -> Solution:
    return Solution((), {}, {}, 0.0, algorithm)
