"""Exact reference procedures: admissibility decisions and brute-force optima.

A subset is admissible exactly when the spectral radius of its relative
interference matrix B is below 1, and then the minimal power vector is the
unique positive solution of (I - B) p = beta * d^alpha * N (Zander 1992;
Foschini & Miljanic 1993). ``check_admissible`` decides a subset with one
LU solve of that system; ``spectral_admissible`` answers the uncapped
question independently through the eigenvalues of B. Either costs
O(k^2) to build B and O(k^3) to factor it, for a subset of k links, with no
iteration count that grows near the boundary rho(B) = 1; both refuse a
subset of more than ``ADMISSIBLE_LIMIT`` links before building any array
over it (``sinrsched oracle`` then exits 2). The brute-force
searches, meant for desk-scale ratio experiments and tests, build their
arrays once per call and walk each subset size in lexicographic chunks of at
most ``_CHUNK`` subsets. A chunk's submatrices are stacked and decided by one
LAPACK call (one ``sinr_vector`` call under fixed powers), so memory is
bounded by the chunk, not by the number of subsets of a size. Every pair
matrix here comes from ``geometry``: on an instance of at most 128 links a
slice of the checkers' own (``Instance._geometry_alpha``), never of the one
the capacity solvers read, so a fault in theirs cannot certify itself.

``brute_opt_threshold`` decides only subsets that can be feasible: every
single link first, then every pair of the links feasible alone, then, past
size 2, only subsets of those links that hold no infeasible pair. Under
variable powers a single link's system (1 - 0) p = beta * d^alpha * N
returns its base, so the singles are read off the base vector without a
LAPACK call; under fixed powers they are one stacked SINR evaluation.
Feasibility is hereditary, so every subset it skips is infeasible and the
answer is the full walk's: a principal submatrix of B has no larger spectral
radius, minimal powers only grow as links are added, and fixed-power SINRs
only fall. On eight n = 16 instances (seeds 5000-5003, lengths 50-100 and
1-100 in area 1000, ``experiment_ratio``'s thresholds and cap) the search
took 879 -> 1.5 ms capped, 586 -> 1.8 ms fixed and 348 -> 65 ms uncapped,
and ``experiment_ratio(n=20, trials=20, seed=0)`` 7.5 -> 0.10 s (2-CPU
machine, Python 3.11.7, numpy 2.4.6). ``brute_opt_flexible_fixed`` keeps the
full walk: its tie-break prefers the lexicographically smaller tuple, so it
can return a superset holding a link of zero value, which a prune would drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Mapping, Optional, Sequence

import numpy as np

from .model import (
    FEAS_RTOL,
    INF,
    Instance,
    Thresholds,
    _sensitivities,
    float_sum,
    geometry,
    powers_for,
    sinr_vector,
    thresholds_for,
)

BRUTE_FORCE_LIMIT = 20
# largest subset the admissibility oracles decide: they hold several dense
# k x k float arrays at once (128 MB each at this bound), and the largest
# set the tests, demos and benchmark checks hand them has 121 links
ADMISSIBLE_LIMIT = 4096
# subsets of one size decided per stacked call in a brute-force search
_CHUNK = 2048


@dataclass(frozen=True)
class AdmissibilityCertificate:
    """Outcome of an admissibility check.

    powers is the minimal power vector and is present exactly when feasible.
    iterations counts linear solves: 1, or 0 for the empty subset. violated
    names the first link, in subset order, whose minimal power exceeds a
    finite cap; it is None when the subset has no positive power vector at
    all, whatever the cap.
    """

    feasible: bool
    powers: Optional[dict]
    iterations: int
    violated: Optional[int] = None
    method: str = "linear_solve"

    def to_dict(self) -> dict:
        out = {
            "feasible": self.feasible,
            "powers": {str(k): v for k, v in self.powers.items()} if self.powers else None,
            "iterations": self.iterations,
            "method": self.method,
        }
        if self.violated is not None:
            out["violated"] = self.violated
        return out


def _coupling(instance, ids, thresholds):
    """Relative interference matrix B and base vector beta * d^alpha * N.
    Raises ValueError before building anything for more than
    ``ADMISSIBLE_LIMIT`` links."""
    if len(ids) > ADMISSIBLE_LIMIT:
        raise ValueError(f"admissibility oracle limited to {ADMISSIBLE_LIMIT} links, "
                         f"got {len(ids)}")
    geo = geometry(instance, ids)
    beta = thresholds_for(instance, ids, thresholds)
    with np.errstate(divide="ignore", over="ignore"):
        sens = _sensitivities(ids, beta, geo.d_alpha)
        gain = 1.0 / geo.cross_alpha
    coupling = sens[:, None] * gain
    np.fill_diagonal(coupling, 0.0)
    return coupling, sens * instance.noise


def _minimal_powers(coupling, base):
    """Solve (I - B) p = base, for one system or for a stack of them along
    leading axes. Return p and, per system, whether it is finite and positive
    in every entry, which holds exactly when rho(B) < 1 and p is then the
    minimal power vector. Raises LinAlgError when any matrix is singular."""
    p = np.linalg.solve(np.eye(base.shape[-1]) - coupling, base[..., None])[..., 0]
    return p, (np.isfinite(p) & (p > 0)).all(axis=-1)


def check_admissible(
    instance: Instance,
    subset: Sequence[int],
    cap: Optional[float] = None,
    thresholds: Optional[Thresholds] = None,
) -> AdmissibilityCertificate:
    """Decide whether some power assignment within the cap meets every
    threshold of ``subset``.

    Solves (I - B) p = beta * d^alpha * N once. A positive solution exists
    exactly when rho(B) < 1 and is then the minimal power vector; the subset
    is feasible when that vector is also within the cap (default p_max). A
    cap that is NaN or not positive, or a subset of more than
    ``ADMISSIBLE_LIMIT`` links, raises ValueError.
    """
    cap = instance.p_max if cap is None else cap
    if not cap > 0:  # also NaN, which every comparison with a power passes
        raise ValueError(f"cap must be positive (inf for none), got {cap}")
    ids = list(subset)
    if not ids:
        return AdmissibilityCertificate(True, {}, 0)
    coupling, base = _coupling(instance, ids, thresholds)
    try:
        p, positive = _minimal_powers(coupling, base)
    except np.linalg.LinAlgError:  # singular: rho(B) = 1
        positive = False
    if not positive:
        return AdmissibilityCertificate(False, None, 1)
    over = p > cap
    if over.any():
        return AdmissibilityCertificate(False, None, 1, ids[int(over.argmax())])
    return AdmissibilityCertificate(True, {lid: float(p[k]) for k, lid in enumerate(ids)}, 1)


def spectral_radius(mat: np.ndarray) -> float:
    """Largest eigenvalue modulus of a nonnegative matrix; INF when an entry
    is infinite (a sender on top of another link's receiver)."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.shape[0] == 0:
        return 0.0
    if not np.all(np.isfinite(mat)):
        return INF
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def relative_interference_matrix(
    instance: Instance,
    subset: Sequence[int],
    thresholds: Optional[Mapping[int, float]] = None,
) -> np.ndarray:
    """B[i, j] = beta_i * d_i^alpha / d(sender_j, receiver_i)^alpha, zero diagonal."""
    return _coupling(instance, list(subset), thresholds)[0]


def spectral_admissible(
    instance: Instance,
    subset: Sequence[int],
    thresholds: Optional[Mapping[int, float]] = None,
) -> bool:
    """Uncapped admissibility via the spectral-radius criterion rho(B) < 1.
    The empty set and a single link have a zero B of radius 0. A subset of
    more than ``ADMISSIBLE_LIMIT`` links raises ValueError."""
    return spectral_radius(relative_interference_matrix(instance, subset, thresholds)) < 1.0


def _brute_ids(instance, links):
    ids = sorted(instance.link_ids if links is None else links)
    if len(ids) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} links, got {len(ids)}")
    return ids


def _combination_chunks(n, size):
    """combinations(range(n), size) in lexicographic order, as (m, size)
    index arrays of at most _CHUNK rows."""
    combos = combinations(range(n), size)
    while (chunk := np.fromiter(chain.from_iterable(islice(combos, _CHUNK)), np.intp)).size:
        yield chunk.reshape(-1, size)


def _stacked(mat, combos):
    """The (m, size, size) stack of mat's submatrices on each row of combos."""
    return mat[combos[:, :, None], combos[:, None, :]]


def _decide(feasible, combos):
    """feasible(combos) in one stacked call. A singular matrix fails the
    whole stack, so then each subset is decided alone, and a singular one
    is infeasible."""
    try:
        return feasible(combos)
    except np.linalg.LinAlgError:
        if len(combos) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_decide(feasible, row[None]) for row in combos])


def brute_opt_threshold(
    instance: Instance,
    links: Optional[Sequence[int]] = None,
    regime: str = "variable",
    powers: Optional[Mapping[int, float]] = None,
    thresholds: Optional[Mapping[int, float]] = None,
) -> tuple[tuple[int, ...], int]:
    """Maximum-cardinality feasible subset, by exhaustive enumeration.

    regime: "variable" (any powers), "variable_capped" (powers within
    p_max) or "fixed" (SINRs evaluated under the given powers). Ties break
    toward the lexicographically smallest sorted id tuple. Hard limit of
    20 links. The coupling (or, for "fixed", the cross-distance) matrix is
    built once over all links; each chunk of subsets is tested on a stack of
    its slices.

    Every single link is decided first (under variable powers from its
    base: feasible when finite, positive and, capped, not above p_max, the
    floats a 1 x 1 solve returns), and the links that pass (``keep``) have
    every pair decided next. Past size 2, each size is walked over the
    lexicographic combinations of ``keep``, and a combination holding a pair
    decided infeasible is dropped before its chunk's stacked decision; a
    size with nothing left makes no decision. Feasibility is hereditary: a
    principal submatrix of B has no larger spectral radius (Zander 1992;
    Foschini & Miljanic 1993), so a superset of an infeasible set has no
    positive minimal powers or larger ones, and under fixed powers adding a
    link only adds interference. Every dropped subset is therefore
    infeasible, and since ``keep`` is sorted the walk keeps lexicographic
    order, so the answer is the one the walk over all subsets returns.
    """
    ids = _brute_ids(instance, links)
    if regime not in ("variable", "variable_capped", "fixed"):
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "fixed":
        cross_alpha = geometry(instance, ids).cross_alpha
        p = np.array(powers_for(instance, ids, powers), dtype=np.float64)
        floor = thresholds_for(instance, ids, thresholds) * (1 - FEAS_RTOL)

        def feasible(combos):
            gamma = sinr_vector(_stacked(cross_alpha, combos), p[combos], instance.noise)
            return (gamma >= floor[combos]).all(axis=-1)

        keep = np.flatnonzero(_decide(feasible, np.arange(len(ids))[:, None]))
    else:
        coupling, base = _coupling(instance, ids, thresholds)
        cap = INF if regime == "variable" else instance.p_max

        def feasible(combos):
            p, positive = _minimal_powers(_stacked(coupling, combos), base[combos])
            return positive & ~(p > cap).any(axis=-1)

        # a single link's system (1 - 0) p = base returns its base, the
        # floats a 1 x 1 solve gives, so no LAPACK call decides it
        keep = np.flatnonzero(np.isfinite(base) & (base > 0) & ~(base > cap))
    # bit j of clash[i]: the pair (keep[i], keep[j]) is infeasible
    clash = np.zeros(len(keep), dtype=np.int64)
    for pairs in _combination_chunks(len(keep), 2):
        i, j = pairs[~_decide(feasible, keep[pairs])].T
        np.bitwise_or.at(clash, i, 1 << j)
        np.bitwise_or.at(clash, j, 1 << i)
    for size in range(len(keep), 0, -1):
        for combos in _combination_chunks(len(keep), size):
            members = (1 << combos).sum(axis=1)  # bit j set for each member j
            combos = combos[~(clash[combos] & members[:, None]).any(axis=1)]
            if size > 2 and len(combos):  # sizes 1 and 2 are decided above
                combos = combos[_decide(feasible, keep[combos])]
            if len(combos):
                return tuple(ids[k] for k in keep[combos[0]]), size
    return (), 0


def brute_opt_flexible_fixed(
    instance: Instance,
    links: Optional[Sequence[int]] = None,
    powers: Optional[Mapping[int, float]] = None,
) -> tuple[tuple[int, ...], float]:
    """Exact flexible-rate optimum under fixed powers, by enumeration.

    Evaluates the summed realized utility of every subset; ties go to the
    lexicographically smallest sorted id tuple (the empty set scores 0).
    SINRs come from stacked slices of one cross-distance matrix over all
    links, one ``sinr_vector`` call per chunk of subsets.
    """
    ids = _brute_ids(instance, links)
    cross_alpha = geometry(instance, ids).cross_alpha
    p = np.array(powers_for(instance, ids, powers), dtype=np.float64)
    utils = [instance._utilities[k] for k in instance.positions(ids).tolist()]
    if None in utils:
        raise ValueError(f"link {ids[utils.index(None)]} has no utility")
    best_combo: tuple[int, ...] = ()
    best_value = 0.0
    for size in range(1, len(ids) + 1):
        for combos in _combination_chunks(len(ids), size):
            gammas = sinr_vector(_stacked(cross_alpha, combos), p[combos], instance.noise)
            for combo, gamma in zip(map(tuple, combos.tolist()), gammas.tolist()):
                total = float_sum(utils[k].value(g) for k, g in zip(combo, gamma))
                if total > best_value or (total == best_value and combo < best_combo):
                    best_combo, best_value = combo, total
    return tuple(ids[k] for k in best_combo), best_value
