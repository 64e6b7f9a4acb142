"""Constructive procedures and adversarial lower-bound experiments.

* ``strengthen``    — split an admissible set into few parts that stay
  admissible at uniformly scaled-up thresholds (two-stage first-fit binning).
* ``reverse_dual``  — swap senders and receivers of an admissible set and
  recover a constant fraction that is admissible in the reversed direction.
* ``gen_greedy_adversary`` / ``simulate_aloha`` — line instances with
  sub-unit thresholds on which greedy selection and ALOHA-style protocols
  provably lose a 1/beta factor.

Each procedure reads its set's thresholds, geometry and witness powers once
and checks the witness once; every SINR it decides after that comes from
submatrices of that one geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .generate import gen_line
from .model import (
    FEAS_RTOL,
    INF,
    Instance,
    geometry,
    powers_for,
    sinr_vector,
    thresholds_for,
)
from .oracle import check_admissible

PERTURB = 1e-9
NOISE = 1e-9  # ambient noise of the lower-bound line instances


class CertificationError(RuntimeError):
    """The exact oracle rejected a set that a decomposition guarantees to be
    admissible: a defect or a numerically degenerate input, not a bad
    argument."""


@dataclass(frozen=True)
class Decomposition:
    """Partition of a link set; every part is admissible at scale * beta."""

    parts: tuple[tuple[int, ...], ...]
    scale: float

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)


def _witness(instance, ids, powers, thresholds=None):
    """Thresholds, geometry and witness power array of the distinct ``ids``,
    read in that order, once every link is checked to reach its threshold
    at a positive witness power. A NaN power or SINR fails the check."""
    beta = thresholds_for(instance, ids, thresholds)
    geo = geometry(instance, ids)
    p = np.array(powers_for(instance, ids, powers), dtype=np.float64)
    sinrs = sinr_vector(geo.cross_alpha, p, instance.noise)
    bad = ~((sinrs >= beta * (1 - FEAS_RTOL)) & (p > 0))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"input set is not admissible under the witness powers: link {ids[k]} needs a "
            f"positive power and SINR >= {beta[k]:.6g}, not {p[k]:.6g} and {sinrs[k]:.6g}"
        )
    return beta, geo, p


def _first_fit(members, cross_alpha, p, floor, noise):
    """Place the positions ``members`` into the first bin where their SINR
    against the positions already in that bin, under powers ``p`` on
    ``cross_alpha``'s submatrix, reaches their ``floor``."""
    bins: list[list[int]] = []
    for k in members:
        for group in bins:
            trial = group + [k]
            if sinr_vector(cross_alpha[np.ix_(trial, trial)], p[trial], noise)[-1] >= floor[k]:
                group.append(k)
                break
        else:
            bins.append([k])
    return bins


def strengthen(
    instance: Instance,
    admissible_set: Sequence[int],
    witness_powers: Mapping[int, float],
    c: float,
    thresholds: Optional[Mapping[int, float]] = None,
) -> Decomposition:
    """Decompose an admissible set into at most ceil(2c)^2 parts, each
    admissible once all thresholds are scaled by c.

    Runs first-fit binning with powers scaled by 2c, demanding SINR at least
    2c * beta against the links already binned; a second pass re-bins each
    part in reverse insertion order. Every trial is decided on a submatrix of
    the set's one geometry. Every part is certified through the exact oracle
    at the scaled thresholds.
    """
    if not c >= 1:  # also NaN
        raise ValueError("scale c must be >= 1")
    ids = sorted(admissible_set)
    if not ids:
        return Decomposition((), c)
    beta, geo, p = _witness(instance, ids, witness_powers, thresholds)
    fit = partial(_first_fit, cross_alpha=geo.cross_alpha, p=2.0 * c * p,
                  floor=2.0 * c * beta * (1 - FEAS_RTOL), noise=instance.noise)
    parts = [sorted(sub) for group in fit(range(len(ids))) for sub in fit(reversed(group))]
    decomposition = Decomposition(tuple(tuple(ids[k] for k in part) for part in parts), c)
    for positions, part in zip(parts, decomposition.parts):
        cert = check_admissible(instance, part, cap=INF, thresholds=c * beta[positions])
        if not cert.feasible:
            raise CertificationError(f"decomposition part {part} failed certification at scale {c}")
    return decomposition


def reversed_instance(instance: Instance, ids: Optional[Sequence[int]] = None) -> Instance:
    """Fragment with each link's sender and receiver swapped."""
    links = instance.links if ids is None else [instance.link(lid) for lid in ids]
    return Instance(
        metric=instance.metric,
        alpha=instance.alpha,
        noise=instance.noise,
        p_max=instance.p_max,
        links=tuple(replace(link, sender=link.receiver, receiver=link.sender) for link in links),
        allow_sub_unit_threshold=True,
    )


def markov_survivors(
    instance: Instance,
    admissible_set: Sequence[int],
    witness_powers: Mapping[int, float],
) -> tuple[int, ...]:
    """Links whose dual interference is at most twice their dual signal.

    Dual powers are the thresholds times d^alpha over the witness powers;
    an averaging argument guarantees at least half the set survives.
    """
    ids = sorted(admissible_set)
    if not ids:
        return ()
    beta, geo, p = _witness(instance, ids, witness_powers)
    dual = beta * geo.d_alpha / p
    with np.errstate(divide="ignore"):
        received = dual * (1.0 / geo.cross_alpha)  # [k, j]: from dual sender j at receiver k
    np.fill_diagonal(received, 0.0)
    # accumulate adds a row's terms one at a time, in id order, whatever the
    # Python version; the own term added is +0.0, which changes no sum
    interference = np.add.accumulate(received, axis=1)[:, -1]
    keep = beta * interference <= 2.0 * (dual / geo.d_alpha) * (1 + 1e-12)
    return tuple(lid for lid, ok in zip(ids, keep.tolist()) if ok)


def reverse_dual(
    instance: Instance,
    admissible_set: Sequence[int],
    witness_powers: Mapping[int, float],
) -> tuple[tuple[int, ...], Instance]:
    """Select at least |L|/72 links whose reversed copies form an admissible
    set at the original thresholds; returns (subset, reversed fragment).

    The Markov filter keeps links with dual interference at most twice the
    dual signal (at least half); the reversed survivors, admissible at a
    third of the thresholds by the exact oracle, are strengthened by
    a factor 3 and the largest resulting part is returned.
    """
    ids = sorted(admissible_set)
    if not ids:
        raise ValueError("empty input set")
    survivors = list(markov_survivors(instance, ids, witness_powers))
    fragment = reversed_instance(instance, ids)
    third = dict(zip(ids, (thresholds_for(instance, ids) / 3.0).tolist()))
    cert = check_admissible(fragment, survivors, cap=INF, thresholds=third)
    if not cert.feasible:
        raise CertificationError("reversed survivor set failed the third-threshold certification")
    decomposition = strengthen(fragment, survivors, cert.powers, c=3.0, thresholds=third)
    best = max(decomposition.parts, key=len)
    return best, fragment


def _reversed_entries(k: int) -> list[tuple]:
    """The k reversed unit links, sender near 1 and receiver near 0, at
    threshold 1/k; endpoints are spread by PERTURB to keep distances
    positive."""
    return [(1.0 + i * PERTURB, -i * PERTURB, 1 / k) for i in range(1, k + 1)]


def gen_greedy_adversary(k: int, alpha: float = 2.0) -> Instance:
    """Line instance on which any greedy selection loses a factor k.

    One forward link of unit length comes first in the processing order
    (smallest sensitivity); the k reversed links that follow are mutually
    compatible at threshold 1/k but each conflicts fatally with the forward
    link.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = [(0.0, 1.0, 1 / k)] + _reversed_entries(k)
    return gen_line(entries, alpha=alpha, noise=NOISE, allow_sub_unit=True)


def aloha_instance(k: int) -> Instance:
    """k forward and k reversed unit links between (about) 0 and 1."""
    forward = [(i * PERTURB, 1.0 - i * PERTURB, 1 / k) for i in range(k)]
    return gen_line(forward + _reversed_entries(k), noise=NOISE, allow_sub_unit=True)


@dataclass(frozen=True)
class AlohaResult:
    """Per-trial rounds until k/2 successes, plus the fast-finish rate."""

    k: int
    trials: int
    seed: int
    rounds: tuple
    threshold_rounds: float
    fraction_fast: float


def simulate_aloha(
    k: int,
    probs: Union[str, Sequence[float]] = "uniform",
    trials: int = 1,
    seed: int = 0,
    max_rounds: int = 10_000,
) -> AlohaResult:
    """Random-access simulation on the two-direction adversary instance.

    Every remaining sender transmits each round with the round's probability
    (the "uniform" policy uses 2/(k+2) throughout); a transmission succeeds
    when its SINR among that round's transmitters reaches the threshold, and
    successful senders drop out. A trial records the round in which total
    successes reach k/2 (inf if never within max_rounds). fraction_fast is
    the empirical probability of finishing within k/16 rounds.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be an even integer >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if probs != "uniform":
        probs = [float(p) for p in probs]
        if not probs or any(not (0.0 <= p <= 1.0) for p in probs):
            raise ValueError("transmit probabilities must lie in [0, 1]")

    instance = aloha_instance(k)
    ids = list(instance.link_ids)
    cross_alpha = geometry(instance, ids).cross_alpha
    beta = 1.0 / k
    uniform_p = 2.0 / (k + 2)
    target = k // 2
    noise = instance.noise

    results = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        remaining = np.ones(len(ids), dtype=bool)
        successes = 0
        finish: float = INF
        for t in range(1, max_rounds + 1):
            p_t = uniform_p if probs == "uniform" else probs[min(t - 1, len(probs) - 1)]
            transmit = remaining & (rng.random(len(ids)) < p_t)
            if not transmit.any():
                continue
            tx = np.flatnonzero(transmit)
            # every transmitter sends at unit power
            sinr = sinr_vector(cross_alpha[np.ix_(tx, tx)], np.ones(tx.size), noise)
            winners = tx[sinr >= beta * (1 - FEAS_RTOL)]
            if winners.size:
                remaining[winners] = False
                successes += int(winners.size)
            if successes >= target:
                finish = float(t)
                break
        results.append(finish)

    threshold_rounds = k / 16.0
    fast = sum(1 for r in results if r <= threshold_rounds) / trials
    return AlohaResult(k, trials, seed, tuple(results), threshold_rounds, fast)
