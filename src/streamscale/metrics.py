"""Spread metrics of occupancy-rate distributions and saturation-scale selection.

All distributions here live on (0, 1]. The reference of maximal spread is
the uniform density, whose inverse cumulative distribution (ICD) is the
line 1 - lambda. Every integral below is evaluated in closed form segment
by segment over the step ICD of the empirical distribution; there is no
quadrature and no binning except in the slotted Shannon entropy, where
the slot count is the metric's own parameter.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "icd_points",
    "mk_distance",
    "mk_proximity",
    "std_dev",
    "variation_coeff",
    "shannon_entropy",
    "cre",
    "select_gamma",
    "compute_metrics",
    "METRIC_IDS",
]

METRIC_IDS = ("mk", "stddev", "cv", "shannon", "cre")


def _rate_arrays(dist):
    """Exact reduced rates (p, q), weights and float values, value-sorted."""
    if dist.total == 0:
        raise ValueError("empty occupancy distribution")
    return dist.reduced_rate_arrays()


def _icd_steps(dist):
    """Segment bounds and tail probabilities of the step ICD.

    Segment i spans [bounds[i], bounds[i+1]) and carries the constant
    value tails[i] = P(X >= rate_i); to the right of the largest rate the
    ICD is 0.
    """
    _, _, weights, rates = _rate_arrays(dist)
    total = weights.sum()
    tails = np.cumsum(weights[::-1])[::-1] / total
    bounds = np.concatenate([[0.0], rates])
    return bounds, tails


def icd_points(dist):
    """(lambda, P(X > lambda)) rows at 0, every distinct rate, and 1."""
    lams, tails = _icd_steps(dist)
    # right-continuous: at lambda = r_i the mass at r_i is already out
    vals = np.concatenate([[1.0], tails[1:], [0.0]])
    if lams[-1] != 1.0:
        lams = np.append(lams, 1.0)
        vals = np.append(vals, 0.0)
    return lams, vals


def mk_distance(dist):
    """Area between the ICD and the uniform-density reference 1 - lambda.

    integral over [0,1] of |P(X > lam) - (1 - lam)|, each step segment
    integrated analytically with a split at its interior zero crossing.
    Always in [0, 1/2].
    """
    bounds, tails = _icd_steps(dist)
    a = bounds[:-1]
    b = bounds[1:]
    c = tails

    def antideriv(x, c):
        return (c - 1.0) * x + 0.5 * x * x

    x0 = 1.0 - c
    fa = antideriv(a, c)
    fb = antideriv(b, c)
    f0 = antideriv(np.clip(x0, a, b), c)
    # negative part on [a, x0], positive on [x0, b]; clipping covers both
    # one-sided cases
    total = float(np.sum(fa + fb - 2.0 * f0))
    # terminal segment [max rate, 1] where the ICD is 0
    vm = bounds[-1]
    total += 0.5 * (1.0 - vm) ** 2
    return total


def mk_proximity(dist):
    """1/2 - mk_distance: maximal for the uniform density reference."""
    return 0.5 - mk_distance(dist)


def std_dev(dist):
    """Population standard deviation of the rate multiset."""
    _, _, weights, rates = _rate_arrays(dist)
    total = weights.sum()
    mean = float(np.dot(weights, rates)) / total
    var = float(np.dot(weights, (rates - mean) ** 2)) / total
    return math.sqrt(max(var, 0.0))


def variation_coeff(dist):
    """sigma / mu; the mean is positive since all rates are."""
    _, _, weights, rates = _rate_arrays(dist)
    total = weights.sum()
    mean = float(np.dot(weights, rates)) / total
    return std_dev(dist) / mean


def shannon_entropy(dist, slots=10):
    """Shannon entropy (natural log) of the rate distribution slotted on [0,1].

    Slot i covers ((i-1)/slots, i/slots]; a rate p/q belongs to slot
    ceil(p*slots/q), computed exactly, so a rate sitting on a boundary
    goes to the lower slot (upper-inclusive convention; occ = 1 is slot
    ``slots``). 0*log(0) counts as 0.
    """
    slots = int(slots)
    if slots < 2:
        raise ValueError("slots must be >= 2")
    p, q, weights, _ = _rate_arrays(dist)
    idx = (p * slots + q - 1) // q  # exact ceil(p*slots/q)
    masses = np.zeros(slots + 1, dtype=np.int64)
    np.add.at(masses, idx, weights)  # exact; int / int below rounds once
    masses = np.array([m / dist.total for m in masses.tolist() if m])
    return float(-np.sum(masses * np.log(masses)))


def cre(dist):
    """Cumulative residual entropy -integral P(X>lam) ln P(X>lam) d lam."""
    bounds, tails = _icd_steps(dist)
    widths = np.diff(bounds)
    pos = tails > 0.0
    return float(-np.sum(widths[pos] * tails[pos] * np.log(tails[pos])))


def select_gamma(entries):
    """Grid point (K, delta_seconds) maximizing the score.

    ``entries`` are (K, delta_seconds, score) triples; exact score ties
    resolve toward the smaller window length (larger K).
    """
    entries = list(entries)
    if not entries:
        raise ValueError("empty metric curve")
    ordered = sorted(entries, key=lambda e: (e[1], -e[0]))
    best = ordered[0]
    for e in ordered[1:]:
        if e[2] > best[2]:
            best = e
    return best[0], best[1]


def compute_metrics(dist, shannon_slots=10):
    """All five selection scores of one distribution, keyed by metric id."""
    return {
        "mk": mk_proximity(dist),
        "stddev": std_dev(dist),
        "cv": variation_coeff(dist),
        f"shannon:{shannon_slots}": shannon_entropy(dist, shannon_slots),
        "cre": cre(dist),
    }
