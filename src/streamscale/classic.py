"""Classical per-snapshot statistics of an aggregated series.

These are the baseline quantities that drift smoothly and monotonically
with the window length (density, connectedness, temporal distances) and
therefore cannot reveal a saturation scale on their own; they are
computed for comparison against the occupancy signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ClassicStats", "snapshot_stats", "classic_stats"]


@dataclass
class ClassicStats:
    mean_density: float
    mean_degree: float
    mean_largest_cc: float
    mean_non_isolated: float
    mean_d_time: float
    mean_d_hops: float
    mean_d_time_abs: float
    finite_pair_fraction: float


def _component_labels(a, b, count):
    """Smallest vertex id of each vertex's component, for the undirected
    graph on ``count`` vertices with edges (a[i], b[i])."""
    label, prev = np.arange(count), None
    while not np.array_equal(label, prev):
        prev = label.copy()  # every label is a root: hook onto smaller roots
        np.minimum.at(label, prev[a], prev[b])
        np.minimum.at(label, prev[b], prev[a])
        jumped = label[label]
        while not np.array_equal(jumped, label):  # pointer jumping
            label, jumped = jumped, jumped[jumped]
    return label


def snapshot_stats(series):
    """Mean density, degree, largest component and non-isolated count.

    Densities use n(n-1)/2 (undirected) or n(n-1) (directed) as the
    denominator; the mean degree is density*(n-1). Components are taken
    weakly (edge direction ignored). Snapshots without any edge
    contribute density 0, a largest component of one node and zero
    non-isolated nodes. Averages run over all K snapshots.

    One vector pass over all snapshots: every active (snapshot, node) is
    one vertex, and the components of the union of all snapshot graphs
    are those of the snapshots.
    """
    n = series.node_count
    K = series.snapshot_count
    pair_count = n * (n - 1) if series.directed else n * (n - 1) // 2

    # edges per non-empty snapshot; the density terms add up left to right,
    # since a pairwise or compensated sum can change the last digit
    edges = np.diff(series._s_start) // (1 if series.directed else 2)
    sum_density = float(np.cumsum(np.r_[0.0, edges / pair_count])[-1])

    m = series.sk.size
    cells = series.sk * n
    verts, ends = np.unique(np.r_[cells + series.su, cells + series.sv],
                            return_inverse=True)
    label = _component_labels(ends[:m], ends[m:], verts.size)
    comp_size = np.bincount(label, minlength=verts.size)[label]
    snap = verts // n
    first = np.flatnonzero(np.diff(snap, prepend=-1))
    sum_cc = int(np.maximum.reduceat(comp_size, first).sum())
    sum_cc += (K - first.size) * (1 if n >= 1 else 0)

    mean_density = sum_density / K
    return (mean_density, mean_density * (n - 1), sum_cc / K,
            verts.size / K)


def classic_stats(series, aggregates):
    """:func:`snapshot_stats` of ``series`` with the mean temporal distances
    of ``aggregates``, the :class:`~streamscale.reach.DistanceAggregates`
    that :func:`~streamscale.reach.minimal_trip_sweep` returns for it."""
    return ClassicStats(*snapshot_stats(series), aggregates.mean_d_time,
                        aggregates.mean_d_hops, aggregates.mean_d_time_abs,
                        aggregates.finite_pair_fraction)
