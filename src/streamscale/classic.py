"""Classical per-snapshot statistics of an aggregated series.

These are the baseline quantities that drift smoothly and monotonically
with the window length (density, connectedness, temporal distances) and
therefore cannot reveal a saturation scale on their own; they are
computed for comparison against the occupancy signal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .reach import minimal_trip_sweep

__all__ = ["ClassicStats", "snapshot_stats", "distance_stats", "classic_stats"]


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


class _UnionFind(dict):
    """Union-find over the active nodes of one snapshot, tracking sizes."""

    def __init__(self):
        super().__init__()
        self.size = {}

    def find(self, x):
        if x not in self:
            self[x] = x
            self.size[x] = 1
            return x
        root = x
        while self[root] != root:
            root = self[root]
        while self[x] != root:
            self[x], x = root, self[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self[rb] = ra
        self.size[ra] += self.size[rb]


def snapshot_stats(series):
    """Mean density, degree, largest component and non-isolated count.

    Densities use n(n-1)/2 (undirected) or n(n-1) (directed) as the
    denominator; the mean degree is density*(n-1). Components are taken
    weakly (edge direction ignored). Snapshots without any edge
    contribute density 0, a largest component of one node and zero
    non-isolated nodes. Averages run over all K snapshots.
    """
    n = series.node_count
    K = series.snapshot_count
    pair_count = n * (n - 1) if series.directed else n * (n - 1) // 2

    snaps, counts = series.edge_counts()
    sum_density = 0.0
    sum_cc = 0.0
    sum_non_isolated = 0.0
    for k, m_k in zip(snaps.tolist(), counts.tolist()):
        u, v = series.edges(int(k))
        uf = _UnionFind()
        for a, b in zip(u.tolist(), v.tolist()):
            uf.union(a, b)
        sum_density += m_k / pair_count
        sum_cc += max(uf.size.values())
        sum_non_isolated += len(uf)
    empty = K - len(snaps)
    sum_cc += empty * (1 if n >= 1 else 0)

    mean_density = sum_density / K
    return (mean_density, mean_density * (n - 1), sum_cc / K,
            sum_non_isolated / K)


def distance_stats(series, *, aggregates=None):
    """Mean temporal distances over all ordered pairs and departures.

    d_time(u, v, k) is the earliest arrival snapshot minus k plus one,
    d_hops the minimum hop count among arrival-optimal paths; only finite
    triples enter the means, and their share is reported as
    ``finite_pair_fraction``. Pass ``aggregates`` from an earlier sweep
    to avoid recomputing.
    """
    if aggregates is None:
        _, aggregates = minimal_trip_sweep(series)
    return (aggregates.mean_d_time, aggregates.mean_d_hops,
            aggregates.mean_d_time_abs, aggregates.finite_pair_fraction)


def classic_stats(series, *, aggregates=None):
    """Bundle of :func:`snapshot_stats` and :func:`distance_stats`."""
    density, degree, cc, non_iso = snapshot_stats(series)
    d_time, d_hops, d_abs, finite = distance_stats(series, aggregates=aggregates)
    return ClassicStats(density, degree, cc, non_iso,
                        d_time, d_hops, d_abs, finite)
