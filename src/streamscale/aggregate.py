"""Aggregation of a link stream into a series of snapshot graphs.

The study period [0, T) is cut into K disjoint windows of equal length
delta = T/K and each window's events collapse into one static edge set.
Window membership is decided in exact integer arithmetic
(event t belongs to snapshot floor(t*K/T) + 1), so delta may be a
non-integer number of resolution units without any rounding drift.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = ["GraphSeries", "aggregate", "delta_grid"]


class GraphSeries:
    """K deduplicated snapshots of a link stream, in CSR-like flat arrays.

    Edges are stored once in canonical orientation (``ek``, ``eu``, ``ev``
    sorted by (k, u, v); u < v when undirected) and once symmetrized per
    direction for path sweeps (``sk``, ``su``, ``sv``). Snapshot k covers
    events with (k-1)*delta <= t < k*delta, k = 1..K; empty snapshots are
    represented implicitly.
    """

    def __init__(self, ek, eu, ev, *, snapshot_count, node_count, horizon,
                 resolution=1, directed=False):
        self.snapshot_count = int(snapshot_count)
        self.node_count = int(node_count)
        self.horizon = int(horizon)
        self.resolution = int(resolution)
        self.directed = bool(directed)
        if not 1 <= self.snapshot_count < 1 << 31:
            raise ValueError("snapshot_count must be in [1, 2^31)")

        ek = np.asarray(ek, dtype=np.int64)
        eu = np.asarray(eu, dtype=np.int64)
        ev = np.asarray(ev, dtype=np.int64)
        if not directed:
            lo, hi = np.minimum(eu, ev), np.maximum(eu, ev)
            eu, ev = lo, hi
        order = np.lexsort((ev, eu, ek))
        ek, eu, ev = ek[order], eu[order], ev[order]
        if ek.size:
            keep = np.ones(ek.size, dtype=bool)
            keep[1:] = (ek[1:] != ek[:-1]) | (eu[1:] != eu[:-1]) | (ev[1:] != ev[:-1])
            ek, eu, ev = ek[keep], eu[keep], ev[keep]
            if np.any(eu == ev):
                raise ValueError("self-loop edge present")
            if ek.min() < 1 or ek.max() > self.snapshot_count:
                raise ValueError("snapshot index out of range")
        self.ek, self.eu, self.ev = ek, eu, ev
        self.total_edges = int(ek.size)

        # symmetrized per-direction copy, sorted by (k, source, target)
        if directed:
            sk, su, sv = ek, eu, ev
        else:
            sk = np.concatenate([ek, ek])
            su = np.concatenate([eu, ev])
            sv = np.concatenate([ev, eu])
            order = np.lexsort((sv, su, sk))
            sk, su, sv = sk[order], su[order], sv[order]
        self.sk, self.su, self.sv = sk, su, sv

        # offsets of the non-empty snapshots into both layouts
        self._e_snap, self._e_start = np.unique(ek, return_index=True)
        self._e_start = np.append(self._e_start, ek.size)
        self._s_snap, self._s_start = np.unique(sk, return_index=True)
        self._s_start = np.append(self._s_start, sk.size)

    @property
    def delta(self):
        """Exact window length horizon/K, in resolution units."""
        return Fraction(self.horizon, self.snapshot_count)

    @property
    def delta_seconds(self):
        return self.horizon * self.resolution / self.snapshot_count

    @property
    def nonempty_snapshots(self):
        return self._e_snap

    def edge_counts(self):
        """(snapshot ids, edge counts) for the non-empty snapshots."""
        return self._e_snap, np.diff(self._e_start)

    def edges(self, k):
        """Edge arrays (u, v) of snapshot k, canonical orientation."""
        i = np.searchsorted(self._e_snap, k)
        if i == len(self._e_snap) or self._e_snap[i] != k:
            return (np.empty(0, dtype=np.int64),) * 2
        lo, hi = self._e_start[i], self._e_start[i + 1]
        return self.eu[lo:hi], self.ev[lo:hi]

    def edge_set(self, k):
        u, v = self.edges(k)
        return set(zip(u.tolist(), v.tolist()))

    @classmethod
    def from_snapshots(cls, snapshots, *, node_count=None, directed=False,
                       horizon=None, resolution=1):
        """Build a small series from explicit per-snapshot edge lists."""
        ks, us, vs = [], [], []
        max_node = -1
        for k, edges in enumerate(snapshots, start=1):
            for u, v in edges:
                ks.append(k)
                us.append(int(u))
                vs.append(int(v))
                max_node = max(max_node, u, v)
        if node_count is None:
            node_count = max_node + 1
        count = len(snapshots)
        if horizon is None:
            horizon = count
        return cls(ks, us, vs, snapshot_count=count, node_count=node_count,
                   horizon=horizon, resolution=resolution, directed=directed)

    def __repr__(self):
        return (f"GraphSeries(K={self.snapshot_count}, n={self.node_count}, "
                f"M={self.total_edges}, delta={float(self.delta):g})")


def aggregate(stream, K):
    """Aggregate a stream into a :class:`GraphSeries` with K windows.

    Event (u, v, t) lands in snapshot floor(t*K/horizon) + 1; multiple
    events of one pair inside a window collapse to a single edge.
    """
    K = int(K)
    if not 1 <= K <= stream.horizon:
        raise ValueError(f"K must be in [1, {stream.horizon}], got {K}")
    k = (stream.t * K) // stream.horizon + 1
    return GraphSeries(k, stream.u, stream.v,
                       snapshot_count=K,
                       node_count=stream.node_count,
                       horizon=stream.horizon,
                       resolution=stream.resolution,
                       directed=stream.directed)


def delta_grid(stream, points):
    """Log-spaced aggregation grid from the resolution up to the horizon.

    ``points`` window lengths are targeted log-uniformly in
    [resolution, horizon] and converted to window counts
    K = round(horizon/delta); duplicates collapse and both endpoints
    (K = 1 and K = horizon, one window per resolution step) are always
    present. Returns the window counts as a strictly decreasing tuple.
    """
    points = int(points)
    if points < 2:
        raise ValueError("points must be >= 2")
    h = stream.horizon
    targets = np.exp(np.linspace(0.0, np.log(h), points))
    ks = np.rint(h / targets).astype(np.int64)
    ks = np.clip(ks, 1, h)
    ks = np.unique(np.concatenate([ks, [1, h]]))[::-1]
    return tuple(int(k) for k in ks)
