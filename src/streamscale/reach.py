"""Minimal trips, occupancy rates and temporal distances of a graph series.

The core is a dynamic program that walks the snapshots backward: knowing
the earliest arrival EA_{k+1}(u, v) and the minimum hop count
H_{k+1}(u, v) of all trips departing not before snapshot k+1, snapshot
k's edges update both in O(edges * destinations) work, giving O(n*M)
total over a sweep. A minimal trip (u, v, k, EA_k(u, v)) is emitted
exactly when the arrival strictly improves (EA_{k+1} > EA_k): a strictly
included interval would require either a later departure with the same
or earlier arrival, or an equal departure with an earlier arrival, and
the latter is impossible by minimality of EA.

Trips with u == v are never emitted; they carry no propagation meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "OccupancyDistribution",
    "DistanceAggregates",
    "minimal_trip_sweep",
    "scan_minimal_trips",
]

# trips per trip-sink call, about; every call costs the occupancy fold
# and the elongation sampler a merge with all they hold
_CHUNK = 1 << 16
# keep per-block DP state (3 arrays) under ~300 MB
_MAX_STATE_ELEMENTS = 24_000_000


class OccupancyDistribution:
    """Multiset of occupancy rates, kept as exact (hops, duration) keys.

    Built once from parallel arrays of hops, durations and counts (one
    each when ``counts`` is None); repeated keys are summed exactly and
    the result is never mutated. Stored as sorted parallel arrays so that
    distributions with millions of distinct keys stay cheap to reduce.
    Durations must fit 31 bits (they are snapshot counts).
    """

    def __init__(self, hops=(), durations=(), counts=None):
        h = np.asarray(hops, dtype=np.int64)
        d = np.asarray(durations, dtype=np.int64)
        c = (np.ones(h.shape, dtype=np.int64) if counts is None
             else np.asarray(counts, dtype=np.int64))
        if h.ndim != 1 or not h.shape == d.shape == c.shape:
            raise ValueError("hops, durations and counts must be 1-d arrays "
                             "of one length")
        bad = np.flatnonzero((h < 1) | (h > d))
        if bad.size:
            raise ValueError(f"need 1 <= hops <= duration, got "
                             f"({h[bad[0]]}, {d[bad[0]]})")
        if d.size and d.max() >= 1 << 31:
            raise ValueError("duration does not fit 31 bits")
        keys, self._c = _keyed_sum((h << np.int64(31)) | d, c)
        self._h = keys >> np.int64(31)
        self._d = keys & np.int64((1 << 31) - 1)
        self.total = _exact_sum(self._c)

    def arrays(self):
        """(hops, duration, count) arrays sorted by (hops, duration)."""
        return self._h, self._d, self._c

    def items(self):
        """Sorted ((hops, duration), count) pairs; avoid on huge supports."""
        h, d, c = self.arrays()
        return [((int(hh), int(dd)), int(cc))
                for hh, dd, cc in zip(h.tolist(), d.tolist(), c.tolist())]

    def reduced_rate_arrays(self):
        """(p, q, weight, value) arrays of distinct reduced rates p/q,
        strictly sorted by exact value.

        The float sort is exact here: distinct reduced rationals with
        denominators below 2^31 stay distinguishable, which a cross-
        multiplication check verifies (exact fallback otherwise).
        """
        h, d, c = self.arrays()
        g = np.gcd(h, d)
        p = h // g
        q = d // g
        uniq, w = _keyed_sum((p << np.int64(31)) | q, c)
        p = uniq >> np.int64(31)
        q = uniq & np.int64((1 << 31) - 1)
        val = p / q
        order = np.argsort(val, kind="stable")
        p, q, w, val = p[order], q[order], w[order], val[order]
        if p.size > 1 and not np.all(p[:-1] * q[1:] < p[1:] * q[:-1]):
            exact = sorted(range(p.size), key=lambda i: Fraction(int(p[i]), int(q[i])))
            idx = np.array(exact)
            p, q, w, val = p[idx], q[idx], w[idx], val[idx]
        return p, q, w, val

    def __len__(self):
        return int(self.arrays()[0].size)

    def __eq__(self, other):
        if not isinstance(other, OccupancyDistribution):
            return NotImplemented
        h1, d1, c1 = self.arrays()
        h2, d2, c2 = other.arrays()
        return (np.array_equal(h1, h2) and np.array_equal(d1, d2)
                and np.array_equal(c1, c2))

    def __repr__(self):
        return f"OccupancyDistribution(keys={len(self)}, total={self.total})"


@dataclass
class DistanceAggregates:
    """Exact integer accumulators for the distance curves.

    Sums run over all ordered pairs (u, v), v in the swept sink set,
    u != v, and all departure snapshots k with finite earliest arrival.
    """

    sum_d_time: int = 0
    sum_d_hops: int = 0
    finite_triples: int = 0
    pair_count: int = 0
    snapshot_count: int = 0
    delta_seconds: float = 0.0

    @property
    def mean_d_time(self):
        if self.finite_triples == 0:
            return float("nan")
        return self.sum_d_time / self.finite_triples

    @property
    def mean_d_hops(self):
        if self.finite_triples == 0:
            return float("nan")
        return self.sum_d_hops / self.finite_triples

    @property
    def mean_d_time_abs(self):
        return self.delta_seconds * self.mean_d_time

    @property
    def finite_pair_fraction(self):
        denom = self.pair_count * self.snapshot_count
        if denom == 0:
            return float("nan")
        return self.finite_triples / denom


def _exact_sum(a):
    """Sum an int64 array into a Python int without overflow."""
    if a.size == 0:
        return 0
    m = int(np.abs(a).max())
    if m == 0:
        return 0
    chunk = max(1, (1 << 62) // (m + 1))
    if chunk >= a.size:
        return int(a.sum(dtype=np.int64))
    return sum(int(a[i:i + chunk].sum(dtype=np.int64))
               for i in range(0, a.size, chunk))


class _TripChunks:
    """The DP's rows of trips, handed to ``trip_sink`` as flat int64
    arrays (u, v, dep, arr, hops) of one length, about ``_CHUNK`` trips
    per call; ``flush`` hands over the rest."""

    def __init__(self, trip_sink, width):
        self._sink = trip_sink
        self._width = width  # a row holds at most one trip per column
        self._new()

    def _new(self):
        self._bufs = np.empty((5, _CHUNK + self._width), dtype=np.int64)
        self._size = 0

    def add(self, u, v, dep, arr, hops):
        lo = self._size
        self._size = hi = lo + v.size
        b = self._bufs
        b[0, lo:hi] = u
        b[1, lo:hi] = v
        b[2, lo:hi] = dep
        b[3, lo:hi] = arr
        b[4, lo:hi] = hops
        if hi >= _CHUNK:
            self.flush()

    def flush(self):
        if self._size:
            self._sink(*self._bufs[:, :self._size])
            self._new()


class _OccupancyFold:
    """Trip sink folding (hops, duration) keys into exact sorted counts."""

    def __init__(self, snapshot_count):
        self._mult = np.int64(snapshot_count + 1)
        self.keys = self.counts = np.empty(0, dtype=np.int64)

    def __call__(self, u, v, dep, arr, hops):
        # unique first: the merge then sorts two sorted runs
        keys, counts = np.unique(hops * self._mult + arr - dep + 1,
                                 return_counts=True)
        self.keys, self.counts = _keyed_sum(np.concatenate([self.keys, keys]),
                                            np.concatenate([self.counts, counts]))


def _keyed_sum(keys, counts):
    """Distinct keys, sorted, with the exact int64 sum of each key's counts."""
    if keys.size == 0:
        return keys, counts
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[first], np.add.reduceat(counts[order], first)


def _sweep_columns(series, cols, trip_sink=None):
    """Backward DP over one block of destination columns.

    Hands every trip to ``trip_sink`` in flat chunks and returns None.
    Without ``trip_sink``, an :class:`_OccupancyFold` takes the trips and
    (packed keys, counts, sum_d_time, sum_d_hops, finite_triples) is
    returned, with exact integer sums.
    """
    n = series.node_count
    K = series.snapshot_count
    dtype = np.int32 if K + 1 < np.iinfo(np.int32).max else np.int64
    sentinel = dtype(K + 1)
    # never survives a minimum: at least one option always attains new_ea
    hop_inf = dtype(np.iinfo(dtype).max)
    C = cols.size

    ea = np.full((n, C), sentinel, dtype=dtype)
    hp = np.zeros((n, C), dtype=dtype)
    run_end = np.full((n, C), K, dtype=dtype)

    colmap = np.full(n, -1, dtype=np.int64)
    colmap[cols] = np.arange(C)

    fold = _OccupancyFold(K) if trip_sink is None else None
    chunks = _TripChunks(fold or trip_sink, C)
    sum_d_time = 0
    sum_d_hops = 0
    finite_triples = 0

    snaps = series._s_snap
    starts = series._s_start
    su, sv = series.su, series.sv

    for i in range(len(snaps) - 1, -1, -1):
        k = int(snaps[i])
        lo, hi = starts[i], starts[i + 1]
        src = su[lo:hi]
        dst = sv[lo:hi]
        sources, g_start = np.unique(src, return_index=True)
        g_end = np.append(g_start[1:], src.size)

        # pass 1: compute every updated row from the k+1 state
        updates = []
        for s_idx in range(sources.size):
            u = int(sources[s_idx])
            targets = dst[g_start[s_idx]:g_end[s_idx]]
            old_ea = ea[u]
            old_hp = hp[u]
            if targets.size == 1:
                w = int(targets[0])
                relay_ea = ea[w]
                relay_hp = hp[w] + dtype(1)
            else:
                rows_ea = ea[targets]
                relay_ea = rows_ea.min(axis=0)
                relay_hp = np.where(rows_ea == relay_ea, hp[targets],
                                    hop_inf).min(axis=0) + dtype(1)
            new_ea = np.minimum(old_ea, relay_ea)
            new_hp = np.where(old_ea == new_ea, old_hp, hop_inf)
            np.minimum(new_hp, np.where(relay_ea == new_ea, relay_hp, hop_inf),
                       out=new_hp)
            tcols = colmap[targets]
            tcols = tcols[tcols >= 0]
            if tcols.size:
                new_ea[tcols] = dtype(k)
                new_hp[tcols] = dtype(1)
            diag = colmap[u]
            if diag >= 0:
                new_ea[diag] = sentinel
                new_hp[diag] = dtype(0)
            updates.append((u, new_ea, new_hp))

        # pass 2: close runs, emit improvements, write the k state
        for u, new_ea, new_hp in updates:
            old_ea = ea[u]
            if trip_sink is None:
                old_hp = hp[u]
                changed = (new_ea != old_ea) | (new_hp != old_hp)
                ch = np.nonzero(changed)[0]
                if ch.size == 0:
                    continue
                old_ea_ch = old_ea[ch].astype(np.int64)
                fin = old_ea_ch != int(sentinel)
                if fin.any():
                    a = old_ea_ch[fin]
                    h = old_hp[ch][fin].astype(np.int64)
                    r = run_end[u][ch][fin].astype(np.int64)
                    cnt = r - k
                    sum_d_time += _exact_sum(cnt * (2 * (a + 1) - (k + 1 + r)) // 2)
                    sum_d_hops += _exact_sum(cnt * h)
                    finite_triples += _exact_sum(cnt)
                run_end[u][ch] = dtype(k)
                improved = ch[new_ea[ch].astype(np.int64) < old_ea_ch]
            else:
                improved = np.nonzero(new_ea < old_ea)[0]
            if improved.size:
                chunks.add(u, cols[improved], k, new_ea[improved],
                           new_hp[improved])
            ea[u] = new_ea
            hp[u] = new_hp

    chunks.flush()
    if trip_sink is not None:
        return None
    # flush the final runs: the last state holds for departures 1..run_end
    for u in range(n):
        row_ea = ea[u].astype(np.int64)
        fin = np.nonzero(row_ea != int(sentinel))[0]
        if fin.size == 0:
            continue
        a = row_ea[fin]
        h = hp[u][fin].astype(np.int64)
        r = run_end[u][fin].astype(np.int64)
        sum_d_time += _exact_sum(r * (2 * (a + 1) - (1 + r)) // 2)
        sum_d_hops += _exact_sum(r * h)
        finite_triples += _exact_sum(r)

    return fold.keys, fold.counts, sum_d_time, sum_d_hops, finite_triples


def _column_blocks(n, cols):
    """Destination blocks, as few as keep the DP state within
    ``_MAX_STATE_ELEMENTS``: every extra block walks every snapshot again."""
    return np.array_split(cols, -(-cols.size // max(1, _MAX_STATE_ELEMENTS // n)))


def _sink_columns(n, sinks):
    if sinks is None:
        return np.arange(n, dtype=np.int64)
    cols = np.unique(np.asarray(list(sinks), dtype=np.int64))
    if cols.size == 0:
        raise ValueError("sinks must be non-empty")
    if cols.min() < 0 or cols.max() >= n:
        raise ValueError("sink ids out of range")
    return cols


def minimal_trip_sweep(series):
    """All minimal trips of a series, as occupancy and distance aggregates.

    Runs the backward DP toward every destination. Destination columns
    are independent, so they are swept in blocks, split only to bound the
    state memory, whose partials merge exactly: the result does not
    depend on the block layout. :func:`scan_minimal_trips` yields the
    trips themselves.

    Returns (OccupancyDistribution, DistanceAggregates).
    """
    n = series.node_count
    results = [_sweep_columns(series, b)
               for b in _column_blocks(n, np.arange(n, dtype=np.int64))]

    agg = DistanceAggregates(pair_count=n * (n - 1),
                             snapshot_count=series.snapshot_count,
                             delta_seconds=series.delta_seconds)
    for _, _, sdt, sdh, fin in results:
        agg.sum_d_time += sdt
        agg.sum_d_hops += sdh
        agg.finite_triples += fin
    keys = np.concatenate([r[0] for r in results])
    counts = np.concatenate([r[1] for r in results])
    mult = series.snapshot_count + 1
    return OccupancyDistribution(keys // mult, keys % mult, counts), agg


def scan_minimal_trips(series, trip_sink, sinks=None):
    """Feed every minimal trip toward ``sinks`` (all nodes by default) to
    ``trip_sink(u, v, dep, arr, hops)``, keep nothing.

    Trip i of a call departs from node u[i] in snapshot dep[i] and
    reaches node v[i] in snapshot arr[i] over hops[i] links. The five
    arguments are flat int64 arrays of one length, many trips per call
    in no particular order; the sink may keep them. This is the
    DP of :func:`minimal_trip_sweep` without its products: no occupancy
    distribution and no distance sums, for callers that want the trips
    themselves.
    """
    cols = _sink_columns(series.node_count, sinks)
    for block in _column_blocks(series.node_count, cols):
        _sweep_columns(series, block, trip_sink)
