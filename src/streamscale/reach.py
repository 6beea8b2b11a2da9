"""Minimal trips, occupancy rates and temporal distances of a graph series.

The core is a dynamic program that walks the non-empty snapshots
backward, keeping for every pair (u, v) the earliest arrival EA and the
fewest hops H of the trips departing no earlier: packed into one int64
key EA*(K+2) + H, "earliest, then fewest hops" is a plain minimum, and
a snapshot is one numpy step over all its sources, O(edges *
destinations) work, O(n*M) over a sweep. A minimal trip (u, v, k,
EA_k(u, v)) is emitted exactly when the arrival strictly improves
(EA_{k+1} > EA_k): a strictly included interval would need a later
departure arriving no later, or the same departure arriving earlier,
and EA is minimal. Trips with u == v are never emitted. Distance sums
come from running totals of the finite keys' arrivals and hops, counted
once per departure snapshot the state holds for.
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
# a merge with all it holds
_CHUNK = 1 << 16
# elements of every per-snapshot temporary of the DP, about: rows of
# out-neighbors gathered at once, and rows compared, emitted and summed
_BLOCK_ELEMENTS = 1 << 16
# keep per-block DP state (one int64 key per cell) under ~190 MB
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

    Sums run over all ordered pairs (u, v) of distinct nodes and all
    departure snapshots k with finite earliest arrival. d_time(u, v, k) is
    the earliest arrival snapshot minus k plus one, d_hops the fewest hops
    among the paths that arrive then; the means run over these finite
    triples, and ``finite_pair_fraction`` is their share of all of them.
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
    chunk = max(1, (1 << 62) // (int(np.abs(a).max()) + 1))
    if chunk >= a.size:
        return int(a.sum(dtype=np.int64))
    return sum(int(a[i:i + chunk].sum(dtype=np.int64))
               for i in range(0, a.size, chunk))


class _TripChunks:
    """The DP's blocks of trips, handed to ``trip_sink`` as flat int64
    arrays (u, v, dep, arr, hops) of one length, about ``_CHUNK`` trips
    per call; ``flush`` hands over the rest."""

    def __init__(self, trip_sink, width):
        self._sink = trip_sink
        self._cap = max(_CHUNK, width)  # width: the most trips of one add
        self._new()

    def _new(self):
        self._bufs = np.empty((5, self._cap), dtype=np.int64)
        self._size = 0

    def add(self, u, v, dep, arr, hops):
        if self._size + v.size > self._cap:
            self.flush()
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
            self._bufs = None  # freed before the next buffer, unless kept
            self._new()


class _OccupancyFold:
    """Trip sink folding (hops, duration) keys into exact sorted counts:
    holds each chunk's distinct keys and merges all it holds once that is
    twice what the last merge left; ``result`` merges the rest."""

    def __init__(self, snapshot_count):
        self._mult = np.int64(snapshot_count + 1)
        self._parts = [(np.empty(0, dtype=np.int64),) * 2]
        self._merged = 0

    def __call__(self, u, v, dep, arr, hops):
        self._parts.append(np.unique(hops * self._mult + arr - dep + 1,
                                     return_counts=True))
        if sum(p[0].size for p in self._parts) > 2 * self._merged:
            self._parts = [self.result()]
            self._merged = self._parts[0][0].size

    def result(self):
        """(keys, counts): sorted distinct packed keys and their counts."""
        return _keyed_sum(*(np.concatenate(x) for x in zip(*self._parts)))


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

    The state is one int64 key per (node, column), ``ea*B + hops`` with
    B = K+2, and ``(K+1)*B`` where nothing is reachable. A non-empty
    snapshot k is one vector step: the out-neighbors' rows reduced per
    source by ``minimum.reduceat``, plus one hop, the direct edges
    (``k*B + 1``) and the diagonal reset, then the minimum with the
    sources' own rows, written back after all of them read the k+1
    state. A key only falls, and a lower arrival emits a minimal trip.

    Hands every trip to ``trip_sink`` in flat chunks and returns None.
    Without ``trip_sink``, an :class:`_OccupancyFold` takes the trips and
    (packed keys, counts, sum_d_time, sum_d_hops, finite_triples) is
    returned, exact: each changed block updates running totals over the
    finite keys, added once per departure their state holds for.
    """
    n, K, C = series.node_count, series.snapshot_count, cols.size
    B = K + 2
    sentinel = (K + 1) * B  # below 2^63 for K < 2^31
    key = np.full((n, C), sentinel, dtype=np.int64)
    summarize = trip_sink is None
    colmap = np.full(n, -1, dtype=np.int64)
    colmap[cols] = np.arange(C)
    step = max(1, _BLOCK_ELEMENTS // C)  # edges per gather, rows per block
    fold = _OccupancyFold(K) if summarize else None
    chunks = _TripChunks(fold or trip_sink, step * C)
    ea_sum = hop_sum = finite = 0  # arrivals, hops, count of finite keys
    sums = [0, 0, 0]  # sum_d_time, sum_d_hops, finite_triples

    # offsets into the (k, source)-sorted edges, computed once: a group is
    # one source of one snapshot, rows are numbered within the snapshot
    su, sv, e_off = series.su, series.sv, series._s_start
    first = np.flatnonzero(np.diff(series.sk, prepend=-1) | np.diff(su, prepend=-1))
    g_src = su[first]
    g_off = np.searchsorted(first, e_off)
    g_snap = np.repeat(np.arange(g_off.size - 1), np.diff(g_off))
    g_local = first - e_off[g_snap]
    g_row = np.arange(first.size) - g_off[g_snap]
    hit = colmap[sv] >= 0  # direct edges into the swept columns
    d_row = np.repeat(g_row, np.diff(np.r_[first, su.size]))[hit]
    d_col, d_off = colmap[sv[hit]], np.r_[0, np.cumsum(hit)][e_off]
    hit = colmap[g_src] >= 0  # sources whose own column is swept
    z_row, z_col = g_row[hit], colmap[g_src[hit]]
    z_off = np.r_[0, np.cumsum(hit)][g_off]

    snaps, e_off, g_off, d_off, z_off = (
        x.tolist() for x in (series._s_snap, e_off, g_off, d_off, z_off))
    for i in range(len(snaps) - 1, -1, -1):
        k = snaps[i]
        dst = sv[e_off[i]:e_off[i + 1]]
        sources = g_src[g_off[i]:g_off[i + 1]]
        starts = g_local[g_off[i]:g_off[i + 1]]
        if dst.size <= step:  # one gather, the common case
            new = key[dst]
            if sources.size < dst.size:
                new = np.minimum.reduceat(new, starts, axis=0)
        else:  # gather the out-neighbors' rows ``step`` at a time
            new = np.full((sources.size, C), sentinel, dtype=np.int64)
            for lo in range(0, dst.size, step):
                r0 = int(starts.searchsorted(lo, "right")) - 1
                r1 = int(starts.searchsorted(lo + step))
                seg = starts[r0:r1] - lo
                seg[0] = 0
                part = np.minimum.reduceat(key[dst[lo:lo + step]], seg, axis=0)
                np.minimum(new[r0:r1], part, out=new[r0:r1])
        new += 1
        # both writes commute with the minimum against the old rows: a
        # direct edge beats every later arrival, old diagonals are sentinels
        new[d_row[d_off[i]:d_off[i + 1]], d_col[d_off[i]:d_off[i + 1]]] = k * B + 1
        new[z_row[z_off[i]:z_off[i + 1]], z_col[z_off[i]:z_off[i + 1]]] = sentinel

        for r0 in range(0, sources.size, step):  # blocks of rows
            rows = sources[r0:r0 + step]
            old = key[rows].reshape(-1)
            cur = new[r0:r0 + step].reshape(-1)
            np.minimum(cur, old, out=cur)
            ch = (cur < old).nonzero()[0]
            if ch.size == 0:
                continue
            was, now = old[ch], cur[ch]
            arr, wa = now // B, was // B
            if summarize:  # a sentinel reads as arrival K+1 with 0 hops
                # each block sum stays below (block elements)*(K+1) < 2^63
                born = int(np.count_nonzero(was == sentinel))
                ea_sum += int((arr - wa).sum()) + (K + 1) * born
                hop_sum += int((now - arr * B).sum()) - int((was - wa * B).sum())
                finite += born
            em = (arr < wa).nonzero()[0]
            if em.size:
                q, c = np.divmod(ch[em], C)
                chunks.add(rows[q], cols[c], k, arr[em], now[em] - arr[em] * B)
        key[sources] = new
        if summarize:  # this state holds for departures prev+1..k
            prev = snaps[i - 1] if i else 0
            span = k - prev
            sums[0] += span * ea_sum - finite * (prev + k - 1) * span // 2
            sums[1] += span * hop_sum
            sums[2] += span * finite

    chunks.flush()
    return (*fold.result(), *sums) if summarize else None


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
    keys, counts, sdt, sdh, fin = zip(*(
        _sweep_columns(series, b)
        for b in _column_blocks(n, np.arange(n, dtype=np.int64))))
    agg = DistanceAggregates(sum(sdt), sum(sdh), sum(fin), pair_count=n * (n - 1),
                             snapshot_count=series.snapshot_count,
                             delta_seconds=series.delta_seconds)
    keys, counts = np.concatenate(keys), np.concatenate(counts)
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
