"""Loss measures of an aggregation: destroyed transitions and trip elongation.

Two complementary quantifications of what a window length destroys:

* the share of the stream's shortest transitions (two-hop minimal trips)
  whose events fall inside one window, losing their ordering;
* the elongation factor of the series' minimal trips, comparing each
  trip's absolute duration against the fastest stream realization inside
  the same absolute window.

Both run through the minimal-trip DP of :mod:`streamscale.reach`. The raw
stream is its own series at K = horizon: snapshot k holds instant k-1,
and links at one instant cannot chain, just as links in one snapshot
cannot. One DP pass over that series yields the stream's minimal trips;
its two-hop ones are the shortest transitions, and the trips of the
sampled pairs give the fastest realizations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .aggregate import aggregate
from .reach import scan_minimal_trips

__all__ = [
    "TransitionSet",
    "ElongationResult",
    "LossReport",
    "enumerate_shortest_transitions",
    "lost_fraction",
    "mean_elongation",
    "run_validation",
]

_EMPTY = np.empty(0, dtype=np.int64)


def _sym_events(stream):
    """(t, src, dst) int64 arrays sorted by t; both directions if undirected."""
    t = stream.t.astype(np.int64)
    u = stream.u.astype(np.int64)
    v = stream.v.astype(np.int64)
    if stream.directed:
        return t, u, v
    tt = np.concatenate([t, t])
    ss = np.concatenate([u, v])
    dd = np.concatenate([v, u])
    order = np.lexsort((dd, ss, tt))
    return tt[order], ss[order], dd[order]


def _contains(sorted_keys, queries):
    """Boolean mask: which queries occur in a sorted key array."""
    if sorted_keys.size == 0:
        return np.zeros(queries.size, dtype=bool)
    i = np.searchsorted(sorted_keys, queries)
    return sorted_keys[np.minimum(i, sorted_keys.size - 1)] == queries


def _range_min(values, lo, hi):
    """min(values[lo[i]:hi[i]]) per query, every slice non-empty.

    One ``minimum.reduceat`` over the interleaved bounds: the slices
    between consecutive queries, sorted by start, add at most
    ``values.size`` elements of work.
    """
    order = np.argsort(lo, kind="stable")
    bounds = np.empty(2 * lo.size, dtype=np.int64)
    bounds[0::2] = lo[order]
    bounds[1::2] = hi[order]
    padded = np.append(values, values[:1])  # hi may equal values.size
    out = np.empty(lo.size, dtype=values.dtype)
    out[order] = np.minimum.reduceat(padded, bounds)[0::2]
    return out


@dataclass
class TransitionSet:
    """Shortest transitions (a, b, c, t1, t2) of a stream, as flat arrays."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    def __len__(self):
        return int(self.a.size)

    def as_tuples(self):
        return set(zip(self.a.tolist(), self.b.tolist(), self.c.tolist(),
                       self.t1.tolist(), self.t2.tolist()))


def _expand_transitions(stream, a, c, t1, t2):
    """Shortest transitions of the stream's two-hop minimal trips.

    A two-hop minimal trip (a, c, t1, t2) yields one transition per
    middle node b with events (a, b, t1) and (b, c, t2): the candidates
    are the out-events of a at t1, kept when b is an in-neighbor of c at
    t2.
    """
    t, s, d = _sym_events(stream)
    h = stream.horizon
    n = stream.node_count
    # out-events grouped by (source, instant), targets ascending inside
    out_key = s * h + t
    order = np.argsort(out_key, kind="stable")
    out_key, out_dst = out_key[order], d[order]
    lo = np.searchsorted(out_key, a * h + t1, side="left")
    cnt = np.searchsorted(out_key, a * h + t1, side="right") - lo
    first = np.cumsum(cnt) - cnt
    trip = np.repeat(np.arange(a.size), cnt)
    b = out_dst[np.repeat(lo - first, cnt) + np.arange(trip.size)]
    a, c, t1, t2 = a[trip], c[trip], t1[trip], t2[trip]
    # in-events as (rank of (target, instant), source) keys; the last hop
    # of every trip is an event into c at t2, so its rank is found
    groups, group_of = np.unique(d * h + t, return_inverse=True)
    in_key = np.sort(group_of * n + s)
    ok = _contains(in_key, np.searchsorted(groups, c * h + t2) * n + b)
    a, b, c, t1, t2 = a[ok], b[ok], c[ok], t1[ok], t2[ok]
    order = np.lexsort((t2, t1, c, b, a))
    return TransitionSet(a[order], b[order], c[order], t1[order], t2[order])


class _PairTrips:
    """Minimal trips of chosen pairs, in instants, by pair then departure.

    A pair's minimal trips form an antichain: departures and arrivals
    both increase strictly. The trips inside an absolute window are
    therefore one slice, found by two binary searches.
    """

    def __init__(self, u, v, dep, arr, node_count, horizon):
        self._n = node_count
        self._span = horizon + 1
        key = u * node_count + v
        order = np.lexsort((dep, key))
        self.pairs, rank = np.unique(key[order], return_inverse=True)
        dep, arr = dep[order], arr[order]
        self._dep_key = rank * self._span + dep
        self._arr_key = rank * self._span + arr
        self._duration = arr - dep

    def window_durations(self, u, v, t_lo, t_hi):
        """Shortest t_arr - t_dep of a minimal trip u -> v with
        t_lo <= t_dep and t_arr <= t_hi, per query; -1 when there is none."""
        key = u * self._n + v
        base = np.searchsorted(self.pairs, key) * self._span
        lo = np.searchsorted(self._dep_key, base + t_lo, side="left")
        hi = np.searchsorted(self._arr_key, base + t_hi, side="right")
        ok = _contains(self.pairs, key) & (lo < hi)
        out = np.full(u.size, -1, dtype=np.int64)
        out[ok] = _range_min(self._duration, lo[ok], hi[ok])
        return out


def _stream_pass(stream, pair_keys=_EMPTY, transitions=True):
    """One DP pass over the stream at instant resolution.

    Returns (transitions, two-hop trip count, _PairTrips): the two-hop
    minimal trips expanded into shortest transitions when ``transitions``
    is set (every destination is swept, None otherwise), and the minimal
    trips of the pairs u*n + v in ``pair_keys`` (only their destinations
    are swept otherwise).
    """
    n = stream.node_count
    pair_keys = np.unique(np.asarray(pair_keys, dtype=np.int64))
    hop2 = [(_EMPTY,) * 4]
    kept = [(_EMPTY,) * 4]

    def sink(u, v, dep, arr, hops):
        if transitions:
            two = hops == 2
            hop2.append((u[two], v[two], dep[two], arr[two]))
        hit = _contains(pair_keys, u * n + v)
        kept.append((u[hit], v[hit], dep[hit], arr[hit]))

    if transitions or pair_keys.size:
        scan_minimal_trips(aggregate(stream, stream.horizon), sink,
                           None if transitions else pair_keys % n)
    # series snapshot k holds instant k - 1
    a, c, k1, k2 = (np.concatenate(x) for x in zip(*hop2))
    found = (_expand_transitions(stream, a, c, k1 - 1, k2 - 1)
             if transitions else None)
    u, v, dep, arr = (np.concatenate(x) for x in zip(*kept))
    return found, int(a.size), _PairTrips(u, v, dep - 1, arr - 1, n,
                                          stream.horizon)


def enumerate_shortest_transitions(stream):
    """All shortest transitions ((a,b,t1),(b,c,t2)) of the stream.

    A shortest transition is a two-hop minimal trip (a, c, t1, t2) of
    the stream together with a middle node b realizing it; trips with
    a == c are not trips of this analysis. The minimal trips come from
    one DP pass over the stream at instant resolution, whose hop count
    is 2 exactly for the trips realized by two events.
    """
    return _stream_pass(stream)[0]


def lost_fraction(stream, K, transitions=None):
    """Share of shortest transitions falling inside one window at this K.

    NaN (undefined) when the stream has no shortest transition at all.
    """
    K = int(K)
    if not 1 <= K <= stream.horizon:
        raise ValueError(f"K must be in [1, {stream.horizon}], got {K}")
    if transitions is None:
        transitions = enumerate_shortest_transitions(stream)
    if len(transitions) == 0:
        return float("nan")
    h = stream.horizon
    same = (transitions.t1 * K) // h == (transitions.t2 * K) // h
    return float(same.mean())


_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xC2B2AE3D27D4EB4F)
_M3 = np.uint64(0x165667B19E3779F9)
_M4 = np.uint64(0x27D4EB2F165667C5)


def _mix64(x):
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _sample_threshold(max_samples, eligible):
    """Hash threshold keeping about ``max_samples`` of ``eligible`` trips;
    None keeps them all. Non-increasing in ``eligible``."""
    if eligible <= max_samples:
        return None
    return min(2**64 - 1, int(max_samples / eligible * 2.0**64))


class _TripSampler:
    """Order-independent seeded subsample of eligible minimal trips.

    A trip is eligible when it spans more than one snapshot, and is kept
    when a hash of its identity falls under the threshold of the final
    eligible count, so the sample does not depend on the emission order
    of the sweep. Until that count is known, trips are filtered by the
    threshold of the count so far, which only falls as the count grows:
    nothing of the final sample is dropped, and about 2*max_samples
    trips are held at most. ``finish`` sets ``trips`` (u, v, dep, arr),
    sorted, and ``sampled``.
    """

    def __init__(self, max_samples, seed):
        self.max_samples = int(max_samples)
        if self.max_samples < 0:
            raise ValueError("max_samples must be >= 0")
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.eligible = 0
        self._kept = (_EMPTY,) * 4
        self._hash = np.empty(0, dtype=np.uint64)

    def __call__(self, u, v, dep, arr, hops):
        eligible = arr > dep
        u, v, dep, arr = u[eligible], v[eligible], dep[eligible], arr[eligible]
        self.eligible += int(u.size)
        with np.errstate(over="ignore"):  # wraparound is the hash
            key = (u.astype(np.uint64) * _M1
                   ^ v.astype(np.uint64) * _M2
                   ^ dep.astype(np.uint64) * _M3
                   ^ arr.astype(np.uint64) * _M4)
            hashed = _mix64(key ^ self.seed)
        self._kept = tuple(np.concatenate([old, new]) for old, new
                           in zip(self._kept, (u, v, dep, arr)))
        self._hash = np.concatenate([self._hash, hashed])
        if self._hash.size > 2 * self.max_samples:
            self._keep_below(_sample_threshold(self.max_samples, self.eligible))

    def _keep_below(self, threshold):
        if threshold is not None:
            keep = self._hash < np.uint64(threshold)
            self._kept = tuple(x[keep] for x in self._kept)
            self._hash = self._hash[keep]

    def finish(self):
        threshold = _sample_threshold(self.max_samples, self.eligible)
        self._keep_below(threshold)
        order = np.lexsort(self._kept[::-1])
        self.trips = tuple(x[order] for x in self._kept)
        self.sampled = threshold is not None
        return self


def _sample_trips(series, max_samples, seed):
    """The finished sampler of a series' eligible trips, from one DP run."""
    sampler = _TripSampler(max_samples, seed)
    scan_minimal_trips(series, sampler)
    return sampler.finish()


@dataclass
class ElongationResult:
    mean: float
    samples: int
    eligible: int
    sampled: bool


@dataclass
class LossReport:
    snapshot_count: int
    delta_seconds: float
    total_shortest_transitions: int
    lost_fraction: float
    mean_elongation: float
    elongation_samples: int


def _elongation(stream, K, sample, pair_trips):
    """Mean elongation factor of the sampled trips of the series at K."""
    u, v, dep, arr = sample.trips
    if u.size == 0:
        return ElongationResult(float("nan"), 0, sample.eligible, sample.sampled)
    h = stream.horizon
    win_lo = -((-(dep - 1) * h) // K)          # ceil((dep-1)*h/K)
    win_hi = -((-arr * h) // K) - 1            # last instant before arr*h/K
    durations = pair_trips.window_durations(u, v, win_lo, win_hi)
    if np.any(durations < 1):
        raise AssertionError("series minimal trip without a stream realization "
                             "in its absolute window")
    span = arr - dep + 1
    # e >= 1 exactly: span*h/K >= duration  <=>  span*h >= K*duration
    if np.any(span * h < K * durations):
        raise AssertionError("elongation factor below 1")
    factors = span * h / (K * durations.astype(np.float64))
    return ElongationResult(float(factors.mean()), int(u.size), sample.eligible,
                            sample.sampled)


def mean_elongation(stream, series, *, max_samples=100_000, seed=0):
    """Mean elongation factor of the series' minimal trips.

    For a minimal trip (u, v, t_u, t_v) of the series with t_u != t_v,
    the factor is (t_v - t_u + 1)*delta divided by the fastest stream
    realization u -> v whose departure and arrival both lie in the
    absolute window [(t_u-1)*delta, t_v*delta). Every factor is checked
    to be >= 1 in exact arithmetic. When more than ``max_samples`` trips
    are eligible, a seeded order-independent subsample of about
    ``max_samples`` trips is scored instead (flagged in the result).
    """
    sample = _sample_trips(series, max_samples, seed)
    u, v = sample.trips[:2]
    _, _, pair_trips = _stream_pass(stream, u * stream.node_count + v,
                                    transitions=False)
    return _elongation(stream, series.snapshot_count, sample, pair_trips)


def run_validation(stream, ks, *, max_samples=100_000, seed=0, log=None):
    """Loss reports at each window count in ``ks``.

    Runs one series DP per K, which samples the trips to score, then one
    stream pass shared by all K for the transitions and the fastest
    realizations. ``log``, when given, receives one progress line per DP.
    """
    log = log or (lambda msg: None)
    n = stream.node_count
    samples = []
    for K in ks:
        start = time.perf_counter()
        series = aggregate(stream, K)
        sample = _sample_trips(series, max_samples, seed)
        samples.append((int(K), series.delta_seconds, sample))
        log(f"K={K}: series DP {time.perf_counter() - start:.2f}s, "
            f"{sample.eligible} eligible trips, {sample.trips[0].size} scored"
            + (" (subsample)" if sample.sampled else ""))
    start = time.perf_counter()
    pair_keys = np.concatenate(
        [_EMPTY] + [s.trips[0] * n + s.trips[1] for _, _, s in samples])
    transitions, hop2, pair_trips = _stream_pass(stream, pair_keys)
    log(f"stream pass {time.perf_counter() - start:.2f}s: {hop2} two-hop "
        f"trips, {len(transitions)} shortest transitions, "
        f"{pair_trips.pairs.size} indexed pairs")
    rows = []
    for K, delta_seconds, sample in samples:
        elong = _elongation(stream, K, sample, pair_trips)
        rows.append(LossReport(
            snapshot_count=K,
            delta_seconds=delta_seconds,
            total_shortest_transitions=len(transitions),
            lost_fraction=lost_fraction(stream, K, transitions),
            mean_elongation=elong.mean,
            elongation_samples=elong.samples,
        ))
    return rows
