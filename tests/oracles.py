"""Brute-force reference implementations used to check the fast paths.

Everything here enumerates temporal walks outright (strictly increasing
snapshot indices in a series, strictly increasing timestamps in a
stream) and applies definitions literally; nothing is shared with the
code under test.
"""

from collections import defaultdict
from fractions import Fraction

import numpy as np


def icd(dist, lam):
    """P(X > lam) in exact arithmetic: the share of trips whose occupancy
    hops/duration is strictly above lam."""
    h, d, c = dist.arrays()
    if dist.total == 0:
        raise ValueError("empty occupancy distribution")
    lam = Fraction(lam)
    above = sum(cc for hh, dd, cc in zip(h.tolist(), d.tolist(), c.tolist())
                if Fraction(hh, dd) > lam)
    return Fraction(above, dist.total)


def quad_icd(dist, integrand):
    """Adaptive quadrature of integrand(icd(lam), lam) over [0, 1].

    Independent cross-check of the closed-form metric integrals: the ICD
    is evaluated pointwise and scipy's adaptive quadrature integrates it
    segment by segment.
    """
    from scipy.integrate import quad
    from streamscale.metrics import _icd_steps

    bounds, tails = _icd_steps(dist)

    def f(lam):
        i = np.searchsorted(bounds, lam, side="right") - 1
        p = tails[i] if i < len(tails) else 0.0
        return integrand(p, lam)

    cuts = list(bounds) + [1.0]
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        if b > a:
            total += quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    return total


def uniform_rate_distribution(n):
    """Discrete uniform on {1/n, ..., n/n}: the finite stand-in for the
    uniform density reference, approaching it at rate 1/n."""
    from streamscale.reach import OccupancyDistribution

    return OccupancyDistribution(np.arange(1, n + 1), np.full(n, n))


def series_walks(snapshots, directed):
    """All temporal walks of a small series.

    ``snapshots`` is a list of edge collections (1-based snapshot k is
    snapshots[k-1]). Yields (u, v, dep, arr, hops) for every walk.
    """
    by_k = {}
    for k, edges in enumerate(snapshots, start=1):
        out = []
        for u, v in edges:
            out.append((u, v))
            if not directed:
                out.append((v, u))
        by_k[k] = out
    K = len(snapshots)
    walks = []

    def extend(start, cur, dep, last_k, hops):
        walks.append((start, cur, dep, last_k, hops))
        for k in range(last_k + 1, K + 1):
            for x, y in by_k.get(k, ()):
                if x == cur:
                    extend(start, y, dep, k, hops + 1)

    for k in range(1, K + 1):
        for x, y in by_k.get(k, ()):
            extend(x, y, k, k, 1)
    return walks


def stream_walks(events, directed):
    """All temporal walks of a small stream given as (u, v, t) triples."""
    by_t = defaultdict(list)
    for u, v, t in events:
        by_t[t].append((u, v))
        if not directed:
            by_t[t].append((v, u))
    times = sorted(by_t)
    walks = []

    def extend(start, cur, dep, last_t, hops):
        walks.append((start, cur, dep, last_t, hops))
        for t in times:
            if t <= last_t:
                continue
            for x, y in by_t[t]:
                if x == cur:
                    extend(start, y, dep, t, hops + 1)

    for t in times:
        for x, y in by_t[t]:
            extend(x, y, t, t, 1)
    return walks


def minimal_trips_from_walks(walks):
    """Inclusion-minimal realized intervals per ordered pair, with min hops.

    Returns {(u, v): {(dep, arr): min_hops}} for u != v; an interval is
    kept when no other realized interval of the pair is strictly included
    in it.
    """
    realized = defaultdict(dict)
    for u, v, dep, arr, hops in walks:
        if u == v:
            continue
        cur = realized[(u, v)].get((dep, arr))
        if cur is None or hops < cur:
            realized[(u, v)][(dep, arr)] = hops
    out = {}
    for pair, intervals in realized.items():
        keep = {}
        for (dep, arr), hops in intervals.items():
            minimal = True
            for (d2, a2) in intervals:
                if (d2, a2) != (dep, arr) and d2 >= dep and a2 <= arr:
                    minimal = False
                    break
            if minimal:
                keep[(dep, arr)] = hops
        out[pair] = keep
    return out


def series_minimal_trips(snapshots, directed):
    """Set of (u, v, dep, arr, hops) minimal trips of a small series."""
    trips = minimal_trips_from_walks(series_walks(snapshots, directed))
    return {(u, v, dep, arr, hops)
            for (u, v), intervals in trips.items()
            for (dep, arr), hops in intervals.items()}


def stream_minimal_trips(events, directed):
    """Set of (u, v, dep, arr) minimal trips of a small stream."""
    trips = minimal_trips_from_walks(stream_walks(events, directed))
    return {(u, v, dep, arr)
            for (u, v), intervals in trips.items()
            for (dep, arr) in intervals}


def series_distance_sums(snapshots, node_count, directed):
    """Naive (sum_d_time, sum_d_hops, finite_triples) over all (u, v, k).

    d_time(u, v, k) is the minimal arrival among walks departing at k or
    later, minus k, plus one; d_hops is the minimum hop count among the
    walks realizing that arrival.
    """
    K = len(snapshots)
    walks = series_walks(snapshots, directed)
    by_pair = defaultdict(list)
    for u, v, dep, arr, hops in walks:
        if u != v:
            by_pair[(u, v)].append((dep, arr, hops))
    sum_d_time = 0
    sum_d_hops = 0
    finite = 0
    for u in range(node_count):
        for v in range(node_count):
            if u == v:
                continue
            options = by_pair.get((u, v), ())
            for k in range(1, K + 1):
                arrs = [a for d, a, h in options if d >= k]
                if not arrs:
                    continue
                ea = min(arrs)
                best_h = min(h for d, a, h in options if d >= k and a == ea)
                sum_d_time += ea - k + 1
                sum_d_hops += best_h
                finite += 1
    return sum_d_time, sum_d_hops, finite


def stream_shortest_transitions(events, directed):
    """Brute-force shortest transitions of a small stream.

    All event pairs sharing a middle node with t1 < t2 are candidates;
    each survives iff (a, c, t1, t2) is an inclusion-minimal trip of the
    stream and a != c.
    """
    sym = []
    for u, v, t in events:
        sym.append((u, v, t))
        if not directed:
            sym.append((v, u, t))
    minimal = stream_minimal_trips(events, directed)
    out = set()
    for a, b, t1 in sym:
        for b2, c, t2 in sym:
            if b2 != b or t2 <= t1 or c == a:
                continue
            if (a, c, t1, t2) in minimal:
                out.add((a, b, c, t1, t2))
    return out


def stream_earliest_arrival(stream, u, window, v):
    """Fastest trip from u to v inside a time window of the raw stream.

    Scans the window's events backward over distinct timestamps (links at
    equal times cannot chain) and returns the (t_dep, t_arr) pair of a
    stream minimal trip with the smallest duration t_arr - t_dep, with
    both endpoints inside [t_lo, t_hi]; ties resolve to the earliest
    departure. Returns None when no such trip exists.
    """
    u = int(u)
    v = int(v)
    if u == v:
        raise ValueError("u and v must differ")
    t_lo, t_hi = int(window[0]), int(window[1])
    if t_lo > t_hi:
        raise ValueError("empty window")
    ts = stream.t
    lo = int(np.searchsorted(ts, t_lo, side="left"))
    hi = int(np.searchsorted(ts, t_hi, side="right"))
    if stream.directed:
        events = [(int(ts[i]), int(stream.u[i]), int(stream.v[i]))
                  for i in range(lo, hi)]
    else:
        events = []
        for i in range(lo, hi):
            t, a, b = int(ts[i]), int(stream.u[i]), int(stream.v[i])
            events.append((t, a, b))
            events.append((t, b, a))

    arrival = {}
    best = None
    i = len(events) - 1
    while i >= 0:
        t = events[i][0]
        group_updates = {}
        while i >= 0 and events[i][0] == t:
            _, x, y = events[i]
            arr = t if y == v else arrival.get(y)
            if arr is not None:
                if x == u and (best is None or arr - t < best[1] - best[0]
                               or (arr - t == best[1] - best[0] and t < best[0])):
                    best = (t, arr)
                prev = group_updates.get(x, arrival.get(x))
                if prev is None or arr < prev:
                    group_updates[x] = arr
            i -= 1
        arrival.update(group_updates)
    return best
