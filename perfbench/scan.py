"""Earliest-arrival scan of an aggregated series, in plain Python.

An independent recomputation of what the program's minimal-trip DP
reports: the number of minimal trips and the exact temporal-distance
sums behind the classic ``d_time``, ``d_hops`` and ``finite_frac``.
For each destination v it walks the snapshots from last to first,
keeping per node the earliest arrival at v (then the fewest hops) over
trips departing at or after the current snapshot; links of one snapshot
cannot chain. A minimal trip is counted whenever a node's earliest
arrival strictly improves. It is checked against the brute force of
``tests/oracles.py`` by :func:`self_check`.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path


def series_from_events(events, K, horizon):
    """Snapshot edge lists (1-based: snapshots[k-1]) of (u, v, t) events
    with t in [0, horizon): event t lands in snapshot t*K//horizon + 1."""
    snapshots = [set() for _ in range(K)]
    for u, v, t in events:
        snapshots[t * K // horizon].add((u, v))
    return [sorted(s) for s in snapshots]


def scan(snapshots, n, directed):
    """(trip_count, sum_d_time, sum_d_hops, finite_triples) of a series.

    d_time(u, v, k) counts snapshots from k to the earliest arrival,
    inclusive; the sums run over u != v and every departure snapshot k
    with a finite earliest arrival.
    """
    out_edges = []
    for edges in snapshots:
        arcs = set(edges)
        if not directed:
            arcs |= {(b, a) for a, b in edges}
        out_edges.append(sorted(arcs))
    K = len(snapshots)
    trips = sum_time = sum_hops = finite = 0
    for v in range(n):
        ea = [None] * n
        hops = [0] * n
        for k in range(K, 0, -1):
            best = {}
            for x, w in out_edges[k - 1]:
                if x == v:
                    continue
                if w == v:
                    cand = (k, 1)
                elif ea[w] is not None:
                    cand = (ea[w], hops[w] + 1)
                else:
                    continue
                if x not in best or cand < best[x]:
                    best[x] = cand
            for x, (a, h) in best.items():
                if ea[x] is None or a < ea[x]:
                    trips += 1
                    ea[x], hops[x] = a, h
                elif a == ea[x] and h < hops[x]:
                    hops[x] = h
            for x in range(n):
                if ea[x] is not None:
                    sum_time += ea[x] - k + 1
                    sum_hops += hops[x]
                    finite += 1
    return trips, sum_time, sum_hops, finite


def self_check(root, seed, count=200):
    """Compare :func:`scan` with the brute-force oracles on small random
    series; raises AssertionError on the first difference."""
    sys.path.insert(0, str(Path(root) / "tests"))
    try:
        import oracles
    finally:
        sys.path.pop(0)
    rng = random.Random(f"scan-self-check/{seed}")
    for i in range(count):
        n = rng.randint(2, 6)
        K = rng.randint(1, 8)
        directed = rng.random() < 0.5
        snapshots = [set() for _ in range(K)]
        for _ in range(rng.randint(1, 12)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if not directed:
                u, v = min(u, v), max(u, v)
            snapshots[rng.randrange(K)].add((u, v))
        snapshots = [sorted(s) for s in snapshots]
        trips, sum_time, sum_hops, finite = scan(snapshots, n, directed)
        want_trips = len(oracles.series_minimal_trips(snapshots, directed))
        want_sums = oracles.series_distance_sums(snapshots, n, directed)
        if (trips, (sum_time, sum_hops, finite)) != (want_trips, tuple(want_sums)):
            raise AssertionError(
                f"scan differs from the brute force on random series {i}: "
                f"{(trips, sum_time, sum_hops, finite)} != "
                f"{(want_trips, *want_sums)}")
