import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from streamscale import reach
from streamscale.aggregate import GraphSeries, aggregate
from streamscale.reach import OccupancyDistribution, minimal_trip_sweep
from streamscale.stream import LinkStream

from conftest import collect_trips, random_series, random_stream, scan_trips
from oracles import (series_distance_sums, series_minimal_trips,
                     stream_earliest_arrival)


def test_single_edge_mid_series():
    # one edge in snapshot 2 of K=3: only the one-snapshot interval is
    # minimal ([2,2] is strictly included in anything wider)
    g = GraphSeries.from_snapshots([[], [(0, 1)], []], directed=False)
    trips, dist, agg = collect_trips(g)
    assert trips == {(0, 1, 2, 2, 1), (1, 0, 2, 2, 1)}
    assert dist.items() == [((1, 1), 2)]
    assert (agg.sum_d_time, agg.sum_d_hops, agg.finite_triples) == (6, 4, 4)


def test_relay_chain_example():
    # G1={ab}, G2={bc}, G3={ac}: a->c minimal trips are (1,2) on two hops
    # and (3,3) direct; (2,3) is not minimal because [3,3] is inside [2,3]
    g = GraphSeries.from_snapshots([[(0, 1)], [(1, 2)], [(0, 2)]], directed=False)
    trips = scan_trips(g)
    ac = {t for t in trips if t[0] == 0 and t[1] == 2}
    assert ac == {(0, 2, 1, 2, 2), (0, 2, 3, 3, 1)}
    assert not any(t[:4] == (0, 2, 2, 3) for t in trips)


def test_k1_all_trips_single_link():
    g = GraphSeries.from_snapshots([[(0, 1), (1, 2), (0, 3)]], directed=False)
    trips, dist, agg = collect_trips(g)
    assert all(dep == arr == 1 and h == 1 for _, _, dep, arr, h in trips)
    assert len(trips) == 6
    assert dist.items() == [((1, 1), 6)]
    assert agg.mean_d_time == 1.0 and agg.mean_d_hops == 1.0


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        series, snapshots, n, K, directed = random_series(rng)
        trips, dist, agg = collect_trips(series)
        expected = series_minimal_trips(snapshots, directed)
        assert trips == expected
        # the distribution is exactly the (hops, duration) multiset
        multiset = {}
        for _, _, dep, arr, h in expected:
            multiset[(h, arr - dep + 1)] = multiset.get((h, arr - dep + 1), 0) + 1
        assert dict(dist.items()) == multiset
        # distance sums match the naive triple loop
        assert (agg.sum_d_time, agg.sum_d_hops, agg.finite_triples) == \
            series_distance_sums(snapshots, n, directed)


def test_emitted_trip_properties():
    rng = np.random.default_rng(99)
    for _ in range(60):
        series, _, _, _, _ = random_series(rng, max_n=6, max_k=8, max_edges=14)
        trips, dist, _ = collect_trips(series)
        per_pair = {}
        for u, v, dep, arr, h in trips:
            assert u != v
            assert dep <= arr
            dur = arr - dep + 1
            assert 1 <= h <= dur
            assert Fraction(h, dur) <= 1
            if dur == 1:
                assert h == 1
            per_pair.setdefault((u, v), []).append((dep, arr))
        # anti-chain: intervals of one pair are incomparable and arrivals
        # increase strictly with departures
        for intervals in per_pair.values():
            intervals.sort()
            for (d1, a1), (d2, a2) in zip(intervals, intervals[1:]):
                assert d1 < d2 and a1 < a2


def test_sink_subset_restricts_destinations():
    g = GraphSeries.from_snapshots([[(0, 1)], [(1, 2)]], directed=True)
    trips = scan_trips(g, sinks=[2])
    assert trips == {(0, 2, 1, 2, 2), (1, 2, 2, 2, 1)}


def test_column_blocks_merge_exactly(monkeypatch):
    # the DP splits columns only by its memory budget; shrink the budget
    # so that every series runs in at least three blocks, the chunk so
    # that every block of trips reaches the sink, and the occupancy fold,
    # alone, and the per-snapshot bound so that gathers and row blocks
    # split too
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(30):
        series, _, n, _, _ = random_series(rng, max_n=9, max_k=8, max_edges=20)
        if n < 5:
            continue
        whole = collect_trips(series)
        with monkeypatch.context() as m:
            m.setattr(reach, "_MAX_STATE_ELEMENTS", 2 * n)
            m.setattr(reach, "_CHUNK", 1)
            m.setattr(reach, "_BLOCK_ELEMENTS", 4)
            assert len(reach._column_blocks(n, np.arange(n))) >= 3
            split = collect_trips(series)
        assert split[0] == whole[0]
        assert split[1] == whole[1]
        assert (split[2].sum_d_time, split[2].sum_d_hops,
                split[2].finite_triples) == \
            (whole[2].sum_d_time, whole[2].sum_d_hops, whole[2].finite_triples)
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("K", [4, 2**31 - 2])
def test_key_packing_at_the_largest_k(K):
    # keys are ea*(K+2) + hops: at K = 2^31 - 2 the sentinel (K+1)*(K+2)
    # is near 2^62. Edges 0->1 in 1, 1->2 in 2, 2->0 in K-1, 0->1 in K;
    # only the non-empty snapshots are walked, so any K is cheap
    series = GraphSeries([1, 2, K - 1, K], [0, 1, 2, 0], [1, 2, 0, 1],
                         snapshot_count=K, node_count=3, horizon=K,
                         directed=True)
    assert scan_trips(series) == {
        (0, 1, 1, 1, 1), (0, 1, K, K, 1), (1, 2, 2, 2, 1), (0, 2, 1, 2, 2),
        (2, 0, K - 1, K - 1, 1), (2, 1, K - 1, K, 2), (1, 0, 2, K - 1, 2)}
    dist, agg = minimal_trip_sweep(series)
    assert dist == OccupancyDistribution([1, 1, 1, 1, 2, 2, 2],
                                         [1, 1, 1, 1, 2, 2, K - 2])
    # per pair over departures 1..K: (0,1) arrives 1 from 1, K from 2..K;
    # (1,2) 2 from 1..2; (0,2) 2 from 1; (2,0) K-1 from 1..K-1; (2,1) K
    # from 1..K-1 on two hops; (1,0) K-1 from 1..2 on two hops
    d_time = ((1 + K * (K - 1) // 2) + 3 + 2 + K * (K - 1) // 2
              + (K * (K + 1) // 2 - 1) + (2 * K - 3))
    d_hops = K + 2 + 2 + (K - 1) + 2 * (K - 1) + 4
    finite = K + 2 + 1 + (K - 1) + (K - 1) + 2
    assert (agg.sum_d_time, agg.sum_d_hops, agg.finite_triples) == \
        (d_time, d_hops, finite)
    if K < 10:
        snapshots = [[] for _ in range(K)]
        for k, u, v in zip(series.ek.tolist(), series.eu.tolist(),
                           series.ev.tolist()):
            snapshots[k - 1].append((u, v))
        assert (d_time, d_hops, finite) == \
            series_distance_sums(snapshots, 3, True)
        assert scan_trips(series) == series_minimal_trips(snapshots, True)


def test_dp_memory_stays_near_its_state():
    # one dense snapshot: 400 sources with 20 out-neighbors each. The DP
    # state is 8 bytes (one int64 key) per (node, column), the snapshot's
    # new rows 8 at most; the other temporaries are bounded by
    # _BLOCK_ELEMENTS, the trip buffer by _CHUNK. Gathering every edge's
    # row at once (26 MB here), or comparing every source's row at once
    # (+4.7 MB), would not fit
    n = 400
    rng = np.random.default_rng(0)
    u = np.repeat(np.arange(n), 20)
    v = (u + rng.integers(1, n, size=u.size)) % n
    series = GraphSeries(np.ones(u.size, dtype=np.int64), u, v,
                         snapshot_count=1, node_count=n, horizon=1,
                         directed=True)
    state = n * n * 8
    bound = 8 * (4 * reach._BLOCK_ELEMENTS + 5 * reach._CHUNK)
    tracemalloc.start()
    try:
        dist, _ = minimal_trip_sweep(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.total >= series.su.size
    assert peak < 2 * state + bound


def test_scan_emits_the_sweep_trips():
    # a scan toward some sinks emits exactly the full scan's trips into them
    rng = np.random.default_rng(12)
    for _ in range(40):
        series, _, n, _, _ = random_series(rng, max_edges=16)
        sinks = sorted({int(x) for x in rng.integers(0, n, size=2)})
        everything = scan_trips(series)
        got = scan_trips(series, sinks=sinks)
        assert got == {t for t in everything if t[1] in sinks}


def test_symmetric_directed_equals_undirected():
    rng = np.random.default_rng(17)
    for _ in range(20):
        stream, events, directed = random_stream(rng)
        if directed:
            continue
        sym = sorted({(u, v, t) for u, v, t in events}
                     | {(v, u, t) for u, v, t in events})
        dstream = LinkStream.from_events(
            sym, directed=True, labels=list(stream.labels),
            horizon=stream.horizon, normalize_times=False)
        for K in {1, 3, stream.horizon}:
            tu, du, au = collect_trips(aggregate(stream, K))
            td, dd, ad = collect_trips(aggregate(dstream, K))
            assert tu == td
            assert du == dd
            assert (au.sum_d_time, au.sum_d_hops) == (ad.sum_d_time, ad.sum_d_hops)


def test_distribution_merges_and_support():
    # repeated keys sum, equal rates (1/2 and 2/4) merge only when reduced
    d = OccupancyDistribution([2, 1, 1, 1], [4, 2, 1, 2], [1, 1, 1, 3])
    assert d.items() == [((1, 1), 1), ((1, 2), 4), ((2, 4), 1)]
    assert d.total == 6
    assert d == OccupancyDistribution([1, 1, 2, 1, 1, 1], [1, 2, 4, 2, 2, 2])
    p, q, w, val = d.reduced_rate_arrays()
    assert (p.tolist(), q.tolist(), w.tolist()) == ([1, 1], [2, 1], [5, 1])
    assert val.tolist() == [0.5, 1.0]
    empty = OccupancyDistribution()
    assert (empty.items(), empty.total, len(empty)) == ([], 0, 0)
    for bad in (([0], [1]), ([3], [2]), ([1], [2**31]), ([1, 2], [2]),
                ([1], [2], [1, 1]), ([[1]], [[1]])):
        with pytest.raises(ValueError):
            OccupancyDistribution(*bad)


def test_counts_stay_exact_above_2_53():
    big = 2**53 + 1  # float64 rounds big + 2 down by one
    d = OccupancyDistribution([1, 1], [2, 2], [big, 2])
    assert d.items() == [((1, 2), big + 2)]
    assert d.total == big + 2
    d = OccupancyDistribution([1, 1, 2], [2, 2, 4], [big, 2, 1])  # 2/4 = 1/2
    assert d.reduced_rate_arrays()[2].tolist() == [big + 3]
    keys, counts = reach._keyed_sum(np.array([5, 3, 5], dtype=np.int64),
                                    np.array([big, 7, 2], dtype=np.int64))
    assert keys.tolist() == [3, 5]
    assert counts.tolist() == [7, big + 2]


def test_stream_earliest_arrival_examples():
    def stream(events, directed=True, horizon=10):
        n = max(max(u, v) for u, v, _ in events) + 1
        return LinkStream.from_events(sorted(events), directed=directed,
                                      labels=[str(i) for i in range(n)],
                                      horizon=horizon, normalize_times=False)

    s = stream([(0, 1, 5)])
    assert stream_earliest_arrival(s, 0, (0, 9), 1) == (5, 5)
    s = stream([(0, 2, 2), (2, 1, 7)])
    assert stream_earliest_arrival(s, 0, (0, 9), 1) == (2, 7)
    s = stream([(0, 2, 2), (2, 1, 7), (0, 1, 8)])
    assert stream_earliest_arrival(s, 0, (0, 9), 1) == (8, 8)
    # window cutting off the relay
    s = stream([(0, 2, 2), (2, 1, 7)])
    assert stream_earliest_arrival(s, 0, (0, 6), 1) is None
    assert stream_earliest_arrival(s, 0, (3, 9), 1) is None


def test_stream_earliest_arrival_matches_brute_force():
    from oracles import stream_minimal_trips

    rng = np.random.default_rng(31)
    for _ in range(100):
        stream, events, directed = random_stream(rng)
        trips = stream_minimal_trips(events, directed)
        lo = int(rng.integers(0, stream.horizon))
        hi = int(rng.integers(lo, stream.horizon))
        u = int(rng.integers(0, stream.node_count))
        v = int(rng.integers(0, stream.node_count))
        if u == v:
            continue
        got = stream_earliest_arrival(stream, u, (lo, hi), v)
        inside = [(d, a) for (x, y, d, a) in trips
                  if x == u and y == v and lo <= d and a <= hi]
        if not inside:
            assert got is None
        else:
            best = min(a - d for d, a in inside)
            assert got is not None
            assert got[1] - got[0] == best
