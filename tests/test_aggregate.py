from fractions import Fraction

import numpy as np
import pytest

from streamscale.aggregate import GraphSeries, aggregate, delta_grid
from streamscale.stream import LinkStream, parse_tsv

from conftest import edge_set, random_stream


def _stream(events, horizon, directed=False):
    n = max(max(u, v) for u, v, _ in events) + 1
    return LinkStream.from_events(sorted(events), directed=directed,
                                  labels=[str(i) for i in range(n)],
                                  horizon=horizon, normalize_times=False)


def test_hand_bucketing_example():
    s = _stream([(0, 1, 0), (1, 2, 1), (0, 2, 3)], horizon=4)
    g = aggregate(s, 2)
    assert edge_set(g, 1) == {(0, 1), (1, 2)}
    assert edge_set(g, 2) == {(0, 2)}
    assert g.total_edges == 3


def test_total_aggregation_all_pairs():
    s = parse_tsv("a b 1\na b 7\nb c 3\nc a 9\n")
    g = aggregate(s, 1)
    assert g.snapshot_count == 1
    assert edge_set(g, 1) == {(0, 1), (1, 2), (0, 2)}


def test_window_rule_matches_exact_rational_comparison():
    rng = np.random.default_rng(7)
    for _ in range(30):
        stream, events, _ = random_stream(rng, max_t=12)
        for K in (1, 2, 3, stream.horizon):
            if K > stream.horizon:
                continue
            g = aggregate(stream, K)
            delta = Fraction(stream.horizon, K)
            for u, v, t in zip(stream.u, stream.v, stream.t):
                k = int(t * K // stream.horizon) + 1
                assert (k - 1) * delta <= t < k * delta
                assert (int(u), int(v)) in edge_set(g, k)


def test_every_event_in_exactly_one_snapshot():
    rng = np.random.default_rng(11)
    stream, events, _ = random_stream(rng, max_events=20, max_t=40)
    for K in (1, 3, 7, stream.horizon):
        g = aggregate(stream, K)
        buckets = (stream.t * K) // stream.horizon + 1
        assert buckets.min() >= 1 and buckets.max() <= K
        # union of bucketed events covers the whole event set
        covered = {(int(u), int(v), int(k))
                   for u, v, k in zip(stream.u, stream.v, buckets)}
        for u, v, k in covered:
            assert (u, v) in edge_set(g, k)


def test_refinement_consistency():
    rng = np.random.default_rng(3)
    stream, _, _ = random_stream(rng, max_events=20, max_t=36)
    K1, K2 = 12, 4  # K2 divides K1
    if stream.horizon < K1:
        stream, _, _ = random_stream(np.random.default_rng(5), max_events=20,
                                     max_t=36)
    g1 = aggregate(stream, K1)
    g2 = aggregate(stream, K2)
    for k in g1.nonempty_snapshots.tolist():
        coarse = -(-k * K2 // K1)  # ceil
        fine_edges = edge_set(g1, k)
        assert fine_edges <= edge_set(g2, coarse)


def test_edge_count_monotone_in_window_length():
    rng = np.random.default_rng(13)
    stream, _, _ = random_stream(rng, max_events=20, max_t=50)
    counts = [aggregate(stream, K).total_edges
              for K in sorted({stream.horizon, 17, 9, 5, 2, 1}, reverse=True)
              if K <= stream.horizon]
    assert counts == sorted(counts, reverse=True)


def test_k_out_of_range():
    s = parse_tsv("a b 1\nb c 5\n")
    with pytest.raises(ValueError):
        aggregate(s, 0)
    with pytest.raises(ValueError):
        aggregate(s, s.horizon + 1)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("bad", [-1, 3, 5])
def test_node_ids_out_of_range(directed, bad):
    # a negative id would wrap around in the DP's indexing, a large one
    # would fail deep inside it
    for edges in ([(0, bad)], [(bad, 1)]):
        with pytest.raises(ValueError, match="node ids out of range"):
            GraphSeries.from_snapshots([edges, [(2, 1)]], node_count=3,
                                       directed=directed)


def test_neighbor_lists_sorted_and_deduplicated():
    s = parse_tsv("a b 1\na c 1\na b 1\nb a 1\n", directed=True)
    g = aggregate(s, 1)
    assert list(zip(g.su.tolist(), g.sv.tolist())) == [(0, 1), (0, 2), (1, 0)]


def test_delta_grid_three_decades():
    s = _stream([(0, 1, 0), (0, 1, 99)], horizon=100)
    assert delta_grid(s, 3) == (100, 10, 1)


def test_delta_grid_saturates_to_all_integer_counts():
    s = _stream([(0, 1, 0), (0, 1, 9)], horizon=10)
    assert delta_grid(s, 200) == tuple(range(10, 0, -1))


def test_delta_grid_endpoints_and_monotonicity():
    s = _stream([(0, 1, 0), (0, 1, 4229)], horizon=4230)
    ks = delta_grid(s, 40)
    assert ks[0] == s.horizon and ks[-1] == 1
    assert all(a > b for a, b in zip(ks, ks[1:]))
    assert len(ks) <= 40
    deltas = [aggregate(s, k).delta_seconds for k in ks]
    assert deltas == sorted(deltas)
