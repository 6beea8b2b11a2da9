import numpy as np
import pytest

from streamscale.aggregate import GraphSeries, aggregate, delta_grid
from streamscale.classic import classic_stats, distance_stats, snapshot_stats
from streamscale.reach import minimal_trip_sweep
from streamscale.synth import UniformSpec, gen_uniform

from conftest import random_series
from oracles import series_distance_sums


def naive_snapshot_stats(snapshots, n, directed):
    """Per-snapshot density/degree/CC/non-isolated via plain BFS."""
    densities, ccs, non_iso = [], [], []
    pairs = n * (n - 1) if directed else n * (n - 1) // 2
    for edges in snapshots:
        edges = set(edges)
        densities.append(len(edges) / pairs)
        adj = {}
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        non_iso.append(len(adj))
        best = 1 if n >= 1 else 0
        seen = set()
        for start in adj:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            best = max(best, len(comp))
        ccs.append(best)
    K = len(snapshots)
    return (sum(densities) / K, sum(densities) / K * (n - 1),
            sum(ccs) / K, sum(non_iso) / K)


def test_empty_snapshot_degenerates():
    g = GraphSeries.from_snapshots([[], [(0, 1)]], node_count=3)
    density, degree, cc, non_iso = snapshot_stats(g)
    # empty snapshot contributes density 0, largest CC 1, nothing active
    assert density == pytest.approx((0 + 1 / 3) / 2)
    assert cc == pytest.approx((1 + 2) / 2)
    assert non_iso == pytest.approx((0 + 2) / 2)
    assert degree == pytest.approx(density * 2)


def test_snapshot_stats_match_naive():
    rng = np.random.default_rng(20)
    for _ in range(40):
        series, snapshots, n, K, directed = random_series(rng, max_edges=14)
        got = snapshot_stats(series)
        want = naive_snapshot_stats(snapshots, n, directed)
        assert got == pytest.approx(want)


def test_distance_stats_match_naive_and_bounds():
    rng = np.random.default_rng(21)
    for _ in range(40):
        series, snapshots, n, K, directed = random_series(rng)
        d_time, d_hops, d_abs, finite_frac = distance_stats(series)
        sdt, sdh, fin = series_distance_sums(snapshots, n, directed)
        if fin == 0:
            assert np.isnan(d_time)
            continue
        assert d_time == pytest.approx(sdt / fin)
        assert d_hops == pytest.approx(sdh / fin)
        assert d_hops <= d_time + 1e-12
        assert d_abs == pytest.approx(series.delta_seconds * d_time)
        assert finite_frac == pytest.approx(fin / (n * (n - 1) * K))


def test_k1_distance_endpoints():
    g = GraphSeries.from_snapshots([[(0, 1), (1, 2)]], horizon=500)
    d_time, d_hops, d_abs, _ = distance_stats(g)
    assert d_time == 1.0
    assert d_hops == 1.0
    assert d_abs == 500.0  # exactly the horizon


def test_monotone_drift_along_grid():
    stream = gen_uniform(UniformSpec(node_count=8, links_per_pair=6,
                                     horizon=600, seed=4))
    densities, hops = [], []
    for K in delta_grid(stream, 8):
        series = aggregate(stream, K)
        dist, agg = minimal_trip_sweep(series)
        stats = classic_stats(series, aggregates=agg)
        densities.append(stats.mean_density)
        hops.append(stats.mean_d_hops)
    # grid is ordered by growing window length
    assert all(a <= b + 1e-12 for a, b in zip(densities, densities[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(hops, hops[1:]))


def test_directed_density_denominator():
    g = GraphSeries.from_snapshots([[(0, 1)]], node_count=3, directed=True)
    density, degree, _, _ = snapshot_stats(g)
    assert density == pytest.approx(1 / 6)
    assert degree == pytest.approx(1 / 3)
