import os
from pathlib import Path

import numpy as np
import pytest

from streamscale.aggregate import GraphSeries
from streamscale.reach import (OccupancyDistribution, minimal_trip_sweep,
                               scan_minimal_trips)
from streamscale.stream import LinkStream


def random_series(rng, max_n=6, max_k=8, max_edges=12):
    """Small random series plus its raw snapshot lists, for oracle checks."""
    n = int(rng.integers(2, max_n + 1))
    K = int(rng.integers(1, max_k + 1))
    directed = bool(rng.integers(0, 2))
    snapshots = [[] for _ in range(K)]
    edges = set()
    for _ in range(int(rng.integers(1, max_edges + 1))):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        if not directed:
            u, v = min(u, v), max(u, v)
        edges.add((int(rng.integers(1, K + 1)), u, v))
    for k, u, v in edges:
        snapshots[k - 1].append((u, v))
    series = GraphSeries.from_snapshots(snapshots, node_count=n, directed=directed)
    return series, snapshots, n, K, directed


def edge_set(series, k):
    """Edges of snapshot k as a set of (u, v), with u < v when undirected."""
    at = series.sk == k
    if not series.directed:
        at &= series.su < series.sv
    return set(zip(series.su[at].tolist(), series.sv[at].tolist()))


def random_stream(rng, max_n=6, max_events=20, max_t=15):
    """Small random stream plus its event list, for stream-level oracles."""
    n = int(rng.integers(2, max_n + 1))
    directed = bool(rng.integers(0, 2))
    events = set()
    for _ in range(int(rng.integers(1, max_events + 1))):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        if not directed:
            u, v = min(u, v), max(u, v)
        events.add((u, v, int(rng.integers(0, max_t))))
    if not events:
        events = {(0, 1, 0)}
    labels = sorted({u for u, _, _ in events} | {v for _, v, _ in events})
    remap = {lab: i for i, lab in enumerate(labels)}
    events = {(remap[u], remap[v], t) for u, v, t in events}
    stream = LinkStream.from_events(sorted(events), directed=directed,
                                    labels=[str(i) for i in range(len(labels))],
                                    horizon=max_t, normalize_times=False)
    return stream, sorted(events), directed


def scan_trips(series, sinks=None):
    """Every minimal trip toward ``sinks`` (all nodes by default) as a set
    of (u, v, dep, arr, hops), from :func:`scan_minimal_trips`."""
    trips = []

    def sink(u, v, dep, arr, hops):
        trips.extend(zip(u.tolist(), v.tolist(), dep.tolist(), arr.tolist(),
                         hops.tolist()))

    scan_minimal_trips(series, sink, sinks)
    return set(trips)


def collect_trips(series):
    """Every minimal trip of the series, with its occupancy distribution
    and distance aggregates over all destinations."""
    dist, agg = minimal_trip_sweep(series)
    return scan_trips(series), dist, agg


def random_distribution(rng, max_keys, max_duration, max_weight):
    """Random occupancy distribution of 1..max_keys-1 weighted
    (hops, duration) draws, repeated keys included."""
    rows = []
    for _ in range(int(rng.integers(1, max_keys))):
        dur = int(rng.integers(1, max_duration))
        rows.append((int(rng.integers(1, dur + 1)), dur,
                     int(rng.integers(1, max_weight))))
    return OccupancyDistribution(*zip(*rows))


DATASET_FILES = {
    "irvine": ("out.opsahl-ucsocial", "opsahl-ucsocial", "irvine.tsv"),
    "facebook": ("out.facebook-wosn-wall", "facebook-wosn-wall", "facebook.tsv"),
    "enron": ("out.enron", "enron", "enron.tsv"),
    "manufacturing": ("out.radoslaw_email", "radoslaw_email", "manufacturing.tsv"),
}


def dataset_path(name):
    """Locate a real dataset file, or None when it is not available.

    Looks under $STREAMSCALE_DATA, then ./data, for the usual KONECT
    file names (see DATASET_FILES).
    """
    roots = []
    if os.environ.get("STREAMSCALE_DATA"):
        roots.append(Path(os.environ["STREAMSCALE_DATA"]))
    roots.append(Path(__file__).resolve().parent.parent / "data")
    for root in roots:
        for fname in DATASET_FILES[name]:
            p = root / fname
            if p.exists():
                return p
    return None


def require_dataset(name):
    p = dataset_path(name)
    if p is None:
        pytest.skip(f"{name} dataset file not available "
                    f"(set STREAMSCALE_DATA or place it under ./data)")
    return p
