import math

import numpy as np
import pytest

from streamscale import reach
from streamscale.aggregate import aggregate
from streamscale.stream import LinkStream
from streamscale.validate import (enumerate_shortest_transitions, lost_fraction,
                                  mean_elongation, _stream_pass)

from conftest import random_stream
from oracles import stream_earliest_arrival, stream_shortest_transitions


def _stream(events, horizon, directed=True):
    n = max(max(u, v) for u, v, _ in events) + 1
    return LinkStream.from_events(sorted(events), directed=directed,
                                  labels=[str(i) for i in range(n)],
                                  horizon=horizon, normalize_times=False)


def test_single_transition():
    s = _stream([(0, 1, 1), (1, 2, 2)], horizon=4)
    assert enumerate_shortest_transitions(s).as_tuples() == {(0, 1, 2, 1, 2)}


def test_direct_link_kills_transition():
    # the direct (a, c, 2) gives trip [2,2] inside [1,2]
    s = _stream([(0, 1, 1), (1, 2, 2), (0, 2, 2)], horizon=4)
    assert enumerate_shortest_transitions(s).as_tuples() == set()


def test_earliest_out_event_pruning():
    s = _stream([(0, 1, 1), (1, 2, 3), (1, 2, 5)], horizon=6)
    assert enumerate_shortest_transitions(s).as_tuples() == {(0, 1, 2, 1, 3)}


def test_transitions_match_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(200):
        stream, events, directed = random_stream(rng, max_events=18)
        got = enumerate_shortest_transitions(stream).as_tuples()
        want = stream_shortest_transitions(events, directed)
        assert got == want


def test_lost_fraction_endpoints():
    s = _stream([(0, 1, 1), (1, 2, 2), (2, 3, 5)], horizon=8)
    transitions = enumerate_shortest_transitions(s)
    assert len(transitions) > 0
    # at the resolution, t1 < t2 always splits across windows
    assert lost_fraction(s, s.horizon, transitions) == 0.0
    assert lost_fraction(s, 1, transitions) == 1.0


def test_lost_fraction_undefined_without_transitions():
    s = _stream([(0, 1, 3)], horizon=5)
    assert math.isnan(lost_fraction(s, 1))


def test_lost_fraction_uses_window_rule():
    s = _stream([(0, 1, 0), (1, 2, 4)], horizon=8)
    transitions = enumerate_shortest_transitions(s)
    # K=2: windows [0,4) and [4,8): the two events split
    assert lost_fraction(s, 2, transitions) == 0.0
    # K=1: both inside the single window
    assert lost_fraction(s, 1, transitions) == 1.0


def test_lost_fraction_trend_along_grid():
    # the loss grows with the window length on every stream we generate;
    # the trend is empirical, so violations are reported rather than
    # asserted (only the endpoints are hard guarantees)
    from streamscale.aggregate import delta_grid
    from streamscale.synth import UniformSpec, gen_uniform

    stream = gen_uniform(UniformSpec(node_count=12, links_per_pair=8,
                                     horizon=4000, seed=21))
    transitions = enumerate_shortest_transitions(stream)
    fractions = [lost_fraction(stream, K, transitions)
                 for K in delta_grid(stream, 12)]
    violations = [(a, b) for a, b in zip(fractions, fractions[1:]) if a > b]
    if violations:
        print(f"lost_fraction monotonicity violations: {violations}")
    assert fractions[0] == 0.0 and fractions[-1] == 1.0


def test_elongation_two_hop_toy():
    s = _stream([(0, 1, 0), (1, 2, 9)], horizon=10)
    res = mean_elongation(s, aggregate(s, 2))
    # single eligible trip spanning both windows; stream needs 9 of the
    # 10 covered seconds
    assert res.samples == 1
    assert res.mean == pytest.approx(10 / 9)
    assert not res.sampled


def test_elongation_undefined_without_multiwindow_trips():
    s = _stream([(0, 1, 0), (0, 1, 9)], horizon=10)
    res = mean_elongation(s, aggregate(s, 10))
    assert res.samples == 0 and res.eligible == 0
    assert math.isnan(res.mean)


def test_elongation_at_least_one_on_random_streams():
    rng = np.random.default_rng(123)
    for _ in range(40):
        stream, _, _ = random_stream(rng, max_events=20, max_t=30)
        for K in {1, 2, 5, stream.horizon}:
            if K > stream.horizon:
                continue
            res = mean_elongation(stream, aggregate(stream, K))
            if res.samples:
                assert res.mean >= 1.0 - 1e-12


def test_elongation_sampling_is_seeded_and_order_independent(monkeypatch):
    rng = np.random.default_rng(9)
    events = {(int(rng.integers(0, 12)), int(rng.integers(0, 12)),
               int(rng.integers(0, 300))) for _ in range(400)}
    events = sorted((u, v, t) for u, v, t in events if u != v)
    stream = LinkStream.from_events(events, directed=True, horizon=300,
                                    normalize_times=False)
    series = aggregate(stream, 10)
    kw = dict(max_samples=25, seed=3)
    r1 = mean_elongation(stream, series, **kw)
    # more column blocks emit the same trips in another order
    with monkeypatch.context() as m:
        m.setattr(reach, "_MAX_STATE_ELEMENTS", 2 * stream.node_count)
        r2 = mean_elongation(stream, series, **kw)
    assert r1.sampled and r2.sampled
    assert r1.samples == r2.samples
    assert r1.mean == r2.mean
    # a different seed draws a different subsample
    r3 = mean_elongation(stream, series, max_samples=25, seed=4)
    assert r3.samples != r1.samples or r3.mean != r1.mean


def test_window_durations_match_scalar_query():
    # the fastest realization inside a window is a range minimum over the
    # pair's minimal trips of the stream pass
    rng = np.random.default_rng(55)
    for _ in range(60):
        stream, events, directed = random_stream(rng, max_events=16)
        qs = []
        for _ in range(10):
            u = int(rng.integers(0, stream.node_count))
            v = int(rng.integers(0, stream.node_count))
            if u == v:
                continue
            lo = int(rng.integers(0, stream.horizon))
            hi = int(rng.integers(lo, stream.horizon))
            qs.append((u, v, lo, hi))
        if not qs:
            continue
        q = np.array(qs, dtype=np.int64)
        trips = _stream_pass(stream, q[:, 0] * stream.node_count + q[:, 1],
                             transitions=False)[2]
        durs = trips.window_durations(q[:, 0], q[:, 1], q[:, 2], q[:, 3])
        for (u, v, lo, hi), dur in zip(qs, durs.tolist()):
            ref = stream_earliest_arrival(stream, u, (lo, hi), v)
            if ref is None:
                assert dur == -1
            else:
                assert dur == ref[1] - ref[0]
