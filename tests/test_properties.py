"""Property tests of the validation fast paths and of input parsing.

Hypothesis draws small streams, queries and edge-list files that the
fixed seeds of the other tests do not cover; every example is checked
against the oracles or against a second parse.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from streamscale.stream import (LinkStream, parse_konect,  # noqa: E402
                                parse_tsv, write_tsv)
from streamscale.validate import (_stream_pass, _TripSampler,  # noqa: E402
                                  enumerate_shortest_transitions)

from oracles import (stream_earliest_arrival,  # noqa: E402
                     stream_shortest_transitions)

HORIZON = 15
MASK = (1 << 64) - 1


@st.composite
def streams(draw, max_n=6, max_events=18):
    """(stream, events, directed) of a small stream with dense node ids."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, max_n))
    raw = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  st.integers(0, HORIZON - 1)),
                        min_size=1, max_size=max_events))
    events = set()
    for u, v, t in raw:
        if u == v:
            continue
        if not directed:
            u, v = min(u, v), max(u, v)
        events.add((u, v, t))
    if not events:
        events = {(0, 1, 0)}
    labels = sorted({u for u, _, _ in events} | {v for _, v, _ in events})
    remap = {lab: i for i, lab in enumerate(labels)}
    events = sorted((remap[u], remap[v], t) for u, v, t in events)
    stream = LinkStream.from_events(events, directed=directed,
                                    labels=[str(i) for i in range(len(labels))],
                                    horizon=HORIZON, normalize_times=False)
    return stream, events, directed


@settings(max_examples=200, deadline=None)
@given(streams())
def test_transitions_match_brute_force_property(case):
    stream, events, directed = case
    got = enumerate_shortest_transitions(stream).as_tuples()
    assert got == stream_shortest_transitions(events, directed)


@settings(max_examples=200, deadline=None)
@given(streams(), st.data())
def test_window_durations_match_oracle_property(case, data):
    stream, _, _ = case
    n = stream.node_count
    node = st.integers(0, n - 1)
    instant = st.integers(0, HORIZON - 1)
    queries = data.draw(st.lists(
        st.tuples(node, node, instant, instant).filter(lambda q: q[0] != q[1]),
        min_size=1, max_size=8))
    q = np.array([(u, v, min(a, b), max(a, b)) for u, v, a, b in queries],
                 dtype=np.int64)
    # all columns (as in the shared pass) or only the queried destinations
    trips = _stream_pass(stream, q[:, 0] * n + q[:, 1],
                         transitions=data.draw(st.booleans()))[2]
    got = trips.window_durations(q[:, 0], q[:, 1], q[:, 2], q[:, 3])
    for (u, v, lo, hi), dur in zip(q.tolist(), got.tolist()):
        ref = stream_earliest_arrival(stream, u, (lo, hi), v)
        assert dur == (-1 if ref is None else ref[1] - ref[0])


def _reference_hash(u, v, dep, arr, seed):
    """The sampler's trip hash, in Python integers."""
    x = ((u * 0x9E3779B97F4A7C15) ^ (v * 0xC2B2AE3D27D4EB4F)
         ^ (dep * 0x165667B19E3779F9) ^ (arr * 0x27D4EB2F165667C5)) & MASK
    x ^= seed & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def _two_pass_sample(trips, max_samples, seed):
    """Count the eligible trips, then keep those under the final threshold."""
    eligible = sorted(t for t in trips if t[3] > t[2])
    if len(eligible) <= max_samples:
        return eligible, len(eligible), False
    threshold = min(2**64 - 1, int(max_samples / len(eligible) * 2.0**64))
    kept = [t for t in eligible if _reference_hash(*t, seed) < threshold]
    return kept, len(eligible), True


@settings(max_examples=300, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 19), st.integers(0, 19),
                         st.integers(1, 30), st.integers(0, 5)),
               max_size=80),
       st.integers(0, 12), st.integers(0, 2**64 - 1), st.integers(1, 8),
       st.data())
def test_one_pass_sampler_matches_two_pass_reference(raw, max_samples, seed,
                                                      chunk, data):
    trips = {(u, v, dep, dep + extra) for u, v, dep, extra in raw if u != v}
    # the DP hands over flat chunks of trips in any order
    order = data.draw(st.permutations(sorted(trips)))
    sampler = _TripSampler(max_samples, seed)
    for i in range(0, len(order), chunk):
        u, v, dep, arr = (np.array(x, dtype=np.int64)
                          for x in zip(*order[i:i + chunk]))
        sampler(u, v, dep, arr, None)
    got = sampler.finish()
    want, eligible, sampled = _two_pass_sample(trips, max_samples, seed)
    assert list(zip(*(x.tolist() for x in got.trips))) == want
    assert (got.eligible, got.sampled) == (eligible, sampled)


@st.composite
def edge_lists(draw):
    """(rows, directed): (label_u, label_v, t) rows of an edge-list file
    with at least one non-loop row, on a clock whose origin may be
    negative."""
    directed = draw(st.booleans())
    origin = draw(st.integers(-2**62, 2**62))
    label = st.text(alphabet="abz09-_", min_size=1, max_size=2)
    rows = draw(st.lists(st.tuples(label, label, st.integers(0, 10**6)),
                         min_size=1, max_size=12)
                .filter(lambda r: any(u != v for u, v, _ in r)))
    return [(u, v, origin + dt) for u, v, dt in rows], directed


def _labelled(stream):
    """A stream as its events by label on the original clock."""
    events = set()
    for u, v, t in stream.events():
        a, b = stream.labels[u], stream.labels[v]
        if not stream.directed:
            a, b = sorted((a, b))
        events.add((a, b, stream.t_origin + t * stream.resolution))
    return (stream.directed, stream.horizon, stream.resolution,
            stream.t_origin, events)


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_tsv_round_trip_property(case):
    # node ids follow the first appearance of labels, which the written
    # file (sorted by time) may change: compare events by label
    rows, directed = case
    stream = parse_tsv("".join(f"{u}\t{v}\t{t}\n" for u, v, t in rows),
                       directed=directed)
    again = parse_tsv(write_tsv(stream), directed=directed)
    assert _labelled(again) == _labelled(stream)
    assert again.event_count == stream.event_count


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_crlf_parses_like_lf_property(case):
    rows, directed = case
    for parse, line in ((parse_tsv, "{} {} {}\n"), (parse_konect, "{} {} 1 {}\n")):
        lf = "".join(line.format(*row) for row in rows)
        crlf = parse(lf.replace("\n", "\r\n"), directed=directed)
        plain = parse(lf, directed=directed)
        assert crlf == plain and crlf.t_origin == plain.t_origin
