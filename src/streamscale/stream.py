"""Link stream ingestion and normalization.

A link stream is a finite collection of timestamped events (u, v, t).
This module parses edge-list files into the canonical in-memory
representation used by the rest of the package: dense integer node ids,
integer timestamps shifted so the earliest event sits at 0, and a
half-open study period [0, horizon).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkStream",
    "StreamSummary",
    "ParseError",
    "parse_tsv",
    "parse_konect",
    "write_tsv",
    "stream_summary",
]

SECONDS_PER_DAY = 86400


class ParseError(ValueError):
    """Raised on malformed input files; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class LinkStream:
    """Normalized, immutable collection of timestamped (u, v, t) events.

    Events are stored as three parallel numpy arrays sorted by the
    (t, u, v) key, with exact duplicates removed and self-loops dropped.
    Node ids are dense integers 0..n-1; ``labels[i]`` is the original
    label of node i. Timestamps are integers in resolution units since
    ``t_origin`` and satisfy 0 <= t < horizon.
    """

    def __init__(self, t, u, v, labels, horizon, *, resolution=1, directed=False,
                 t_origin=0, self_loops_dropped=0, duplicates_dropped=0):
        t = np.asarray(t, dtype=np.int64)
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if not (t.size == u.size == v.size):
            raise ValueError("event arrays must have equal length")
        if t.size == 0:
            raise ValueError("empty stream: no events")
        n = len(labels)
        horizon = int(horizon)
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if horizon >= 1 << 31:
            raise ValueError("horizon does not fit 31 bits; use a coarser resolution")
        if int(resolution) <= 0:
            raise ValueError("resolution must be positive")
        if t.min() < 0 or t.max() >= horizon:
            raise ValueError("event timestamps must lie in [0, horizon)")
        if np.any(u == v):
            raise ValueError("self-loop event present")
        if u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n:
            raise ValueError("node ids out of range")
        seen = np.zeros(n, dtype=bool)
        seen[u] = True
        seen[v] = True
        if not seen.all():
            raise ValueError("node ids are not dense: some id has no event")
        # strict (t, u, v) ordering also guarantees there are no duplicates
        key_sorted = np.lexsort((v, u, t))
        if not np.array_equal(key_sorted, np.arange(t.size)):
            raise ValueError("events must be sorted by (t, u, v)")
        tv = np.stack([t, u, v])
        if np.any(np.all(tv[:, 1:] == tv[:, :-1], axis=0)):
            raise ValueError("duplicate (u, v, t) event present")

        self.t = t
        self.u = u
        self.v = v
        self.t.flags.writeable = False
        self.u.flags.writeable = False
        self.v.flags.writeable = False
        self.labels = tuple(str(x) for x in labels)
        self.node_count = n
        self.horizon = horizon
        self.resolution = int(resolution)
        self.directed = bool(directed)
        self.t_origin = int(t_origin)
        self.self_loops_dropped = int(self_loops_dropped)
        self.duplicates_dropped = int(duplicates_dropped)

    @property
    def event_count(self):
        return int(self.t.size)

    @property
    def raw_event_count(self):
        """Event count before duplicate removal (self-loops not included)."""
        return self.event_count + self.duplicates_dropped

    def events(self):
        """Iterate events as (u, v, t) tuples in canonical order."""
        for i in range(self.t.size):
            yield int(self.u[i]), int(self.v[i]), int(self.t[i])

    @classmethod
    def from_events(cls, events, *, directed=False, labels=None, horizon=None,
                    resolution=1, normalize_times=None, t_origin=0):
        """Build a stream from an iterable of (u, v, t) triplets.

        ``u``/``v`` may be labels (mapped to dense ids in first-appearance
        order) or, when ``labels`` is given, integer ids into it. With
        ``normalize_times`` (the default when ``horizon`` is None)
        timestamps are shifted so the minimum maps to 0 and the horizon is
        max - min + 1; otherwise they are kept as-is against the supplied
        ``horizon``. Self-loops are dropped and counted, exact duplicate
        triplets removed, and for undirected streams (u, v, t) and
        (v, u, t) are identified.
        """
        if normalize_times is None:
            normalize_times = horizon is None
        if labels is None:
            label_to_id = {}
            out_labels = []
            us, vs, ts = [], [], []
            loops = 0
            for eu, ev, et in events:
                if eu == ev:
                    loops += 1
                    continue
                for lab in (eu, ev):
                    if lab not in label_to_id:
                        label_to_id[lab] = len(out_labels)
                        out_labels.append(str(lab))
                us.append(label_to_id[eu])
                vs.append(label_to_id[ev])
                ts.append(int(et))
            labels = out_labels
        else:
            us, vs, ts = [], [], []
            loops = 0
            for eu, ev, et in events:
                if eu == ev:
                    loops += 1
                    continue
                us.append(int(eu))
                vs.append(int(ev))
                ts.append(int(et))
        if not ts:
            raise ValueError("empty stream: no events")
        t = np.asarray(ts, dtype=np.int64)
        u = np.asarray(us, dtype=np.int64)
        v = np.asarray(vs, dtype=np.int64)
        if not directed:
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            u, v = lo, hi
        t_min = int(t.min())
        if normalize_times:
            if int(resolution) <= 0:
                raise ValueError("resolution must be positive")
            t_origin = t_min
            # in Python ints: the int64 span can wrap, and the constructor
            # rejects a horizon this large before it looks at t
            horizon = (int(t.max()) - t_min) // int(resolution) + 1
            t = (t - t_min) // int(resolution)
        elif horizon is None:
            raise ValueError("horizon required when normalize_times is False")
        order = np.lexsort((v, u, t))
        t, u, v = t[order], u[order], v[order]
        keep = np.ones(t.size, dtype=bool)
        keep[1:] = (t[1:] != t[:-1]) | (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        dupes = int(t.size - keep.sum())
        t, u, v = t[keep], u[keep], v[keep]
        # drop labels that only ever appeared in self-loops, re-densifying ids
        n = len(labels)
        seen = np.zeros(n, dtype=bool)
        seen[u] = True
        seen[v] = True
        if not seen.all():
            remap = np.cumsum(seen) - 1
            u = remap[u]
            v = remap[v]
            labels = [lab for lab, s in zip(labels, seen) if s]
        return cls(t, u, v, labels, horizon, resolution=resolution,
                   directed=directed, t_origin=t_origin,
                   self_loops_dropped=loops, duplicates_dropped=dupes)

    def __eq__(self, other):
        if not isinstance(other, LinkStream):
            return NotImplemented
        return (self.labels == other.labels
                and self.horizon == other.horizon
                and self.resolution == other.resolution
                and self.directed == other.directed
                and np.array_equal(self.t, other.t)
                and np.array_equal(self.u, other.u)
                and np.array_equal(self.v, other.v))

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return (f"LinkStream(n={self.node_count}, m={self.event_count}, "
                f"horizon={self.horizon}, {kind})")


def _parse_lines(text, *, directed, resolution, comment_prefixes, min_fields,
                 time_field, require_time=False):
    events = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line[0] in comment_prefixes:
            continue
        fields = line.split()
        if len(fields) < min_fields:
            raise ParseError(f"expected at least {min_fields} fields, got {len(fields)}",
                             line=lineno)
        if len(fields) <= time_field:
            if require_time:
                raise ParseError("untimestamped data (no timestamp column)", line=lineno)
            raise ParseError(f"missing timestamp in field {time_field + 1}", line=lineno)
        try:
            t = int(fields[time_field])
        except ValueError:
            raise ParseError(f"non-integer timestamp {fields[time_field]!r}",
                             line=lineno) from None
        if not -(1 << 63) <= t < 1 << 63:
            raise ParseError(f"timestamp {fields[time_field]} does not fit 64 bits",
                             line=lineno)
        events.append((fields[0], fields[1], t))
    if not events:
        raise ParseError("empty stream: no events found")
    try:
        return LinkStream.from_events(events, directed=directed, resolution=resolution)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_tsv(text, *, directed=False, resolution=1):
    """Parse canonical TSV: ``label_u  label_v  t_seconds`` per line.

    Fields are whitespace-separated (at least three; extras ignored),
    '#' and '%' start comment lines. Node labels are mapped to dense ids
    in first-appearance order and timestamps shifted so the minimum maps
    to 0. Raises :class:`ParseError` with a line number on malformed rows.
    """
    return _parse_lines(text, directed=directed, resolution=resolution,
                        comment_prefixes="#%", min_fields=3, time_field=2)


def parse_konect(text, *, directed=False, resolution=1):
    """Parse a KONECT-style edge list: ``u v weight timestamp`` rows.

    Only the 4-column form carries timestamps; rows without a fourth
    column are rejected as untimestamped data. '%' (and '#') lines are
    comments. Normalization is the same as :func:`parse_tsv`.
    """
    return _parse_lines(text, directed=directed, resolution=resolution,
                        comment_prefixes="%#", min_fields=2, time_field=3,
                        require_time=True)


def write_tsv(stream, fh=None):
    """Write the canonical TSV form of a stream; returns the text if fh is None.

    Timestamps are emitted on the original clock
    (``t_origin + t * resolution``) so that re-parsing reproduces the
    same normalized stream.
    """
    buf = fh if fh is not None else io.StringIO()
    res = stream.resolution
    origin = stream.t_origin
    for u, v, t in zip(stream.u, stream.v, stream.t):
        buf.write(f"{stream.labels[u]}\t{stream.labels[v]}\t{origin + int(t) * res}\n")
    if fh is None:
        return buf.getvalue()
    return None


@dataclass
class StreamSummary:
    node_count: int
    event_count: int
    raw_event_count: int
    horizon: int
    resolution: int
    horizon_days: float
    activity_per_person_day: float
    mean_inter_contact_s: float


def stream_summary(stream):
    """Basic activity statistics of a stream.

    ``activity_per_person_day`` is events / (n * days). The mean
    inter-contact time of a node is the study length divided by the mean
    number of events a node takes part in, i.e. ``horizon * n / (2 m)``
    seconds (each event involves two nodes).
    """
    n = stream.node_count
    m = stream.event_count
    horizon_s = stream.horizon * stream.resolution
    days = horizon_s / SECONDS_PER_DAY
    return StreamSummary(
        node_count=n,
        event_count=m,
        raw_event_count=stream.raw_event_count,
        horizon=stream.horizon,
        resolution=stream.resolution,
        horizon_days=days,
        activity_per_person_day=m / (n * days),
        mean_inter_contact_s=horizon_s * n / (2.0 * m),
    )
