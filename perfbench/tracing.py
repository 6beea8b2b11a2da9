"""Traced run of one ``streamscale`` command, and the per-layer metrics.

Run as a script, it wraps the program's public functions from outside,
in every ``streamscale`` module that holds a reference to them, so the
program's own calls go through the wrappers. It then calls the CLI entry
point in-process and writes the recorded spans as JSON:

    python3 perfbench/tracing.py --spans spans.json -- sweep --input f.tsv ...

Each span is [id, name, start, end, parent id, counts]. Nothing under
``src/`` is changed. A function that no longer exists is not wrapped and
its layer reports 0 calls.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

# (module, function, span name, counts taken from the result)
TARGETS = [
    ("streamscale.stream", "parse_tsv", "stream.parse",
     lambda r: {"events": r.event_count}),
    ("streamscale.aggregate", "aggregate", "aggregate",
     lambda r: {"edges": r.total_edges,
                "nonempty_snapshots": len(r.nonempty_snapshots)}),
    ("streamscale.sweep", "run_sweep", "sweep.run", None),
    ("streamscale.reach", "minimal_trip_sweep", "reach",
     lambda r: {"trips": r[0].total, "keys": len(r[0])}),
    ("streamscale.metrics", "compute_metrics", "metrics", None),
    ("streamscale.metrics", "icd_points", "metrics", None),
    ("streamscale.classic", "classic_stats", "classic", None),
    ("streamscale.sweep", "report_to_json", "sweep.report", None),
    ("streamscale.sweep", "write_curve_csv", "sweep.report", None),
    ("streamscale.sweep", "write_classic_csv", "sweep.report", None),
    ("streamscale.validate", "enumerate_shortest_transitions",
     "validate.transitions", lambda r: {"transitions": len(r)}),
    ("streamscale._kernels", "transition_checks",
     "validate.transition_checks", None),
    ("streamscale.validate", "lost_fraction", "validate.lost", None),
    ("streamscale.validate", "mean_elongation", "validate.elongation",
     lambda r: {"samples": r.samples, "eligible": r.eligible}),
    ("streamscale._kernels", "window_min_durations",
     "validate.window_scan", None),
]


class Recorder:
    """In-memory span list with a per-thread stack of open spans."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, func, counts):
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[sid] = [sid, name, start, end, parent, {}]
            if counts is not None:
                self.spans[sid][5] = counts(result)
            return result
        return traced

    def install(self):
        """Replace every module-level reference to each target function."""
        import streamscale.cli  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "streamscale" or name.startswith("streamscale.")]
        for mod_name, func_name, span, counts in TARGETS:
            try:
                original = getattr(importlib.import_module(mod_name), func_name)
            except (ImportError, AttributeError):
                continue
            wrapper = self.wrap(span, original, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def run(self, name, func):
        return self.wrap(name, func, None)()


def _self_times(spans):
    """Span duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[0], ())):
            lo, hi = max(lo, s[2]), min(hi, s[3])
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[0]] = (s[3] - s[2]) - covered
    return out


def _ancestors(span, by_id):
    names = []
    parent = span[4]
    while parent is not None:
        names.append(by_id[parent][1])
        parent = by_id[parent][4]
    return names


LAYER_METRICS = [
    ("stream.parse_s", "s"), ("stream.events", "count"),
    ("aggregate.s", "s"), ("aggregate.edges", "count"),
    ("aggregate.nonempty_snapshots", "count"),
    ("reach.sweep_s", "s"), ("reach.validate_s", "s"),
    ("reach.calls", "count"), ("reach.trips", "count"), ("reach.keys", "count"),
    ("metrics.s", "s"), ("classic.s", "s"), ("sweep.report_s", "s"),
    ("validate.transitions_s", "s"), ("validate.transition_checks_s", "s"),
    ("validate.transitions", "count"), ("validate.lost_s", "s"),
    ("validate.elongation_s", "s"), ("validate.window_scan_s", "s"),
    ("validate.elongation_samples", "count"),
    ("validate.elongation_eligible", "count"),
]


def layer_metrics(span_lists):
    """Per-layer metrics of one round, from the span lists of its commands.

    Times are self times summed over the round, except ``stream.parse_s``,
    the mean time of one parse (every command parses the input once).
    ``reach.calls`` counts the DP runs of the ``validate`` command.
    """
    m = {name: 0 for name, _ in LAYER_METRICS}
    parse_times = []
    for spans in span_lists:
        by_id = {s[0]: s for s in spans}
        self_t = _self_times(spans)
        for s in spans:
            name, counts, t = s[1], s[5], self_t[s[0]]
            up = _ancestors(s, by_id)
            if name == "stream.parse":
                parse_times.append(t)
                m["stream.events"] = counts["events"]
            elif name == "aggregate":
                m["aggregate.s"] += t
                m["aggregate.edges"] += counts["edges"]
                m["aggregate.nonempty_snapshots"] += counts["nonempty_snapshots"]
            elif name == "reach":
                if "sweep.run" in up:
                    m["reach.sweep_s"] += t
                if "validate.elongation" in up:
                    m["reach.validate_s"] += t
                if "cmd.validate" in up:
                    m["reach.calls"] += 1
                m["reach.trips"] += counts["trips"]
                m["reach.keys"] += counts["keys"]
            elif name in ("metrics", "classic"):
                m[f"{name}.s"] += t
            elif name == "sweep.report":
                m["sweep.report_s"] += t
            elif name == "validate.transitions":
                m["validate.transitions_s"] += t
                m["validate.transitions"] += counts["transitions"]
            elif name == "validate.elongation":
                m["validate.elongation_s"] += t
                m["validate.elongation_samples"] += counts["samples"]
                m["validate.elongation_eligible"] += counts["eligible"]
            elif name in ("validate.transition_checks", "validate.lost",
                          "validate.window_scan"):
                m[f"{name}_s"] += t
    if parse_times:
        m["stream.parse_s"] = sum(parse_times) / len(parse_times)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="output JSON file")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if not cli_args:
        parser.error("no streamscale command given")

    recorder = Recorder()
    recorder.install()
    from streamscale import cli

    code = recorder.run(f"cmd.{cli_args[0]}", lambda: cli.main(cli_args))
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
