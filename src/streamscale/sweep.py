"""Window-length sweep: the full pipeline from a stream to a report.

For every window count K on the grid the stream is aggregated, the
backward sweep collects occupancy rates and distance aggregates, and all
selection metrics are scored; the saturation scale per metric is the
grid point with the maximal score. Reports carry every parameter needed
to reproduce a run and only deterministic values, so identical runs are
byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .aggregate import aggregate, delta_grid
from .classic import classic_stats
from .metrics import compute_metrics, icd_points, select_gamma
from .reach import minimal_trip_sweep

__all__ = ["GridEntry", "SweepReport", "run_sweep", "report_to_json",
           "write_curve_csv", "write_classic_csv", "write_icd_csv",
           "write_validate_csv", "fmt"]

# ICD sample points kept per grid entry in the report
ICD_CAP = 129

# (report key and classic.csv column, ClassicStats field), in CSV order
_CLASSIC_COLUMNS = (
    ("density", "mean_density"), ("degree", "mean_degree"),
    ("largest_cc", "mean_largest_cc"), ("non_isolated", "mean_non_isolated"),
    ("d_time", "mean_d_time"), ("d_hops", "mean_d_hops"),
    ("d_time_abs", "mean_d_time_abs"), ("finite_frac", "finite_pair_fraction"),
)


def fmt(x):
    """Floats with 12 significant digits, for cross-run comparability."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    if isinstance(x, float):
        if x == 0.0:
            x = 0.0  # fold -0.0
        return f"{x:.12g}"
    return str(x)


@dataclass
class GridEntry:
    K: int
    delta_seconds: float
    trip_count: int
    metrics: dict
    icd: list                      # (lambda, P(X > lambda)) sample points
    classic: object = None         # ClassicStats when requested


@dataclass
class SweepReport:
    input: dict
    entries: list
    gamma: dict                    # metric id -> {"K": ..., "delta_s": ...}
    shannon_slots: int
    version: str
    labels: tuple = ()
    parameters: dict = field(default_factory=dict)


def _downsample_icd(lams, vals):
    if lams.size <= ICD_CAP:
        idx = np.arange(lams.size)
    else:
        idx = np.unique(np.round(np.linspace(0, lams.size - 1, ICD_CAP)).astype(int))
    return [(float(lams[i]), float(vals[i])) for i in idx]


def run_sweep(stream, *, k_list=None, points=40, classic=False,
              shannon_slots=10, input_info=None, log=None):
    """Sweep the aggregation grid and score every selection metric.

    ``k_list`` overrides the log-spaced grid of ``points`` window counts.
    Returns a :class:`SweepReport`.
    """
    from . import __version__

    if k_list is not None:
        ks = sorted({int(k) for k in k_list}, reverse=True)
        if not ks:
            raise ValueError("empty k list")
    else:
        ks = list(delta_grid(stream, points))

    entries = []
    for K in ks:
        series = aggregate(stream, K)
        dist, agg = minimal_trip_sweep(series)
        if dist.total == 0:
            raise ValueError(f"no minimal trip at K={K}: cannot score the grid point")
        metrics = compute_metrics(dist, shannon_slots)
        lams, vals = icd_points(dist)
        entry = GridEntry(
            K=K,
            delta_seconds=series.delta_seconds,
            trip_count=dist.total,
            metrics=metrics,
            icd=_downsample_icd(lams, vals),
            classic=classic_stats(series, aggregates=agg) if classic else None,
        )
        entries.append(entry)
        if log is not None:
            log(f"K={K} delta_s={fmt(entry.delta_seconds)} trips={dist.total} "
                f"mk={fmt(metrics['mk'])}")

    gamma = {}
    for metric in entries[0].metrics:
        k_star, delta_star = select_gamma(
            [(e.K, e.delta_seconds, e.metrics[metric]) for e in entries])
        gamma[metric] = {"K": k_star, "delta_s": delta_star}

    info = dict(input_info) if input_info else {}
    info.setdefault("directed", stream.directed)
    info.setdefault("node_count", stream.node_count)
    info.setdefault("event_count", stream.event_count)
    info.setdefault("raw_event_count", stream.raw_event_count)
    info.setdefault("horizon", stream.horizon)
    info.setdefault("resolution", stream.resolution)
    info.setdefault("t_origin", stream.t_origin)
    info.setdefault("self_loops_dropped", stream.self_loops_dropped)
    info.setdefault("duplicates_dropped", stream.duplicates_dropped)

    return SweepReport(
        input=info,
        entries=entries,
        gamma=gamma,
        shannon_slots=shannon_slots,
        version=__version__,
        labels=stream.labels,
        parameters={"grid": ks, "classic": classic, "icd_cap": ICD_CAP,
                    "shannon_slots": shannon_slots},
    )


def _json_value(x):
    if isinstance(x, float):
        return float(fmt(x)) if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    if isinstance(x, np.integer):
        return int(x)
    return x


def report_to_json(report):
    """Deterministic JSON text of a report (12 significant digits)."""
    entries = []
    for e in report.entries:
        item = {
            "K": e.K,
            "delta_s": e.delta_seconds,
            "trip_count": e.trip_count,
            "metrics": e.metrics,
            "icd": e.icd,
        }
        if e.classic is not None:
            item["classic"] = {column: getattr(e.classic, name)
                               for column, name in _CLASSIC_COLUMNS}
        entries.append(item)
    doc = {
        "tool": {"name": "streamscale", "version": report.version},
        "input": dict(report.input),
        "parameters": dict(report.parameters),
        "entries": entries,
        "gamma": report.gamma,
        "labels": list(report.labels),
    }
    return json.dumps(_json_value(doc), indent=2, sort_keys=True) + "\n"


def write_curve_csv(report, metric, fh):
    fh.write("K,delta_s,score\n")
    for e in report.entries:
        fh.write(f"{e.K},{fmt(e.delta_seconds)},{fmt(e.metrics[metric])}\n")


def write_classic_csv(report, fh):
    fh.write(",".join(["K", "delta_s"] + [c for c, _ in _CLASSIC_COLUMNS]) + "\n")
    for e in report.entries:
        row = [e.K, e.delta_seconds] + [getattr(e.classic, name)
                                        for _, name in _CLASSIC_COLUMNS]
        fh.write(",".join(fmt(x) for x in row) + "\n")


def write_icd_csv(lams, vals, fh):
    fh.write("lambda,icd\n")
    for lam, val in zip(lams, vals):
        fh.write(f"{fmt(float(lam))},{fmt(float(val))}\n")


def write_validate_csv(rows, fh):
    """rows: iterables of LossReport."""
    fh.write("K,delta_s,lost_fraction,mean_elongation,samples\n")
    for r in rows:
        fh.write(f"{r.snapshot_count},{fmt(r.delta_seconds)},"
                 f"{fmt(r.lost_fraction)},{fmt(r.mean_elongation)},"
                 f"{r.elongation_samples}\n")
