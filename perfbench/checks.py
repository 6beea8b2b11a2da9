"""Checks of the program's outputs, and corruptions that each must catch.

``expected`` holds values computed apart from the program, from the input
file and the benchmark's own scan (see :func:`expectations`). ``outputs``
holds the parsed outputs of one round (see ``run.read_outputs``). Every
check raises :class:`CheckFailed`; :func:`self_test` applies each
corruption to a copy of the outputs and requires its check to fail.
"""

from __future__ import annotations

import copy
import math

from scan import scan, series_from_events

METRICS = ("mk", "stddev", "cv", "shannon:10", "cre")
# 12 significant digits in the reports: allow the last one to round up
SLACK = 1e-11


class CheckFailed(AssertionError):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _as_reported(x):
    """A float as the program writes it: 12 significant digits."""
    return float(f"{x:.12g}")


def expectations(events, directed, scan_max_k):
    """Counts of the input file, computed without the program.

    ``events`` are the (label_u, label_v, t) rows of the file. Ids and
    the time origin are normalised as the method defines them; the scan
    results for K <= ``scan_max_k`` are added later by :func:`add_scans`.
    """
    labels = {}
    for u, v, _ in events:
        labels.setdefault(u, len(labels))
        labels.setdefault(v, len(labels))
    t0 = min(t for _, _, t in events)
    norm = set()
    for u, v, t in events:
        a, b = labels[u], labels[v]
        if not directed and a > b:
            a, b = b, a
        norm.add((a, b, t - t0))
    n = len(labels)
    pairs = {(a, b) for a, b, _ in norm}
    return {
        "n": n,
        "directed": directed,
        "raw_event_count": len(events),
        "event_count": len(norm),
        "horizon": max(t for _, _, t in norm) + 1,
        "linked_ordered_pairs": len(pairs) * (1 if directed else 2),
        "pair_denominator": n * (n - 1) if directed else n * (n - 1) // 2,
        "distinct_pairs": len(pairs),
        "events": sorted(norm),
        "scan_max_k": scan_max_k,
        "scans": {},
    }


def add_scans(expected, report):
    """Run the plain-Python scan at every grid K in (1, scan_max_k]."""
    for entry in report["entries"]:
        K = entry["K"]
        if 1 < K <= expected["scan_max_k"]:
            snaps = series_from_events(expected["events"], K, expected["horizon"])
            expected["scans"][K] = scan(snaps, expected["n"], expected["directed"])


def _entry(outputs, K):
    for e in outputs["report"]["entries"]:
        if e["K"] == K:
            return e
    raise CheckFailed(f"report has no entry at K={K}")


def check_summary_counts(outputs, expected):
    s = outputs["summary"]
    for key in ("event_count", "raw_event_count", "horizon"):
        _require(s[key] == expected[key],
                 f"summary {key} {s[key]} != {expected[key]} counted from the input")
    _require(s["node_count"] == expected["n"],
             f"summary node_count {s['node_count']} != {expected['n']} labels")


def check_k1_identities(outputs, expected):
    e = _entry(outputs, 1)
    _require(e["trip_count"] == expected["linked_ordered_pairs"],
             f"K=1 trip_count {e['trip_count']} != "
             f"{expected['linked_ordered_pairs']} linked ordered pairs")
    for m in ("mk", "stddev"):
        _require(e["metrics"][m] == 0, f"K=1 {m} {e['metrics'][m]} != 0")
    c = e.get("classic")
    if c is not None:
        density = _as_reported(expected["distinct_pairs"] / expected["pair_denominator"])
        _require(c["density"] == density, f"K=1 density {c['density']} != {density}")
        _require(c["d_hops"] == 1, f"K=1 d_hops {c['d_hops']} != 1")
        _require(c["d_time_abs"] == expected["horizon"],
                 f"K=1 d_time_abs {c['d_time_abs']} != horizon {expected['horizon']}")
    rows = [r for r in outputs["validate"] if r["K"] == 1]
    _require(len(rows) == 1, "validate has no row at K=1")
    _require(rows[0]["lost"] == "1",
             f"K=1 lost_fraction {rows[0]['lost']!r} is not exactly 1")


def check_lost_monotone(outputs, expected):
    rows = {r["K"]: float(r["lost"]) for r in outputs["validate"]}
    for k1, lost1 in rows.items():
        for k2, lost2 in rows.items():
            if k2 > k1 and k2 % k1 == 0:
                _require(lost2 <= lost1,
                         f"lost_fraction rises from {lost1} at K={k1} "
                         f"to {lost2} at K={k2}")


def check_elongation(outputs, expected):
    for r in outputs["validate"]:
        if r["samples"] > 0:
            _require(r["elong"] != "" and float(r["elong"]) >= 1,
                     f"K={r['K']}: mean_elongation {r['elong']!r} < 1")
        else:
            _require(r["elong"] == "",
                     f"K={r['K']}: mean_elongation {r['elong']!r} without samples")


def check_elongation_sampled(outputs, expected):
    """With ``--max-samples``, every K>1 row is a sample, not all eligible
    trips: a seed whose eligible count fell below the sampler's threshold
    would turn the workload into a different one."""
    limit = 10 * expected["max_samples"]
    for r in outputs["validate"]:
        if r["K"] > 1:
            _require(0 < r["samples"] <= limit,
                     f"K={r['K']}: {r['samples']} elongation samples, "
                     f"not a sample of at most {limit}")


def check_score_bounds(outputs, expected):
    bounds = {"mk": 0.5, "stddev": 0.5, "shannon:10": math.log(10),
              "cre": 1 / math.e, "cv": math.inf}
    for e in outputs["report"]["entries"]:
        _require(sorted(e["metrics"]) == sorted(METRICS),
                 f"K={e['K']}: metrics {sorted(e['metrics'])}")
        for m, hi in bounds.items():
            x = e["metrics"][m]
            _require(0 <= x <= hi * (1 + SLACK), f"K={e['K']}: {m}={x} outside [0, {hi}]")


def check_icd_shape(outputs, expected):
    for e in outputs["report"]["entries"]:
        pts = e["icd"]
        _require(pts[0] == [0, 1] and pts[-1] == [1, 0],
                 f"K={e['K']}: ICD runs from {pts[0]} to {pts[-1]}")
        for (l1, p1), (l2, p2) in zip(pts, pts[1:]):
            _require(l1 <= l2 and p1 >= p2,
                     f"K={e['K']}: ICD not non-increasing at {l1}..{l2}")


def check_gamma_argmax(outputs, expected):
    report = outputs["report"]
    for m in METRICS:
        curve = outputs["curves"][m]
        _require([k for k, _, _ in curve] == [e["K"] for e in report["entries"]],
                 f"curve_{m} grid differs from the report")
        for (K, _, score), e in zip(curve, report["entries"]):
            _require(score == e["metrics"][m], f"curve_{m} K={K}: {score} != report")
        best = max(curve, key=lambda row: (row[2], -row[1]))
        for where, gamma in (("report", report["gamma"]),
                             ("stdout", outputs["gamma_stdout"]["gamma"])):
            _require(gamma[m]["K"] == best[0],
                     f"{where} gamma[{m}] K={gamma[m]['K']}, curve argmax K={best[0]}")


def check_scan(outputs, expected):
    _require(expected["scans"], "no grid K in (1, scan_max_k] to recompute")
    n = expected["n"]
    for K, (trips, sum_time, sum_hops, finite) in sorted(expected["scans"].items()):
        e = _entry(outputs, K)
        _require(e["trip_count"] == trips,
                 f"K={K}: trip_count {e['trip_count']} != scan {trips}")
        c = e["classic"]
        want = {
            "d_time": sum_time / finite,
            "d_hops": sum_hops / finite,
            "d_time_abs": expected["horizon"] / K * (sum_time / finite),
            "finite_frac": finite / (n * (n - 1) * K),
        }
        for key, value in want.items():
            _require(c[key] == _as_reported(value),
                     f"K={K}: classic {key} {c[key]} != scan {_as_reported(value)}")


CHECKS = {
    "summary_counts": check_summary_counts,
    "k1_identities": check_k1_identities,
    "lost_monotone": check_lost_monotone,
    "elongation": check_elongation,
    "elongation_sampled": check_elongation_sampled,
    "score_bounds": check_score_bounds,
    "icd_shape": check_icd_shape,
    "gamma_argmax": check_gamma_argmax,
    "scan": check_scan,
}

# the parsed outputs (see ``run.read_outputs``) that each check reads
NEEDS = {
    "summary_counts": ("summary",),
    "k1_identities": ("report", "validate"),
    "lost_monotone": ("validate",),
    "elongation": ("validate",),
    "elongation_sampled": ("validate",),
    "score_bounds": ("report",),
    "icd_shape": ("report",),
    "gamma_argmax": ("report", "curves", "gamma_stdout"),
    "scan": ("report",),
}


def _corrupt_elongation(o):
    rows = sorted(o["validate"], key=lambda r: -r["samples"])
    rows[0]["elong"] = "0.5" if rows[0]["samples"] else "2"


def _corrupt_sampled(o):
    # every eligible trip scored, as on a seed just under the 10^6 threshold
    max(o["validate"], key=lambda r: r["K"])["samples"] = 900_000


def _corrupt_gamma(o):
    ks = [e["K"] for e in o["report"]["entries"]]
    g = o["report"]["gamma"]["mk"]
    g["K"] = next(k for k in ks if k != g["K"])


def _corrupt_scan(o):
    e = min((e for e in o["report"]["entries"] if e["K"] > 1), key=lambda e: e["K"])
    e["classic"]["d_hops"] += 1e-9


CORRUPTIONS = {
    "summary_counts": lambda o: o["summary"].update(event_count=o["summary"]["event_count"] - 1),
    "k1_identities": lambda o: _entry(o, 1).update(trip_count=_entry(o, 1)["trip_count"] + 1),
    "lost_monotone": lambda o: max(o["validate"], key=lambda r: r["K"]).update(lost="1.5"),
    "elongation": _corrupt_elongation,
    "elongation_sampled": _corrupt_sampled,
    "score_bounds": lambda o: o["report"]["entries"][0]["metrics"].update(cre=0.5),
    "icd_shape": lambda o: o["report"]["entries"][-1]["icd"].reverse(),
    "gamma_argmax": _corrupt_gamma,
    "scan": _corrupt_scan,
}


def run_checks(outputs, expected, names):
    """Run the named checks; returns the failure messages."""
    failures = []
    for name in names:
        try:
            CHECKS[name](outputs, expected)
        except CheckFailed as exc:
            failures.append(f"{name}: {exc}")
    return failures


def self_test(outputs, expected, names):
    """Each named check must fail on its corrupted copy of the outputs;
    returns the names of the checks that did not."""
    missed = []
    for name in names:
        bad = copy.deepcopy(outputs)
        CORRUPTIONS[name](bad)
        try:
            CHECKS[name](bad, expected)
        except CheckFailed:
            continue
        missed.append(name)
    return missed
