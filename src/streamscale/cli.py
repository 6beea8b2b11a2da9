"""Command-line front end.

Subcommands: sweep, validate, distribution, classic, generate, summary.
Progress and log lines go to stderr; data goes to files or stdout only,
so the commands are pipeline-safe. Exit codes: 0 success, 1 usage error,
2 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

from .aggregate import aggregate, delta_grid
from .metrics import METRIC_IDS, icd_points
from .reach import minimal_trip_sweep
from .stream import ParseError, parse_konect, parse_tsv, stream_summary, write_tsv
from .sweep import (fmt, report_to_json, run_sweep, write_classic_csv,
                    write_curve_csv, write_icd_csv, write_validate_csv)
from .synth import TwoModeSpec, UniformSpec, gen_two_mode, gen_uniform
from .validate import run_validation

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _log(msg):
    print(msg, file=sys.stderr)


def _load_stream(args):
    path = Path(args.input)
    text = path.read_text(encoding="utf-8")
    parse = parse_konect if args.format == "konect" else parse_tsv
    stream = parse(text, directed=args.directed, resolution=args.resolution)
    if stream.self_loops_dropped:
        _log(f"dropped {stream.self_loops_dropped} self-loop event(s)")
    if stream.duplicates_dropped:
        _log(f"removed {stream.duplicates_dropped} duplicate event(s)")
    info = {"path": str(path), "format": args.format}
    return stream, info


def _parse_grid(args, stream):
    if args.k_list:
        try:
            ks = sorted({int(x) for x in args.k_list.split(",") if x}, reverse=True)
        except ValueError:
            raise ValueError(f"bad --k-list {args.k_list!r}") from None
        if not ks:
            raise ValueError("empty --k-list")
        bad = [k for k in ks if not 1 <= k <= stream.horizon]
        if bad:
            raise ValueError(f"--k-list value {bad[0]} is outside "
                             f"[1, {stream.horizon}]")
        return ks
    spec = args.grid
    if not spec.startswith("log:"):
        raise ValueError(f"bad --grid {spec!r}, expected log:<points>")
    try:
        points = int(spec[4:])
    except ValueError:
        raise ValueError(f"bad --grid {spec!r}") from None
    return list(delta_grid(stream, points))


def _output(path_str):
    """Context manager of the output file, or of stdout (never closed)
    when ``path_str`` is None or "-"."""
    if path_str in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path_str, "w", encoding="utf-8")


def _positive_int(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_input_opts(p):
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--format", choices=("tsv", "konect"), default="tsv")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--resolution", type=_positive_int, default=1,
                   help="timestamp units per time step (default 1)")


def _add_grid_opts(p):
    p.add_argument("--grid", default="log:40", help="log:<points> window grid")
    p.add_argument("--k-list", default=None, help="explicit window counts, e.g. 1,2,5")


def _add_threads_opt(p):
    p.add_argument("--threads", type=int, default=1,
                   help="has no effect; accepted so existing command lines run")


def build_parser():
    parser = _Parser(prog="streamscale",
                     description="saturation scale analysis of link streams")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="grid sweep with metric curves and gamma")
    _add_input_opts(p)
    _add_grid_opts(p)
    p.add_argument("--metric", default="all",
                   help="mk|stddev|cv|shannon:<k>|cre|all (selection printed to stdout)")
    p.add_argument("--shannon-slots", type=int, default=10)
    _add_threads_opt(p)
    p.add_argument("--classic", action="store_true",
                   help="also compute per-snapshot baseline statistics")
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("validate", help="lost transitions and elongation per window")
    _add_input_opts(p)
    _add_grid_opts(p)
    p.add_argument("--at-gamma", action="store_true",
                   help="run a sweep first and validate at the selected gamma")
    p.add_argument("--metric", default="mk")
    _add_threads_opt(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-samples", type=int, default=100_000)
    p.add_argument("--out", default="-")

    p = sub.add_parser("distribution", help="ICD of occupancy rates at one window count")
    _add_input_opts(p)
    p.add_argument("--k", type=int, required=True, help="window count K")
    _add_threads_opt(p)
    p.add_argument("--out", default="-")

    p = sub.add_parser("classic", help="baseline statistics along the grid")
    _add_input_opts(p)
    _add_grid_opts(p)
    _add_threads_opt(p)
    p.add_argument("--out", default="-")

    p = sub.add_parser("summary", help="basic stream statistics")
    _add_input_opts(p)

    p = sub.add_parser("generate", help="synthetic streams (canonical TSV)")
    gsub = p.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("uniform")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--links-per-pair", type=int, required=True)
    g.add_argument("--horizon", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--directed", action="store_true")
    g.add_argument("--out", default="-")
    g = gsub.add_parser("twomode")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--n1", type=int, required=True)
    g.add_argument("--t1", type=int, required=True)
    g.add_argument("--n2", type=int, required=True)
    g.add_argument("--t2", type=int, required=True)
    g.add_argument("--alternations", type=int, default=10)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", default="-")
    return parser


def _checked_metric(args, allow_all):
    """(metric id, Shannon slot count) of ``--metric``.

    Called before the stream is loaded, so that a bad name costs no work.
    """
    slots = getattr(args, "shannon_slots", 10)
    name = args.metric
    plain = [m for m in METRIC_IDS if m != "shannon"]
    if name.startswith("shannon:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad metric {name!r}") from None
        if slots not in (k, 10):
            raise ValueError("--metric shannon:<k> conflicts with --shannon-slots")
        name, slots = f"shannon:{k}", k
    elif not (name in plain or (allow_all and name == "all")):
        raise ValueError(f"unknown metric {name!r}; expected one of "
                         f"{', '.join(plain)}, shannon:<k>"
                         + (" or all" if allow_all else ""))
    if slots < 2:
        raise ValueError("the Shannon slot count must be >= 2")
    return name, slots


def cmd_sweep(args):
    chosen, args.shannon_slots = _checked_metric(args, allow_all=True)
    stream, info = _load_stream(args)
    ks = _parse_grid(args, stream)
    t0 = time.time()
    report = run_sweep(stream, k_list=ks, classic=args.classic,
                       shannon_slots=args.shannon_slots, input_info=info, log=_log)
    _log(f"sweep of {len(ks)} grid points took {time.time() - t0:.1f}s")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report_to_json(report), encoding="utf-8")
    for metric in report.entries[0].metrics:
        name = metric.replace(":", "")
        with open(out_dir / f"curve_{name}.csv", "w", encoding="utf-8") as fh:
            write_curve_csv(report, metric, fh)
    if args.classic:
        with open(out_dir / "classic.csv", "w", encoding="utf-8") as fh:
            write_classic_csv(report, fh)
    _log(f"report written to {out_dir / 'report.json'}")
    selected = report.gamma if chosen == "all" else {chosen: report.gamma[chosen]}
    print(json.dumps({"gamma": selected}, sort_keys=True))
    return 0


def cmd_validate(args):
    metric, slots = _checked_metric(args, allow_all=False)
    if not (args.at_gamma or args.k_list):
        raise ValueError("validate needs --k-list or --at-gamma")
    if args.max_samples < 0:
        raise ValueError("max_samples must be >= 0")
    stream, _ = _load_stream(args)
    ks = _parse_grid(args, stream)
    if args.at_gamma:
        report = run_sweep(stream, k_list=ks, log=_log, shannon_slots=slots)
        ks = [report.gamma[metric]["K"]]
        _log(f"validating at gamma[{metric}]: K={ks[0]}")

    rows = run_validation(stream, ks, max_samples=args.max_samples,
                          seed=args.seed, log=_log)
    with _output(args.out) as fh:
        write_validate_csv(rows, fh)
    return 0


def cmd_distribution(args):
    stream, _ = _load_stream(args)
    series = aggregate(stream, args.k)
    dist, _ = minimal_trip_sweep(series)
    lams, vals = icd_points(dist)
    with _output(args.out) as fh:
        write_icd_csv(lams, vals, fh)
    return 0


def cmd_classic(args):
    stream, info = _load_stream(args)
    ks = _parse_grid(args, stream)
    report = run_sweep(stream, k_list=ks, classic=True, input_info=info, log=_log)
    with _output(args.out) as fh:
        write_classic_csv(report, fh)
    return 0


def cmd_summary(args):
    stream, info = _load_stream(args)
    s = stream_summary(stream)
    doc = {
        "input": info,
        "node_count": s.node_count,
        "event_count": s.event_count,
        "raw_event_count": s.raw_event_count,
        "horizon": s.horizon,
        "resolution": s.resolution,
        "horizon_days": float(fmt(s.horizon_days)),
        "activity_per_person_day": float(fmt(s.activity_per_person_day)),
        "mean_inter_contact_s": float(fmt(s.mean_inter_contact_s)),
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_generate(args):
    if args.family == "uniform":
        spec = UniformSpec(node_count=args.n, links_per_pair=args.links_per_pair,
                           horizon=args.horizon, seed=args.seed,
                           directed=args.directed)
        stream = gen_uniform(spec)
    else:
        spec = TwoModeSpec(node_count=args.n, n_high=args.n1, t_high=args.t1,
                           n_low=args.n2, t_low=args.t2,
                           alternations=args.alternations, seed=args.seed)
        stream = gen_two_mode(spec)
    with _output(args.out) as fh:
        write_tsv(stream, fh)
    _log(f"generated {stream.event_count} events over horizon {stream.horizon}")
    return 0


_COMMANDS = {
    "sweep": cmd_sweep,
    "validate": cmd_validate,
    "distribution": cmd_distribution,
    "classic": cmd_classic,
    "summary": cmd_summary,
    "generate": cmd_generate,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"streamscale: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
