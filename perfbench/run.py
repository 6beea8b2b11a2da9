"""Benchmark of the streamscale sweep -> validate workflow.

    python3 perfbench/run.py --workload uniform-dense --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. It writes the workload's seeded
input, then repeats whole rounds of CLI commands, each command in its own
process, until ``--seconds`` have passed (at least one round):

* ``--trace 0``: ``summary``, ``sweep`` and ``validate``, each as many
  times as the workload's ``repeats`` say. Prints the end-to-end metrics:
  the median wall time of each command, and the largest peak RSS of any
  of the CLI processes.
* ``--trace 1``: ``sweep`` and ``validate`` once untraced, then once
  through ``perfbench/tracing.py``. Prints the per-layer metrics and the
  tracing overhead, medians over the rounds.

Every run checks the outputs (see ``checks.py``), shows that each check
fails on a corrupted copy, and requires later rounds and traced commands
to write the same bytes as the first round. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import scan  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, write_tsv  # noqa: E402

SUMMARY_CHECKS = ["summary_counts"]
SWEEP_CHECKS = ["k1_identities", "lost_monotone", "elongation", "score_bounds",
                "icd_shape", "gamma_argmax"]
SCAN_MAX_K = 30


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_cli(argv, out_dir, tag, traced=False):
    """Run one command in its own process, stdout/stderr to files.

    Returns (exit code, wall seconds, peak RSS in MB).
    """
    if traced:
        cmd = [sys.executable, str(HERE / "tracing.py"),
               "--spans", str(out_dir / f"{tag}.spans.json"), "--"] + argv
    else:
        cmd = [sys.executable, "-m", "streamscale.cli"] + argv
    with open(out_dir / f"{tag}.out", "wb") as out, \
            open(out_dir / f"{tag}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_env(),
                                cwd=out_dir)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def command_lines(workload, input_path, out_dir, threads):
    base = ["--input", str(input_path)] + (["--directed"] if workload.directed else [])
    thr = ["--threads", str(threads)]
    return {
        "summary": ["summary"] + base,
        "sweep": ["sweep"] + base + workload.sweep_args + thr
                 + ["--out-dir", str(out_dir / "sweep")],
        "validate": ["validate"] + base + workload.validate_args + thr
                    + ["--out", str(out_dir / "validate.csv")],
    }


def _read_json(path):
    return json.loads(path.read_text())


def _read_curve(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            K, delta, score = line.rstrip("\n").split(",")
            rows.append((int(K), float(delta), float(score)))
    return rows


def _read_curves(sweep_dir):
    return {m: _read_curve(sweep_dir / f"curve_{m.replace(':', '')}.csv")
            for m in checks.METRICS}


def _read_validate(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            K, delta, lost, elong, samples = line.rstrip("\n").split(",")
            rows.append({"K": int(K), "delta_s": float(delta), "lost": lost,
                         "elong": elong, "samples": int(samples)})
    return rows


def _load(read, path):
    """read(path), or None when the file is missing or cannot be parsed."""
    try:
        return read(path)
    except (OSError, ValueError, StopIteration):
        return None


def read_outputs(out_dir):
    """Parsed outputs of one round; a missing or unreadable one is None."""
    sweep_dir = out_dir / "sweep"
    return {
        "summary": _load(_read_json, out_dir / "summary.out"),
        "report": _load(_read_json, sweep_dir / "report.json"),
        "gamma_stdout": _load(_read_json, out_dir / "sweep.out"),
        "curves": _load(_read_curves, sweep_dir),
        "validate": _load(_read_validate, out_dir / "validate.csv"),
    }


def _data_files(out_dir):
    files = [f for f in ("validate.csv", "sweep.out") if (out_dir / f).exists()]
    return files + sorted(f"sweep/{p.name}" for p in (out_dir / "sweep").glob("*"))


def same_bytes(dir_a, dir_b):
    """True when both rounds wrote the same data files, byte for byte."""
    files = _data_files(dir_a)
    return files == _data_files(dir_b) and all(
        filecmp.cmp(dir_a / f, dir_b / f, shallow=False) for f in files)


def planned_checks(workload, trace):
    """The checks of a round, chosen from the workload and the mode alone."""
    names = list(SWEEP_CHECKS) if trace else SUMMARY_CHECKS + SWEEP_CHECKS
    if workload.max_samples is not None:
        names.append("elongation_sampled")
    if "--classic" in workload.sweep_args:
        names.append("scan")
    return names


def check_round(outputs, expected, names):
    """Output checks and their corruption self-test on one round.

    An output that a check needs and that is missing is a problem; the
    checks that need it are not run.
    """
    needs = {name: checks.NEEDS[name] for name in names}
    missing = sorted({o for need in needs.values() for o in need if outputs[o] is None})
    problems = [f"{o}: expected output missing or unreadable" for o in missing]
    names = [name for name in names if not set(needs[name]) & set(missing)]
    if "scan" in names:
        checks.add_scans(expected, outputs["report"])
    problems += checks.run_checks(outputs, expected, names)
    problems += [f"{name}: passes on corrupted output"
                 for name in checks.self_test(outputs, expected, names)]
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description="streamscale benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="override the workload's --threads (baselines)")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "streamscale" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; "
                  f"run from the root of a streamscale checkout", file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload]
    threads = workload.threads if args.threads is None else args.threads
    work = HERE / "work" / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    input_path = work / "input.tsv"
    events = workload.generate(args.seed)
    write_tsv(events, input_path)
    expected = checks.expectations(events, workload.directed, SCAN_MAX_K)
    expected["max_samples"] = workload.max_samples
    scan.self_check(ROOT, args.seed)

    names = ["sweep", "validate"] if args.trace else ["summary", "sweep", "validate"]
    # wall times of the processes that exited 0; the medians use only these
    times = {name: [] for name in names}
    layers = []
    overhead = []
    peak_rss = 0.0
    attempted = failed = 0
    problems = []
    first = None
    rnd = 0
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < args.seconds:
        out_dir = work / f"round{rnd}"
        rnd += 1
        out_dir.mkdir()
        argvs = command_lines(workload, input_path, out_dir, threads)
        ok_walls = {}
        for name, repeats in workload.repeats:
            if name not in names:
                continue
            for _ in range(1 if args.trace else repeats):
                code, wall, rss = run_cli(argvs[name], out_dir, name)
                attempted += 1
                failed += code != 0
                peak_rss = max(peak_rss, rss)
                if code == 0:
                    times[name].append(wall)
                    ok_walls[name] = wall
        if args.trace:
            traced_dir = out_dir / "traced"
            traced_dir.mkdir()
            traced_argvs = command_lines(workload, input_path, traced_dir, threads)
            traced_walls = {}
            for name in names:
                code, wall, _ = run_cli(traced_argvs[name], traced_dir, name, traced=True)
                attempted += 1
                failed += code != 0
                if code == 0:
                    traced_walls[name] = wall
            if len(traced_walls) == len(names):
                spans = [_load(_read_json, traced_dir / f"{n}.spans.json") for n in names]
                if None in spans:
                    problems.append(f"{traced_dir.name}: spans missing or unreadable")
                else:
                    layers.append(tracing.layer_metrics(spans))
                if len(ok_walls) == len(names):
                    overhead.append(sum(traced_walls[n] - ok_walls[n] for n in names))
            if not same_bytes(out_dir, traced_dir):
                problems.append(f"{traced_dir.name}: traced outputs differ")
        if first is None:
            first = out_dir
            problems += check_round(read_outputs(out_dir), expected,
                                    planned_checks(workload, args.trace))
        elif not same_bytes(first, out_dir):
            problems.append(f"{out_dir.name}: outputs differ from {first.name}")

    def median(values, what):
        if values:
            return statistics.median(values)
        # nothing was measured; the problem marks the run incorrect
        problems.append(f"{what}: no process to time exited 0")
        return 0.0

    if args.trace:
        if not layers:
            problems.append("no traced round completed")
            layers = [tracing.layer_metrics([])]
        metrics = {name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
        metrics["trace.overhead_s"] = {"value": median(overhead, "trace.overhead_s"),
                                       "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": median(times["summary"], "summary"), "unit": "s"},
            "sweep_s": {"value": median(times["sweep"], "sweep"), "unit": "s"},
            "validate_s": {"value": median(times["validate"], "validate"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }

    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    if not problems:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
