"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The real-dataset criteria (5-8) need the public KONECT files and skip
with a notice when they are absent; everything else runs on synthetic or
random inputs. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import sys
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from streamscale.aggregate import aggregate, delta_grid
from streamscale.cli import main as cli_main
from streamscale.metrics import cre, mk_distance, mk_proximity, shannon_entropy
from streamscale.reach import OccupancyDistribution
from streamscale.stream import parse_konect
from streamscale.sweep import run_sweep
from streamscale.synth import TwoModeSpec, UniformSpec, gen_two_mode, gen_uniform
from streamscale.validate import (enumerate_shortest_transitions, lost_fraction,
                                  mean_elongation)

from conftest import (collect_trips, random_distribution, random_series,
                      random_stream, require_dataset)
from oracles import (quad_icd, series_minimal_trips, stream_shortest_transitions,
                     uniform_rate_distribution)

warnings.filterwarnings("ignore", message="links_per_pair")

HOUR = 3600.0


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:>2} {name}: FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {num:>2} {name}: PASS", file=sys.stderr)


# -- shared dataset pipelines (criteria 5-8) --------------------------------

_SWEEPS = {}


def dataset_sweep(name):
    """Cached log:40 sweep (with baseline statistics) of a real dataset."""
    if name not in _SWEEPS:
        path = require_dataset(name)
        stream = parse_konect(path.read_text(encoding="utf-8"), directed=True)
        report = run_sweep(stream, points=40, classic=True)
        _SWEEPS[name] = (stream, report)
    return _SWEEPS[name]


def test_criterion_01_core_dp_oracle_equivalence():
    with criterion(1, "core DP equals brute-force enumeration (1000 instances)"):
        t0 = time.time()
        rng = np.random.default_rng(20240601)
        for i in range(1000):
            series, snapshots, n, K, directed = random_series(rng)
            trips, dist, _ = collect_trips(series)
            expected = series_minimal_trips(snapshots, directed)
            assert trips == expected, f"instance {i}: trip sets differ"
            multiset = {}
            for _, _, dep, arr, h in expected:
                key = (h, arr - dep + 1)
                multiset[key] = multiset.get(key, 0) + 1
            assert dict(dist.items()) == multiset, f"instance {i}: distribution"
        elapsed = time.time() - t0
        assert elapsed < 60, f"criterion budget exceeded: {elapsed:.1f}s"


def test_criterion_02_metric_closed_forms():
    with criterion(2, "metric closed forms and quadrature agreement"):
        point_mass = OccupancyDistribution([1], [1])
        assert abs(mk_distance(point_mass) - 0.5) <= 1e-9

        # finite stand-ins for the uniform density: exact analytic values
        # at each n (mk distance is 1/(2n), slot masses are equal), the
        # stated limits reached at rate O(1/n)
        n = 100_000
        uni = uniform_rate_distribution(n)
        prox = mk_proximity(uni)
        assert abs(prox - (0.5 - 1 / (2 * n))) <= 1e-9
        assert abs(prox - 0.5) <= 1 / (2 * n) + 1e-9
        assert abs(shannon_entropy(uni, 10) - math.log(10)) <= 1e-9
        assert abs(cre(uni) - 0.25) <= 1.0 / n

        small = uniform_rate_distribution(2000)
        q = quad_icd(small, lambda p, lam: -p * math.log(p) if p > 0 else 0.0)
        assert abs(cre(small) - q) <= 1e-9
        assert abs(cre(small) - 0.25) <= 1.0 / 2000

        rng = np.random.default_rng(77)
        for _ in range(100):
            d = random_distribution(rng, 30, 40, 5)
            q_mk = quad_icd(d, lambda p, lam: abs(p - (1 - lam)))
            q_cre = quad_icd(d, lambda p, lam: -p * math.log(p) if p > 0 else 0.0)
            assert abs(mk_distance(d) - q_mk) <= 1e-9
            assert abs(cre(d) - q_cre) <= 1e-9


def test_criterion_03_time_uniform_proportionality():
    with criterion(3, "gamma proportional to inter-contact time (uniform)"):
        t0 = time.time()
        n, T = 30, 20_000
        xs, ys = [], []
        for N in (5, 10, 20, 40, 80):
            for seed in (1, 2, 3):
                stream = gen_uniform(UniformSpec(node_count=n, links_per_pair=N,
                                                 horizon=T, seed=seed))
                report = run_sweep(stream, points=30)
                xs.append(T / (N * (n - 1)))
                ys.append(report.gamma["mk"]["delta_s"])
        xs = np.array(xs)
        ys = np.array(ys)
        # through-origin fit quality
        b0 = float((xs * ys).sum() / (xs * xs).sum())
        r2 = 1.0 - float(((ys - b0 * xs) ** 2).sum() / (ys ** 2).sum())
        assert r2 >= 0.9, f"R^2 through origin {r2:.4f} < 0.9"
        # the free intercept must be negligible against the smallest
        # fitted mean slope*min(x) (or statistically indistinct from 0;
        # grid quantization collapses replicate variance, making the
        # relative clause the operative one)
        A = np.vstack([np.ones_like(xs), xs]).T
        coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
        a, b = float(coef[0]), float(coef[1])
        resid = ys - A @ coef
        s2 = float((resid ** 2).sum()) / (len(xs) - 2)
        se_a = math.sqrt(s2 * np.linalg.inv(A.T @ A)[0, 0])
        assert abs(a) <= max(3.0 * se_a, 0.25 * b * xs.min()), \
            f"intercept {a:.3f} not negligible (slope*min(x)={b * xs.min():.3f})"
        elapsed = time.time() - t0
        assert elapsed < 600, f"criterion budget exceeded: {elapsed:.1f}s"


def test_criterion_04_two_mode_plateau():
    with criterion(4, "two-mode saturation plateau up to 70% low activity"):
        t0 = time.time()
        # per-pair rates fixed across rho: 1/100 per second in the high
        # mode, 8x sparser in the low mode (activity ratio 8)
        block, n = 8000, 20
        gammas = {}
        for rho_pct in (0, 20, 40, 60, 70, 90, 100):
            t2 = block * rho_pct // 100
            t1 = block - t2
            spec = TwoModeSpec(node_count=n, n_high=t1 // 100, t_high=t1,
                               n_low=t2 // 800, t_low=t2, seed=5,
                               alternations=10)
            report = run_sweep(gen_two_mode(spec), points=40)
            gammas[rho_pct] = report.gamma["mk"]["delta_s"]
        base = gammas[0]
        for rho_pct in (20, 40, 60, 70):
            assert gammas[rho_pct] <= 1.5 * base, \
                f"rho={rho_pct}%: gamma {gammas[rho_pct]:.2f} > 1.5x{base:.2f}"
        assert gammas[100] >= 3.0 * base, \
            f"pure low mode gamma {gammas[100]:.2f} < 3x{base:.2f}"
        elapsed = time.time() - t0
        assert elapsed < 900, f"criterion budget exceeded: {elapsed:.1f}s"


def test_criterion_05_irvine_headline_numbers():
    with criterion(5, "Irvine saturation scale and metric agreement"):
        _, report = dataset_sweep("irvine")
        gamma = report.gamma
        mk_h = gamma["mk"]["delta_s"] / HOUR
        assert 14.0 <= mk_h <= 22.0, f"gamma_mk {mk_h:.2f}h outside [14, 22]"
        assert gamma["stddev"]["K"] == gamma["mk"]["K"], \
            "stddev selects a different grid point than M-K"
        sha = gamma["shannon:10"]["delta_s"]
        assert abs(sha - gamma["mk"]["delta_s"]) <= 0.25 * gamma["mk"]["delta_s"]
        cre_h = gamma["cre"]["delta_s"] / HOUR
        assert cre_h <= mk_h and 10.0 <= cre_h <= 19.0
        finest_k = max(e.K for e in report.entries)
        assert gamma["cv"]["K"] == finest_k, \
            "variation coefficient should select the minimal window length"


def test_criterion_06_irvine_validation_losses():
    with criterion(6, "Irvine lost transitions and elongation at gamma"):
        stream, report = dataset_sweep("irvine")
        transitions = enumerate_shortest_transitions(stream)
        k_gamma = report.gamma["mk"]["K"]
        lost = lost_fraction(stream, k_gamma, transitions)
        assert 0.38 <= lost <= 0.58, f"lost fraction {lost:.3f} at gamma"
        series = aggregate(stream, k_gamma)
        elong = mean_elongation(stream, series, seed=0)
        assert 1.0 <= elong.mean <= 1.5, f"mean elongation {elong.mean:.3f}"
        k_half_hour = max(1, round(stream.horizon / 1800))
        lost_small = lost_fraction(stream, k_half_hour, transitions)
        assert 0.05 <= lost_small <= 0.20, \
            f"lost fraction {lost_small:.3f} at 0.5h"


def test_criterion_07_irvine_classic_endpoints():
    with criterion(7, "Irvine baseline statistics endpoints"):
        stream, report = dataset_sweep("irvine")
        by_k = {e.K: e for e in report.entries}
        total = by_k[1]
        assert abs(total.classic.mean_density - 7.2e-3) <= 0.1 * 7.2e-3
        assert total.classic.mean_d_hops == 1.0
        assert total.classic.mean_d_time_abs == float(stream.horizon)
        finest = by_k[max(by_k)]
        assert finest.classic.mean_d_hops >= 4.5


def test_criterion_08_other_datasets():
    with criterion(8, "Facebook/Enron/Manufacturing scales and ordering"):
        refs = {"facebook": 46.0, "enron": 78.0, "manufacturing": 12.0}
        gammas = {}
        for name, ref_h in refs.items():
            _, report = dataset_sweep(name)
            got_h = report.gamma["mk"]["delta_s"] / HOUR
            assert abs(got_h - ref_h) <= 0.4 * ref_h, \
                f"{name}: gamma {got_h:.1f}h vs {ref_h}h"
            gammas[name] = got_h
        _, irvine = dataset_sweep("irvine")
        gammas["irvine"] = irvine.gamma["mk"]["delta_s"] / HOUR
        assert (gammas["manufacturing"] < gammas["irvine"]
                < gammas["facebook"] < gammas["enron"]), \
            f"activity/scale ordering violated: {gammas}"


def test_criterion_09_thread_determinism(tmp_path, capsys):
    with criterion(9, "reports byte-identical across thread counts"):
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(300):
            u, v = rng.integers(0, 15, size=2)
            if u != v:
                rows.append(f"n{u} n{v} {rng.integers(0, 900)}")
        data = tmp_path / "stream.tsv"
        data.write_text("\n".join(rows) + "\n")
        outputs = {}
        for threads in ("1", "8"):
            out_dir = tmp_path / f"run{threads}"
            code = cli_main(["sweep", "--input", str(data), "--grid", "log:8",
                             "--classic", "--threads", threads,
                             "--out-dir", str(out_dir)])
            assert code == 0
            val = tmp_path / f"val{threads}.csv"
            code = cli_main(["validate", "--input", str(data),
                             "--k-list", "1,30,250", "--threads", threads,
                             "--seed", "1", "--out", str(val)])
            assert code == 0
            capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            files["validate.csv"] = val.read_bytes()
            outputs[threads] = files
        assert outputs["1"] == outputs["8"]


def test_criterion_10_validation_oracles():
    with criterion(10, "transition enumeration vs brute force; elongation >= 1"):
        rng = np.random.default_rng(555)
        for i in range(500):
            stream, events, directed = random_stream(rng, max_events=30)
            got = enumerate_shortest_transitions(stream).as_tuples()
            want = stream_shortest_transitions(events, directed)
            assert got == want, f"stream {i}: transition sets differ"
        # elongation factors are asserted >= 1 in exact arithmetic inside
        # mean_elongation on every sample; exercise it broadly
        for i in range(60):
            stream, _, _ = random_stream(rng, max_events=25, max_t=40)
            for K in {1, 3, 11, stream.horizon}:
                if K > stream.horizon:
                    continue
                res = mean_elongation(stream, aggregate(stream, K))
                if res.samples:
                    assert res.mean >= 1.0 - 1e-12
