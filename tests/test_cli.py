import json

import pytest

from streamscale.cli import main
from streamscale.stream import write_tsv
from streamscale.synth import UniformSpec, gen_uniform


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_uniform_single_event(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "uniform", "--n", "2",
                       "--links-per-pair", "1", "--horizon", "10", "--seed", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1
    u, v, t = lines[0].split("\t")
    assert {u, v} == {"0", "1"}
    assert 0 <= int(t) < 10


def test_generate_deterministic(capsys):
    args = ("generate", "uniform", "--n", "4", "--links-per-pair", "3",
            "--horizon", "1000", "--seed", "42")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_generate_twomode_count(capsys):
    code, out, _ = run(capsys, "generate", "twomode", "--n", "3", "--n1", "2",
                       "--t1", "50", "--n2", "1", "--t2", "50", "--seed", "1")
    assert code == 0
    assert len(out.strip().split("\n")) == 10 * 3 * (2 + 1)


def test_summary(tmp_path, capsys):
    f = tmp_path / "toy.tsv"
    f.write_text("a b 0\nb c 43200\n")
    code, out, _ = run(capsys, "summary", "--input", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["node_count"] == 3
    assert doc["event_count"] == 2
    assert doc["horizon"] == 43201
    assert doc["activity_per_person_day"] == pytest.approx(
        2 / (3 * (43201 / 86400)), rel=1e-9)


def test_sweep_toy(tmp_path, capsys):
    f = tmp_path / "toy.tsv"
    f.write_text("a b 0\nb c 1\na c 3\n")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "sweep", "--input", str(f), "--grid", "log:5",
                         "--out-dir", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["entries"]) <= 5
    for metric in ("mk", "stddev", "cv", "shannon:10", "cre"):
        assert metric in report["gamma"]
        assert (out_dir / f"curve_{metric.replace(':', '')}.csv").exists()
    gamma = json.loads(out)["gamma"]
    assert set(gamma) == {"mk", "stddev", "cv", "shannon:10", "cre"}
    curve = (out_dir / "curve_mk.csv").read_text().splitlines()
    assert curve[0] == "K,delta_s,score"
    assert len(curve) == len(report["entries"]) + 1


def test_sweep_k_list_and_classic(tmp_path, capsys):
    f = tmp_path / "toy.tsv"
    f.write_text("a b 0\nb c 1\na c 3\nc d 2\n")
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "sweep", "--input", str(f), "--k-list", "1,2,4",
                       "--classic", "--metric", "mk", "--out-dir", str(out_dir))
    assert code == 0
    assert set(json.loads(out)["gamma"]) == {"mk"}
    classic = (out_dir / "classic.csv").read_text().splitlines()
    assert classic[0] == ("K,delta_s,density,degree,largest_cc,non_isolated,"
                          "d_time,d_hops,d_time_abs,finite_frac")
    assert len(classic) == 4
    report = json.loads((out_dir / "report.json").read_text())
    assert [e["K"] for e in report["entries"]] == [4, 2, 1]
    assert all("classic" in e for e in report["entries"])


def test_sweep_shannon_slot_metric(tmp_path, capsys):
    f = tmp_path / "toy.tsv"
    f.write_text("a b 0\nb c 1\na c 3\nc d 2\n")
    code, out, _ = run(capsys, "sweep", "--input", str(f), "--k-list", "1,4",
                       "--metric", "shannon:5", "--out-dir", str(tmp_path / "o"))
    assert code == 0
    assert set(json.loads(out)["gamma"]) == {"shannon:5"}


def test_distribution_total_aggregation(tmp_path, capsys):
    f = tmp_path / "toy.tsv"
    f.write_text("a b 0\nb c 5\n")
    code, out, _ = run(capsys, "distribution", "--input", str(f), "--k", "1")
    assert code == 0
    assert out == "lambda,icd\n0,1\n1,0\n"


def test_distribution_two_step(tmp_path, capsys):
    # single edge in the middle of K=2 resolution: trips of occ 1/2 and 1
    f = tmp_path / "toy.tsv"
    f.write_text("a b 2\na b 3\n")
    code, out, _ = run(capsys, "distribution", "--input", str(f), "--k", "2")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "lambda,icd"
    assert rows[1].startswith("0,")


def test_classic_subcommand(tmp_path, capsys):
    f = tmp_path / "toy.tsv"
    f.write_text("a b 0\nb c 1\na c 3\n")
    code, out, _ = run(capsys, "classic", "--input", str(f), "--k-list", "1,4")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("K,delta_s,density")
    assert len(rows) == 3
    # K=1 endpoints: one snapshot, distance one window, absolute = horizon
    k1 = rows[2].split(",")
    assert k1[0] == "1" and k1[6] == "1" and k1[7] == "1" and k1[8] == "4"


def test_validate_toy(tmp_path, capsys):
    f = tmp_path / "toy.tsv"
    f.write_text("a b 0\nb c 1\nc d 5\nb d 7\n")
    code, out, _ = run(capsys, "validate", "--input", str(f), "--k-list", "1,8")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "K,delta_s,lost_fraction,mean_elongation,samples"
    by_k = {int(r.split(",")[0]): r.split(",") for r in rows[1:]}
    assert by_k[1][2] == "1"      # everything lost in one window
    assert by_k[8][2] == "0"      # nothing lost at the resolution


def test_validate_at_gamma(tmp_path, capsys):
    f = tmp_path / "toy.tsv"
    f.write_text("a b 0\nb c 1\na c 3\nc d 2\nb d 6\n")
    code, out, _ = run(capsys, "validate", "--input", str(f), "--at-gamma",
                       "--grid", "log:4")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_validate_max_samples_subsamples(tmp_path, capsys):
    # the time-uniform stream of criterion 3 at 5 links per pair: a few
    # hundred trips are eligible at K=6, and --max-samples 10 scores a
    # sample of them instead of all
    stream = gen_uniform(UniformSpec(node_count=30, links_per_pair=5,
                                     horizon=20000, seed=1))
    f = tmp_path / "uniform.tsv"
    with open(f, "w", encoding="utf-8") as fh:
        write_tsv(stream, fh)

    def scored(max_samples):
        code, out, err = run(capsys, "validate", "--input", str(f),
                             "--k-list", "6", "--max-samples", max_samples)
        assert code == 0
        return int(out.strip().splitlines()[1].split(",")[4]), err

    everything, err = scored("100000")
    assert everything > 100 and "subsample" not in err
    sample, err = scored("10")
    assert 1 <= sample <= 40 and "subsample" in err


def test_unknown_metric_rejected_before_any_work(tmp_path, capsys):
    f = tmp_path / "toy.tsv"
    f.write_text("a b 0\nb c 1\na c 3\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "sweep", "--input", str(f), "--grid", "log:5",
                       "--metric", "bogus", "--out-dir", str(out_dir))
    assert code == 2 and "unknown metric 'bogus'" in err
    assert "K=" not in err and not (out_dir / "report.json").exists()
    for argv in (("--metric", "shannon:1"), ("--shannon-slots", "1")):
        code, _, err = run(capsys, "sweep", "--input", str(f), "--grid", "log:5",
                           *argv, "--out-dir", str(out_dir))
        assert code == 2 and "slot count" in err and "K=" not in err
    # validate picks one K, so "all" names no metric there
    for metric in ("bogus", "all"):
        code, _, err = run(capsys, "validate", "--input", str(f), "--at-gamma",
                           "--grid", "log:5", "--metric", metric)
        assert code == 2 and f"unknown metric '{metric}'" in err
        assert "K=" not in err


def test_validate_without_k_rejected_before_loading(tmp_path, capsys):
    code, _, err = run(capsys, "validate", "--input", str(tmp_path / "nope.tsv"))
    assert code == 2 and "needs --k-list or --at-gamma" in err


def test_k_list_out_of_range_rejected_before_any_work(tmp_path, capsys):
    f = tmp_path / "toy.tsv"
    f.write_text("a b 0\nb c 1\na c 1999\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "sweep", "--input", str(f), "--k-list", "0,1000",
                       "--out-dir", str(out_dir))
    assert code == 2 and "--k-list value 0 is outside [1, 2000]" in err
    assert "K=" not in err and not (out_dir / "report.json").exists()
    code, _, err = run(capsys, "validate", "--input", str(f),
                       "--k-list", "1000,2001")
    assert code == 2 and "--k-list value 2001 is outside [1, 2000]" in err
    assert "K=" not in err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # missing --input
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1


def test_data_errors_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "summary", "--input", str(tmp_path / "nope.tsv"))
    assert code == 2
    bad = tmp_path / "bad.tsv"
    bad.write_text("a b xyz\n")
    code, _, err = run(capsys, "summary", "--input", str(bad))
    assert code == 2
    assert "error" in err
    toy = tmp_path / "toy.tsv"
    toy.write_text("a b 0\nb c 1\n")
    code, _, _ = run(capsys, "sweep", "--input", str(toy), "--k-list", "0",
                     "--out-dir", str(tmp_path / "o"))
    assert code == 2


def test_timestamp_beyond_64_bits_exits_2(tmp_path, capsys):
    f = tmp_path / "big.tsv"
    f.write_text("a\tb\t1\nb\tc\t100000000000000000000\n")
    code, _, err = run(capsys, "summary", "--input", str(f))
    assert code == 2
    assert "line 2" in err and "64 bits" in err


def test_timestamp_span_beyond_64_bits_exits_2(tmp_path, capsys):
    # each timestamp fits int64, their difference does not
    f = tmp_path / "wide.tsv"
    f.write_text("a\tb\t-9000000000000000000\nb\tc\t9000000000000000000\n")
    code, _, err = run(capsys, "summary", "--input", str(f))
    assert code == 2
    assert "horizon does not fit 31 bits" in err


def test_report_golden_toy(tmp_path, capsys):
    # schema-stability golden: exact values for a frozen 3-event toy
    f = tmp_path / "toy.tsv"
    f.write_text("a b 0\nb c 1\na c 3\n")
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "sweep", "--input", str(f), "--k-list", "4,1",
                     "--out-dir", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert [e["K"] for e in report["entries"]] == [4, 1]
    fine = report["entries"][0]
    assert fine["trip_count"] == 8
    # 7 one-window trips (occ 1) and one two-hop trip over three windows
    assert fine["icd"] == [[0.0, 1.0], [0.666666666667, 0.875], [1.0, 0.0]]
    assert fine["metrics"]["mk"] == pytest.approx(1 / 24, abs=1e-10)
    total = report["entries"][1]
    assert total["trip_count"] == 6
    assert total["metrics"] == {"cre": 0.0, "cv": 0.0, "mk": 0.0,
                                "shannon:10": 0.0, "stddev": 0.0}
    assert report["gamma"]["mk"] == {"K": 4, "delta_s": 1.0}
    assert report["labels"] == ["a", "b", "c"]
    curve = (out_dir / "curve_mk.csv").read_text()
    assert curve == "K,delta_s,score\n4,1,0.0416666666667\n1,4,0\n"


def test_report_identical_across_threads(tmp_path, capsys):
    f = tmp_path / "toy.tsv"
    rows = []
    import numpy as np
    rng = np.random.default_rng(0)
    for _ in range(200):
        u, v = rng.integers(0, 12, size=2)
        if u != v:
            rows.append(f"n{u} n{v} {rng.integers(0, 500)}")
    f.write_text("\n".join(rows) + "\n")
    outs = {}
    for threads in ("1", "8"):
        out_dir = tmp_path / f"t{threads}"
        code, _, _ = run(capsys, "sweep", "--input", str(f), "--grid", "log:6",
                         "--threads", threads, "--classic",
                         "--out-dir", str(out_dir))
        assert code == 0
        outs[threads] = {p.name: p.read_bytes()
                         for p in sorted(out_dir.iterdir())}
    assert outs["1"] == outs["8"]
