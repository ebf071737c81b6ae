"""Tests for the command-line front end and its file formats."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgecache
from edgecache import converse
from edgecache.cli import (
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    MAX_INT_TEXT,
    MAX_RATIONAL_DIGITS,
    build_parser,
    main,
    replay_manifest,
)
from edgecache.bounds import MAX_GRID_ROWS, default_mu_grid
from edgecache.errors import ArgumentError
from edgecache.model import (
    MAX_CAMPAIGN_TRIALS,
    MAX_CONVERSE_COST,
    MAX_LIBRARY_BITS,
    MAX_LINKS,
    MAX_NODES,
    MAX_SEED,
    MAX_SNR_DB,
    MIN_TRIALS_PER_SNR,
    FileLibrary,
    validate_config,
)

F = Fraction
NINES = "9" * 3000  # as M and K, 12*M*K is past str()'s 4,300-digit limit


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def no_work(*args, **kwargs):
    raise AssertionError("work ran on a run over a cap")


def no_draws(monkeypatch):
    """Fail the converse's first draws: the noise covariance and every
    channel stack."""
    monkeypatch.setattr(converse, "noise_covariance", no_work)
    monkeypatch.setattr(converse, "sample_regular_channel", no_work)


def read_rows(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def row_fraction(row, prefix):
    num, den = row[f"{prefix}_num"], row[f"{prefix}_den"]
    if num == "":
        return None
    return F(int(num), int(den))


class TestBoundsCommand:
    def test_2x2_perfect_is_two_minus_mu(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = main(["bounds", "--m", "2", "--k", "2",
                     "--grid-step", "1/24", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 13
        for row in rows:
            mu = row_fraction(row, "mu")
            assert row_fraction(row, "lower") == 2 - mu
            assert row_fraction(row, "upper") == 2 - mu
            assert row["tight"] == "1"
        assert "[1/2, 1]" in capsys.readouterr().out

    def test_3x3_meeting_point(self, tmp_path):
        out = tmp_path / "b33.csv"
        assert main(["bounds", "--m", "3", "--k", "3",
                     "--out", str(out)]) == EXIT_OK
        rows = {row_fraction(r, "mu"): r for r in read_rows(out)}
        meet = rows[F(2, 3)]
        assert row_fraction(meet, "lower") == F(7, 6)
        assert row_fraction(meet, "upper") == F(7, 6)
        assert meet["ell_star"] == "2"
        assert meet["tight"] == "1"

    def test_nocsi_emits_no_converse(self, tmp_path):
        out = tmp_path / "bn.csv"
        assert main(["bounds", "--m", "2", "--k", "2", "--csi", "nocsi",
                     "--out", str(out)]) == EXIT_OK
        for row in read_rows(out):
            assert row["lower_num"] == "" and row["lower_den"] == ""
            assert row["ell_star"] == "" and row["tight"] == ""
            assert row_fraction(row, "upper") == 2

    def test_delayed_unsupported_outside_2x2(self, tmp_path, capsys):
        code = main(["bounds", "--m", "3", "--k", "3", "--csi", "delayed",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_UNSUPPORTED

    def test_infeasible_config(self, tmp_path):
        code = main(["simulate", "--m", "2", "--k", "3", "--n", "2",
                     "--mu", "1", "--scheme", "zf", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_UNSUPPORTED  # N < K

    def test_bad_flags(self, tmp_path):
        assert main(["bounds", "--m", "2", "--out", "x.csv"]) == EXIT_USAGE
        assert main(["bounds", "--m", "2", "--k", "2", "--grid-step", "zebra",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("m,step", [(2, "1/100000000"), (2, "1/2000000"),
                                        (100, "1/1010102")])
    def test_grid_over_the_row_cap_builds_nothing(self, tmp_path, monkeypatch,
                                                  m, step):
        def no_numerators(*args):
            raise AssertionError("a grid numerator was built")

        # default_mu_grid builds its numerators with range(): under the cap
        # the patch stops it, over the cap the refusal comes first
        monkeypatch.setattr("edgecache.bounds.range", no_numerators,
                            raising=False)
        with pytest.raises(AssertionError, match="grid numerator"):
            default_mu_grid(validate_config(m, 2, 2, F(1), 6), F(1, 2))
        code = main(["bounds", "--m", str(m), "--k", "2", "--grid-step", step,
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("m,step", [("401", "1/24"), ("30000000", "1")])
    def test_network_over_the_node_cap_builds_nothing(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      m, step):
        # at a step of 1 the row cap never triggers, and the converse curve
        # costs time and memory in proportion to min(M, K)
        monkeypatch.setattr("edgecache.cli.default_mu_grid", no_work)
        monkeypatch.setattr("edgecache.bounds.lower_bound_curve", no_work)
        code = main(["bounds", "--m", m, "--k", m, "--grid-step", step,
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert f"{m} is more than the {MAX_NODES} allowed" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("step", ["", "0", "0/5", "-1/2", "zebra", "1/0",
                                      "nan", "inf", "1/2/3"])
    def test_grid_step_must_be_a_positive_rational(self, tmp_path, capsys,
                                                   monkeypatch, step):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran with a bad --grid-step")

        for work in ("default_mu_grid", "tradeoff_sweep"):
            monkeypatch.setattr(f"edgecache.cli.{work}", no_work)
        code = main(["bounds", "--m", "2", "--k", "2", f"--grid-step={step}",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert "--grid-step" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("m,step", [(2, F(1, 3)), (3, F(1, 4)),
                                        (3, F(2, 3)), (1, F(1, 7))])
    def test_grid_row_cap_counts_the_rows_built(self, monkeypatch, m, step):
        config = validate_config(m, 2, 2, F(1), 6)
        rows = len(default_mu_grid(config, step))
        monkeypatch.setattr("edgecache.bounds.MAX_GRID_ROWS", rows)
        assert len(default_mu_grid(config, step)) == rows
        monkeypatch.setattr("edgecache.bounds.MAX_GRID_ROWS", rows - 1)
        with pytest.raises(ArgumentError, match=f"gives {rows} rows"):
            default_mu_grid(config, step)

    def test_json_flag_writes_copy(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bounds", "--m", "2", "--k", "2", "--json",
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads((tmp_path / "b.json").read_text())
        assert doc["csi"] == "perfect"
        assert doc["rows"][0]["mu"] == "1/2"
        assert doc["rows"][0]["tight"] is True

    @pytest.mark.parametrize("args,first_line", [
        pytest.param(
            ["--m", "30", "--k", "30", "--grid-step", "1/1800"],
            "tight regions (lower = upper): {1/30} u {1}", id="30x30"),
        pytest.param(
            ["--m", "2", "--k", "2"],
            "tight regions (lower = upper): [1/2, 1]", id="2x2-perfect"),
        pytest.param(
            ["--m", "2", "--k", "2", "--csi", "delayed"],
            "delayed CSI: achievability only, no converse emitted",
            id="2x2-delayed"),
        pytest.param(
            ["--m", "2", "--k", "2", "--csi", "nocsi"],
            "nocsi CSI: achievability only, no converse emitted",
            id="2x2-nocsi"),
        pytest.param(
            ["--m", "3", "--k", "3"],
            "tight regions (lower = upper): {1/3} u [2/3, 1]", id="3x3"),
        pytest.param(
            ["--m", "2", "--k", "3"],
            "tight regions (lower = upper): {1/2} u {1}", id="2x3"),
        pytest.param(
            ["--m", "1", "--k", "4"],
            "tight regions (lower = upper): {1}", id="1x4"),
        pytest.param(
            ["--m", "7", "--k", "1"],
            "tight regions (lower = upper): [1/7, 1]", id="7x1"),
        pytest.param(  # a step that does not divide 1 - 1/M
            ["--m", "12", "--k", "5", "--grid-step", "1/97"],
            "tight regions (lower = upper): {1/12} u {1}", id="12x5"),
    ])
    def test_first_printed_line(self, tmp_path, capsys, args, first_line):
        """The tight regions, or why there are none. The digest corpus's
        `bounds-*` entries hold each run's CSV and JSON bytes."""
        out = tmp_path / "b.csv"
        assert main(["bounds", *args, "--json", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == first_line

    def test_rational_round_trip_lossless(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["bounds", "--m", "3", "--k", "3", "--out", str(out)])
        for row in read_rows(out):
            mu = row_fraction(row, "mu")
            assert (str(mu.numerator), str(mu.denominator)) == \
                (row["mu_num"], row["mu_den"])


class TestSimulateCommand:
    ARGS = ["simulate", "--m", "2", "--k", "2", "--mu", "1", "--scheme", "zf",
            "--trials", "60", "--snr-grid", "20,40,60", "--seed", "42"]

    def test_zero_forcing_summary(self, tmp_path):
        out = tmp_path / "zf.csv"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_OK
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert 0.9 < summary["ndt_estimate"] < 1.15
        assert summary["analytic"]["ndt_achievable"] == "1"
        assert summary["analytic"]["ndt_lower_bound"] == "1"
        rows = read_rows(out)
        assert [r["snr_db"] for r in rows] == ["20.0", "40.0", "60.0"]
        assert all(int(r["trials"]) == 60 for r in rows)

    def test_deterministic_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(self.ARGS + ["--out", str(out1)])
        main(self.ARGS + ["--out", str(out2)])
        assert digest(out1) == digest(out2)
        assert digest(out1.with_suffix(".summary.json")) == \
            digest(out2.with_suffix(".summary.json"))

    def test_manifest_replay_reproduces_output(self, tmp_path):
        out = tmp_path / "a.csv"
        main(self.ARGS + ["--out", str(out)])
        manifest = json.loads((tmp_path / "a.manifest.json").read_text())
        assert manifest["master_seed"] == 42
        assert manifest["config"]["frac_cache"] == "1"
        replayed = tmp_path / "c.csv"
        assert replay_manifest(tmp_path / "a.manifest.json", replayed) == EXIT_OK
        assert digest(replayed) == manifest["output_digests"]["a.csv"]

    @pytest.mark.parametrize("out_args", [
        lambda out: [f"--out={out}"],
        lambda out: ["--ou", out],   # argparse accepts unique prefixes
        lambda out: [f"--o={out}"],
    ], ids=["equals", "prefix", "prefix-equals"])
    def test_manifest_replay_finds_other_out_spellings(self, tmp_path, out_args):
        out = tmp_path / "a.csv"
        assert main(self.ARGS + out_args(str(out))) == EXIT_OK
        manifest = json.loads((tmp_path / "a.manifest.json").read_text())
        replayed = tmp_path / "c.csv"
        assert replay_manifest(tmp_path / "a.manifest.json", replayed) == EXIT_OK
        assert digest(replayed) == manifest["output_digests"]["a.csv"]

    def test_alignment_scheme_summary(self, tmp_path):
        out = tmp_path / "ia.csv"
        code = main(["simulate", "--m", "2", "--k", "2", "--mu", "1/2",
                     "--scheme", "ia", "--trials", "60", "--seed", "42",
                     "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert 1.3 < summary["ndt_estimate"] < 1.8
        assert summary["analytic"]["ndt_achievable"] == "3/2"

    def test_tdma_scheme_runs(self, tmp_path):
        out = tmp_path / "td.csv"
        code = main(["simulate", "--m", "2", "--k", "2", "--mu", "1/2",
                     "--scheme", "tdma", "--trials", "60", "--seed", "42",
                     "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["analytic"]["csi_mode"] == "nocsi"
        assert summary["analytic"]["ndt_achievable"] == "2"

    def test_incompatible_scheme_and_mu(self, tmp_path):
        code = main(["simulate", "--m", "2", "--k", "2", "--mu", "1",
                     "--scheme", "ia", "--trials", "60", "--seed", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_UNSUPPORTED

    def test_insufficient_data_is_usage_error(self, tmp_path):
        code = main(["simulate", "--m", "2", "--k", "2", "--mu", "1",
                     "--scheme", "zf", "--trials", "10", "--seed", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("trials", ["0", "-3", "49"])
    def test_too_few_trials_rejected_at_parser(self, tmp_path, monkeypatch,
                                               trials):
        def no_campaign(*args, **kwargs):
            raise AssertionError("a campaign ran with too few trials")

        monkeypatch.setattr("edgecache.cli.run_campaign", no_campaign)
        # the later --trials overrides the valid one in ARGS
        code = main(self.ARGS + ["--trials", trials,
                                 "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_minimum_trials_accepted(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(self.ARGS + ["--trials", "50", "--out", str(out)]) == EXIT_OK
        assert all(int(r["trials"]) == 50 for r in read_rows(out))

    def test_seed_required(self, tmp_path):
        code = main(["simulate", "--m", "2", "--k", "2", "--mu", "1",
                     "--scheme", "zf", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("grid", [
        "20,30,40,40",  # duplicate point
        "20,40,20.0",   # duplicate under a different spelling
        "20,nan,40",
        "20,40,inf",
        "20,,40",
        "20,40",        # two points: the slope fit needs three
        "20,25,30",     # spans 10 dB: the slope fit needs 20
        "20,40,4000",   # the power overflows a float
        "20,40,3080",   # finite power, but the SINRs overflow to NaN rates
        "20,40,1500.5",  # just above MAX_SNR_DB
    ])
    def test_bad_snr_grid_rejected_before_any_trial(self, tmp_path,
                                                    monkeypatch, grid):
        def no_campaign(*args, **kwargs):
            raise AssertionError("a trial ran on a rejected SNR grid")

        monkeypatch.setattr("edgecache.cli.run_campaign", no_campaign)
        out = tmp_path / "x.csv"
        # the later --snr-grid overrides the valid one in ARGS
        code = main(self.ARGS + ["--snr-grid", grid, "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("scheme,mu", [("zf", "1"), ("ia", "1/2"),
                                           ("hybrid", "3/4"), ("tdma", "1/2")])
    def test_snr_at_the_limit_gives_finite_output(self, tmp_path, scheme, mu):
        out = tmp_path / "x.csv"
        code = main(["simulate", "--m", "2", "--k", "2", "--mu", mu,
                     "--scheme", scheme, "--trials", "50", "--seed", "0",
                     f"--snr-grid=20,40,{MAX_SNR_DB}", "--out", str(out)])
        assert code == EXIT_OK
        for row in read_rows(out):
            assert all(math.isfinite(float(row[col]))
                       for col in ("mean_sum_rate", "mean_delta"))

    @pytest.mark.parametrize("scheme,mu", [("zf", "1"), ("ia", "1/2"),
                                           ("hybrid", "3/4"), ("tdma", "1/2")])
    def test_zero_sum_rate_is_unsupported(self, tmp_path, scheme, mu):
        # at -400 dB every log2(1 + SINR) rounds to 0: no bit gets through
        code = main(["simulate", "--m", "2", "--k", "2", "--mu", mu,
                     "--scheme", scheme, "--trials", "50", "--seed", "0",
                     "--snr-grid=-400,20,40", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_UNSUPPORTED
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bits", ["2", "4"])
    def test_unrealizable_mu_rejected_before_any_trial(self, tmp_path,
                                                       monkeypatch, capsys,
                                                       bits):
        # alpha*L is 4/3 or 8/3 bits, not a whole multiple of M = 2, so no
        # split stores exactly 2/3 of each file at every EN
        def no_campaign(*args, **kwargs):
            raise AssertionError("a trial ran on an unrealizable mu")

        monkeypatch.setattr("edgecache.cli.run_campaign", no_campaign)
        code = main(["simulate", "--m", "2", "--k", "2", "--mu", "2/3",
                     "--scheme", "hybrid", "--l", bits, "--trials", "50",
                     "--seed", "0", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert f"mu = 2/3 cannot be stored exactly at L = {bits}" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["--m", "2", "--k", "2", "--mu", "2/3", "--scheme", "hybrid"],
        ["--m", "2", "--k", "2", "--mu", "3/4", "--scheme", "hybrid"],
        ["--m", "6", "--k", "6", "--n", "400", "--l", "48000", "--mu", "1/2",
         "--scheme", "tdma", "--snr-grid", "20,40,60"],
        # M = 3 does not divide L, but alpha*L = 750 is 250 whole fragments
        ["--m", "3", "--k", "3", "--l", "1000", "--mu", "1/2",
         "--scheme", "tdma"],
    ], ids=["hybrid-2/3", "hybrid-3/4", "library-config", "m-not-dividing-l"])
    def test_realizable_mu_runs(self, tmp_path, args):
        out = tmp_path / "x.csv"
        assert main(["simulate", *args, "--trials", "50", "--seed", "0",
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(out.with_suffix(".summary.json").read_text())[
            "mu"] == args[args.index("--mu") + 1]

    def test_benchmark_simulations_read_no_library_bit(self, tmp_path,
                                                      monkeypatch):
        """The benchmark's `sim-library` and `sim-2x2` calls at its reference
        seed write the reference bytes without drawing a library bit."""
        def no_bits(library):
            raise AssertionError("simulate read a library bit")

        monkeypatch.setattr(FileLibrary, "files", property(no_bits))
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses
        spec.loader.exec_module(workloads)
        seed = workloads.REFERENCE_SEED
        for name in ("sim-library", "sim-2x2"):
            reference = json.loads(
                (bench / "reference" / f"{name}.json").read_text())
            assert reference["seed"] == seed
            for call in workloads.WORKLOADS[name].calls:
                assert main(call.argv(seed, tmp_path)) == EXIT_OK
                digests = reference["calls"][call.stem]["sha256"]
                assert {file: digest(tmp_path / file) for file in digests} \
                    == digests

    def test_single_en_full_caching_runs_zero_forcing(self, tmp_path):
        """At M = 1, mu = 1 is both 1/M and full caching; zero-forcing
        needs the full placement."""
        assert main(["simulate", "--m", "1", "--k", "1", "--mu", "1",
                     "--scheme", "zf", "--trials", "50", "--seed", "3",
                     "--out", str(tmp_path / "zf.csv")]) == EXIT_OK

    def test_library_over_the_cap_draws_nothing(self, tmp_path, monkeypatch,
                                                capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("a library over the cap was drawn")

        monkeypatch.setattr("numpy.random.default_rng", no_draw)
        code = main(["simulate", "--m", "2", "--k", "2", "--n", "100000",
                     "--l", "1200000", "--mu", "1/2", "--scheme", "tdma",
                     "--trials", "50", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert "100000 x 1200000 bits exceeds" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_caps_admit_the_largest_runs(self):
        assert 5 * 5000 <= MAX_CAMPAIGN_TRIALS  # largest campaign profiled
        assert 8 * 8 <= MAX_LINKS  # the converse acceptance test's 8x8

    @pytest.mark.parametrize("cap,size,what", [
        ("MAX_LINKS", 3 * 2, "K*M is 6,"),
        ("MAX_CAMPAIGN_TRIALS", 3 * 50, "trials x SNR points is 150,"),
    ])
    def test_caps_refuse_before_any_work(self, tmp_path, monkeypatch, capsys,
                                         cap, size, what):
        args = ["simulate", "--m", "3", "--k", "2", "--mu", "1",
                "--scheme", "zf", "--snr-grid", "20,40,60", "--trials", "50",
                "--seed", "0"]
        monkeypatch.setattr(f"edgecache.model.{cap}", size)
        assert main(args + ["--out", str(tmp_path / "at.csv")]) == EXIT_OK
        monkeypatch.setattr(f"edgecache.model.{cap}", size - 1)
        monkeypatch.setattr("numpy.random.default_rng", no_work)
        monkeypatch.setattr("edgecache.streams.trial_seeds", no_work)
        over = tmp_path / "over"
        assert main(args + ["--out", str(over / "x.csv")]) == EXIT_USAGE
        assert what in capsys.readouterr().err
        assert not over.exists()

    @pytest.mark.parametrize("args", [
        ["--m", "100000", "--k", "100000", "--trials", "50"],
        ["--m", "2", "--k", "2", "--trials", str(10 ** 12)],
    ], ids=["network", "trials"])
    def test_oversized_run_exits_2_without_a_traceback(self, tmp_path,
                                                       monkeypatch, capsys,
                                                       args):
        monkeypatch.setattr(FileLibrary, "random", no_work)
        monkeypatch.setattr("edgecache.streams.trial_seeds", no_work)
        code = main(["simulate", *args, "--mu", "1", "--scheme", "zf",
                     "--seed", "0", "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "allowed" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_rejected(self, tmp_path):
        # the later --seed overrides the valid one in ARGS
        code = main(self.ARGS + ["--seed", "-1", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_workers_flag_removed(self, tmp_path):
        code = main(self.ARGS + ["--workers", "2",
                                 "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE


class TestVerifyConverseCommand:
    def test_all_cuts_pass(self, tmp_path):
        out = tmp_path / "v.json"
        code = main(["verify-converse", "--m", "3", "--k", "3", "--ell", "all",
                     "--trials", "150", "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert [c["ell"] for c in doc["checks"]] == [1, 2, 3]
        for check in doc["checks"]:
            assert check["max_reconstruction_residual"] < 1e-9
            assert check["max_logdet_oracle_error"] < 1e-10

    def test_degenerate_cut_zero_residuals(self, tmp_path):
        out = tmp_path / "v22.json"
        assert main(["verify-converse", "--m", "2", "--k", "2", "--ell", "2",
                     "--trials", "50", "--seed", "0", "--out", str(out)]) == EXIT_OK
        (check,) = json.loads(out.read_text())["checks"]
        assert check["max_reconstruction_residual"] == 0.0
        assert check["noise_cov_error"] == 0.0

    def test_wide_network_oracle_agreement(self, tmp_path):
        out = tmp_path / "v43.json"
        assert main(["verify-converse", "--m", "4", "--k", "3", "--ell", "2",
                     "--trials", "300", "--seed", "3", "--out", str(out)]) == EXIT_OK
        (check,) = json.loads(out.read_text())["checks"]
        assert check["max_logdet_oracle_error"] < 1e-10

    def test_tolerance_breach_exit_code_and_report(self, tmp_path):
        out = tmp_path / "vf.json"
        code = main(["verify-converse", "--m", "2", "--k", "2",
                     "--trials", "50", "--seed", "0",
                     "--tol-reconstruction", "1e-30", "--out", str(out)])
        assert code == EXIT_TOLERANCE
        doc = json.loads(out.read_text())  # report still written
        assert doc["pass"] is False

    def test_bad_ell(self, tmp_path):
        code = main(["verify-converse", "--m", "2", "--k", "2", "--ell", "9",
                     "--trials", "50", "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("ell", ["foo", "0", "1.5", ""])
    def test_malformed_ell_rejected_at_parser(self, tmp_path, monkeypatch, ell):
        def no_handler(*args, **kwargs):
            raise AssertionError("the handler ran on a malformed --ell")

        monkeypatch.setattr("edgecache.cli.cmd_verify_converse", no_handler)
        code = main(["verify-converse", "--m", "2", "--k", "2", "--ell", ell,
                     "--seed", "0", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("args", [
        ["--trials", "0"],
        ["--trials", "-3"],
        ["--seed", "-1"],
    ])
    def test_bad_count_or_seed_writes_no_report(self, tmp_path, args):
        out = tmp_path / "v.json"
        code = main(["verify-converse", "--m", "2", "--k", "2", "--seed", "0",
                     *args, "--out", str(out)])
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_links_cap_refuses_before_any_work(self, tmp_path, monkeypatch,
                                               capsys):
        args = ["verify-converse", "--m", "3", "--k", "2", "--trials", "50",
                "--seed", "0"]
        monkeypatch.setattr("edgecache.model.MAX_LINKS", 3 * 2)
        assert main(args + ["--out", str(tmp_path / "at.json")]) == EXIT_OK
        monkeypatch.setattr("edgecache.model.MAX_LINKS", 3 * 2 - 1)
        no_draws(monkeypatch)
        over = tmp_path / "over"
        assert main(args + ["--out", str(over / "v.json")]) == EXIT_USAGE
        assert "K*M is 6," in capsys.readouterr().err
        assert not over.exists()

    def test_trials_cap_refuses_before_any_work(self, tmp_path, monkeypatch,
                                                capsys):
        # --ell all at 3x2 runs 2 cuts; one cut is capped by --trials itself
        args = ["verify-converse", "--m", "3", "--k", "2", "--ell", "all",
                "--trials", "50", "--seed", "0"]
        monkeypatch.setattr("edgecache.model.MAX_CAMPAIGN_TRIALS", 50 * 2)
        assert main(args + ["--out", str(tmp_path / "at.json")]) == EXIT_OK
        monkeypatch.setattr("edgecache.model.MAX_CAMPAIGN_TRIALS", 50 * 2 - 1)
        no_draws(monkeypatch)
        over = tmp_path / "over"
        assert main(args + ["--out", str(over / "v.json")]) == EXIT_USAGE
        assert "trials x cuts is 100," in capsys.readouterr().err
        assert not over.exists()

    def test_cost_cap_refuses_before_any_work(self, tmp_path, monkeypatch,
                                              capsys):
        # --ell all at 3x2 runs the cuts ell = 1 and 2: 50 x (1 + 8)
        args = ["verify-converse", "--m", "3", "--k", "2", "--ell", "all",
                "--trials", "50", "--seed", "0"]
        monkeypatch.setattr("edgecache.model.MAX_CONVERSE_COST", 50 * 9)
        assert main(args + ["--out", str(tmp_path / "at.json")]) == EXIT_OK
        monkeypatch.setattr("edgecache.model.MAX_CONVERSE_COST", 50 * 9 - 1)
        no_draws(monkeypatch)
        over = tmp_path / "over"
        assert main(args + ["--out", str(over / "v.json")]) == EXIT_USAGE
        assert "trials x the sum of ell^3 over the cuts is 450," in \
            capsys.readouterr().err
        assert not over.exists()

    @pytest.mark.parametrize("trials,code", [
        (50, EXIT_OK),          # the planned 16x16 workload
        (200, EXIT_OK),         # the cap itself
        (201, EXIT_USAGE),
        (6250, EXIT_USAGE),     # within trials x cuts, about 165 s of work
    ])
    def test_cost_cap_at_16x16(self, tmp_path, monkeypatch, trials, code):
        """The real checks run, and a run they admit stops at its first
        draw with no checks to report."""
        assert MAX_CONVERSE_COST == 200 * sum(ell**3 for ell in range(1, 17))
        calls = []

        class FirstDraw(Exception):
            pass

        def first_draw(*args):
            raise FirstDraw

        def record(config, ells, trials, seed):
            try:
                converse.verify_converse(config, ells, trials=trials, seed=seed)
            except FirstDraw:
                calls.append(trials)
            return []

        monkeypatch.setattr(converse, "noise_covariance", first_draw)
        monkeypatch.setattr("edgecache.cli.verify_converse", record)
        out = tmp_path / "v.json"
        assert main(["verify-converse", "--m", "16", "--k", "16", "--ell",
                     "all", "--trials", str(trials), "--seed", "0",
                     "--out", str(out)]) == code
        assert calls == ([trials] if code == EXIT_OK else [])
        assert out.exists() is (code == EXIT_OK)

    def test_oversized_network_exits_2_without_a_traceback(self, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.setattr("edgecache.cli.verify_converse", no_work)
        code = main(["verify-converse", "--m", "100000", "--k", "100000",
                     "--trials", "50", "--seed", "0",
                     "--out", str(tmp_path / "v.json")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "allowed" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--tol-reconstruction", "--tol-logdet",
                                      "--tol-noise-cov"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9", "0",
                                       "tight"])
    def test_bad_tolerance_rejected_before_any_trial(self, tmp_path,
                                                     monkeypatch, flag, value):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran with a rejected tolerance")

        monkeypatch.setattr("edgecache.cli.verify_converse", no_trials)
        # `=` so that argparse reads "-1e-9" as a value, not as a flag
        code = main(["verify-converse", "--m", "2", "--k", "2", "--seed", "0",
                     f"{flag}={value}", "--out", str(tmp_path / "v.json")])
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_the_traced_draw_site_sees_every_channel_draw(self, tmp_path,
                                                          monkeypatch):
        """perfbench's `converse.sample` span wraps the module global
        `converse.sample_regular_channel`. Wrapped the same way, it is
        entered once per chunk of each cut and once for the cut's noise
        check, and the report keeps its bytes."""
        from edgecache import converse
        argv = ["verify-converse", "--m", "6", "--k", "6", "--trials", "150",
                "--seed", "0"]
        plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
        assert main([*argv, "--out", str(plain)]) == EXIT_OK
        calls, real = Counter(), converse.sample_regular_channel

        def counted(*args, **kwargs):
            calls[args[3]] += 1  # (rng, num_users, num_ens, ell, ...)
            return real(*args, **kwargs)

        monkeypatch.setattr(converse, "sample_regular_channel", counted)
        assert main([*argv, "--out", str(traced)]) == EXIT_OK
        chunks = math.ceil(150 / converse.TRIAL_CHUNK)
        assert calls == {ell: chunks + 1 for ell in range(1, 7)}
        assert traced.read_bytes() == plain.read_bytes()

    def test_report_schema_is_pinned(self, tmp_path):
        """The report's exact key sets, at the top, per check and per tolerance.

        The benchmark checks every report against its checked-in reference
        (`perfbench/reference/`) and rejects any change to these keys. A
        change to any set here therefore belongs in a benchmark change that
        regenerates that reference.
        """
        out = tmp_path / "v.json"
        main(["verify-converse", "--m", "3", "--k", "2", "--ell", "all",
              "--trials", "50", "--seed", "0", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert set(doc) == {"num_ens", "num_users", "master_seed",
                            "tolerances", "checks", "pass"}
        assert set(doc["tolerances"]) == {"reconstruction", "logdet_oracle",
                                          "noise_cov"}
        assert len(doc["checks"]) == 2
        for check in doc["checks"]:
            assert set(check) == {
                "ell", "trials", "lambda_max", "max_reconstruction_residual",
                "max_logdet", "max_logdet_oracle_error", "noise_cov_error",
                "noise_cov_samples", "pass",
            }


class TestMain:
    @pytest.mark.parametrize("command,text", [
        pytest.param(["bounds", "--grid-step"], "1e-5000", id="grid-step"),
        pytest.param(["simulate", "--scheme", "zf", "--seed", "0", "--mu"],
                     "1e-5000", id="mu"),
        pytest.param(["bounds", "--grid-step"], "1e-999999999",
                     id="grid-step-exponent"),
        pytest.param(["simulate", "--scheme", "zf", "--seed", "0", "--mu"],
                     "1/" + "7" * 5000, id="mu-text"),
        pytest.param(["bounds", "--grid-step"],
                     "1/" + "7" * (MAX_RATIONAL_DIGITS + 1), id="grid-step-den"),
    ])
    def test_an_over_long_rational_is_refused_by_its_flag(self, tmp_path,
                                                          capsys, command,
                                                          text):
        """Past the parser, such a value reaches an error message whose
        str() exceeds Python's 4,300-digit int-to-text limit."""
        code = main([*command, text, "--m", "2", "--k", "2",
                     "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert (f"argument {command[-1]}: more than {MAX_RATIONAL_DIGITS} "
                f"digits a part") in err
        assert "Traceback" not in err and len(err) < 1000
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text,value", [
        ("1/3", F(1, 3)), ("0.05", F(1, 20)), ("5e-2", F(1, 20)),
        ("1e-39", F(1, 10 ** 39)), ("9" * 40, F(10 ** 40 - 1)),
    ])
    def test_a_rational_at_the_digit_cap_parses(self, text, value):
        args = build_parser().parse_args(
            ["simulate", "--m", "2", "--k", "2", "--mu", text, "--scheme",
             "zf", "--seed", "0", "--out", "x.csv"])
        assert args.mu == value

    @pytest.mark.parametrize("argv", [
        ["bounds", "--m", NINES, "--k", NINES],
        ["verify-converse", "--m", NINES, "--k", "2", "--seed", "0"],
        ["simulate", "--m", "2", "--k", "2", "--l", NINES, "--mu", "1",
         "--scheme", "zf", "--seed", "0"],
    ], ids=["bounds", "verify-converse", "simulate"])
    def test_a_3000_digit_integer_is_refused_by_its_flag(self, tmp_path,
                                                         capsys, argv):
        """Past the parser, bounds put the grid step 1/(12*M*K) of such an
        M and K in an error message, whose str() fails past 4,300 digits."""
        code = main([*argv, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert ": not an integer in [1, " in err and "Traceback" not in err
        assert len(err.splitlines()[-1]) < 200
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--n", "--l"])
    @pytest.mark.parametrize("command", [
        ["bounds"], ["verify-converse", "--trials", "50", "--seed", "0"],
    ], ids=["bounds", "verify-converse"])
    def test_library_flags_belong_to_simulate_alone(self, tmp_path, capsys,
                                                    command, flag):
        # the bounds and the converse's checks depend on M and K alone
        code = main([*command, "--m", "2", "--k", "2", flag, "2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,flag,low,cap", [
        ("bounds", "--m", 1, MAX_NODES),
        ("bounds", "--k", 1, MAX_NODES),
        ("simulate", "--n", 1, MAX_LIBRARY_BITS),
        ("simulate", "--l", 1, MAX_LIBRARY_BITS),
        ("simulate", "--trials", MIN_TRIALS_PER_SNR, MAX_CAMPAIGN_TRIALS),
        ("simulate", "--seed", 0, MAX_SEED),
        ("verify-converse", "--trials", 1, MAX_CAMPAIGN_TRIALS),
        ("verify-converse", "--seed", 0, MAX_SEED),
        ("verify-converse", "--ell", 1, MAX_NODES),
    ])
    def test_an_integer_flag_takes_low_to_cap(self, capsys, command, flag,
                                              low, cap):
        parser = build_parser()
        argv = {"bounds": ["bounds"],
                "simulate": ["simulate", "--mu", "1", "--scheme", "zf",
                             "--seed", "0"],
                "verify-converse": ["verify-converse", "--seed", "0"],
                }[command] + ["--m", "2", "--k", "2", "--out", "x.csv"]
        for value in (low, cap):
            args = parser.parse_args([*argv, f"{flag}={value}"])
            assert getattr(args, flag[2:]) == value
        for value, says in ((low - 1, f"not an integer in [{low}, {cap}]"),
                            (cap + 1, f"{cap + 1} is more than the {cap}")):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*argv, f"{flag}={value}"])
            assert exc.value.code == EXIT_USAGE
            assert f"argument {flag}: {says}" in capsys.readouterr().err

    def test_an_integer_text_over_the_length_cap_is_refused(self, capsys):
        assert len(str(MAX_SEED)) < MAX_INT_TEXT  # every cap's digits fit
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["bounds", "--m", "0" * MAX_INT_TEXT + "2", "--k", "2",
                 "--out", "x.csv"])
        assert f"'{'0' * MAX_INT_TEXT}'" in capsys.readouterr().err

    def test_former_hangs_exit_2_at_once_in_a_fresh_process(self, tmp_path):
        """Each call once ran without finishing or ended in a traceback; the
        timeout fails a regression here rather than stalling the suite."""
        env = dict(os.environ, PYTHONPATH=str(
            Path(edgecache.__file__).resolve().parents[1]))
        for argv in (["bounds", "--m", "30000000", "--k", "30000000",
                      "--grid-step", "1"],
                     ["verify-converse", "--m", "2", "--k", "2",
                      "--trials", "100000000", "--seed", "0"],
                     ["bounds", "--m", NINES, "--k", NINES]):
            proc = subprocess.run(
                [sys.executable, "-m", "edgecache.cli", *argv,
                 "--out", str(tmp_path / "x.csv")],
                env=env, capture_output=True, text=True, timeout=10)
            assert proc.returncode == EXIT_USAGE
            assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ["bounds"],
        ["simulate", "--mu", "1", "--scheme", "zf", "--trials", "50",
         "--seed", "0"],
        ["verify-converse", "--trials", "50", "--seed", "0"],
    ])
    def test_non_positive_library_size_is_usage_error(self, tmp_path,
                                                      command, n):
        # only an omitted --n defaults to K; an explicit one is validated
        code = main([*command, "--m", "2", "--k", "2", "--n", n,
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", [
        "under-a-file", "a-directory", "under-a-dangling-symlink",
        "a-read-only-file"])
    @pytest.mark.parametrize("command", [
        ["bounds"],
        ["simulate", "--mu", "1", "--scheme", "zf", "--trials", "50",
         "--seed", "0"],
        ["verify-converse", "--trials", "50", "--seed", "0"],
    ], ids=["bounds", "simulate", "verify-converse"])
    def test_unwritable_out_rejected_before_any_work(self, tmp_path, capsys,
                                                     monkeypatch, command,
                                                     where):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran with an unwritable --out")

        for work in ("tradeoff_sweep", "run_campaign", "verify_converse"):
            monkeypatch.setattr(f"edgecache.cli.{work}", no_work)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "missing")
        out = {"under-a-file": blocker / "x.csv", "a-directory": tmp_path,
               "under-a-dangling-symlink": link / "x.csv",
               "a-read-only-file": blocker}[where]
        blocker.chmod(0o444)
        # the superuser may write any file, so access reports the mode bits
        real_access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: (
            real_access(path, mode)
            and not (mode & os.W_OK and Path(path) == blocker)))
        code = main([*command, "--m", "2", "--k", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "error:" in err and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == [blocker, link]
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("command,derived", [
        (["bounds", "--json"], "c.json"),
        (["bounds"], "c.manifest.json"),
        (["simulate", "--mu", "1", "--scheme", "zf", "--trials", "50",
          "--seed", "0"], "c.summary.json"),
        (["simulate", "--mu", "1", "--scheme", "zf", "--trials", "50",
          "--seed", "0"], "c.manifest.json"),
        (["verify-converse", "--trials", "50", "--seed", "0"],
         "c.manifest.json"),
    ], ids=["bounds-json", "bounds-manifest", "simulate-summary",
            "simulate-manifest", "verify-converse-manifest"])
    def test_a_derived_output_that_is_a_directory_is_refused_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, derived):
        for work in ("tradeoff_sweep", "run_campaign", "verify_converse"):
            monkeypatch.setattr(f"edgecache.cli.{work}", no_work)
        (tmp_path / derived).mkdir()
        code = main([*command, "--m", "2", "--k", "2",
                     "--out", str(tmp_path / "c.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"{str(tmp_path / derived)!r} is a directory" in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == [derived]

    def test_a_json_copy_over_its_own_out_is_refused_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("edgecache.cli.tradeoff_sweep", no_work)
        out = tmp_path / "b.json"
        code = main(["bounds", "--m", "2", "--k", "2", "--json",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "two outputs" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
        # without --json the same --out is one output
        monkeypatch.undo()
        assert main(["bounds", "--m", "2", "--k", "2",
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "b.manifest.json").read_text())
        assert list(manifest["output_digests"]) == ["b.json"]

    def test_missing_out_directories_are_created(self, tmp_path):
        out = tmp_path / "a" / "b" / "x.csv"
        assert main(["bounds", "--m", "2", "--k", "2",
                     "--out", str(out)]) == EXIT_OK
        assert out.exists()

    def test_internal_value_error_is_not_a_usage_error(self, tmp_path,
                                                       monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr("edgecache.cli.cmd_bounds", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["bounds", "--m", "2", "--k", "2",
                  "--out", str(tmp_path / "b.csv")])


def given_flag(flag, values):
    """`flag` with one of `values` as its argument."""
    return st.sampled_from(values).map(lambda value: [f"{flag}={value}"])


def optional(flag, values):
    """No `flag`, or `flag` with one of `values` as its argument."""
    return st.one_of(st.just([]), given_flag(flag, values))


# argv at tiny sizes: each flag's choices lead with values that run and end
# with its boundary values (hypothesis favours the first choices)
network = st.tuples(given_flag("--m", [2, 1, 3, 0, NINES]),
                    given_flag("--k", [2, 1, 3, 0]))
bounds_argv = st.tuples(
    st.just(["bounds"]), network,
    optional("--csi", ["perfect", "nocsi", "delayed"]),
    optional("--grid-step", ["1/4", "1", "2", "0", "-1/3", "1/0", "nan", "",
                             "1e-5000"]),
    st.sampled_from([[], ["--json"]]))
snr_points = st.sampled_from(["20", "40", "60", "0", "-139", str(MAX_SNR_DB),
                              str(MAX_SNR_DB + 1), "nan"])
simulate_argv = st.tuples(
    st.just(["simulate"]), network,
    optional("--n", [2, 4, 0]), optional("--l", [1200, 12, 6, 0]),
    given_flag("--mu", ["1/2", "1", "3/4", "1/3", "2/3", "0", "3/2",
                        "1e-5000"]),
    given_flag("--scheme", ["tdma", "zf", "ia", "hybrid"]),
    st.lists(snr_points, min_size=3, max_size=3, unique=True).map(
        lambda grid: [f"--snr-grid={','.join(grid)}"]),
    given_flag("--trials", [50, 49]), given_flag("--seed", [0, 3, -1]))
converse_argv = st.tuples(
    st.just(["verify-converse"]), network,
    optional("--ell", ["all", "1", "3", "4", "0"]),
    given_flag("--trials", [3, 1, 0]), given_flag("--seed", [0, -1]),
    *(optional(f"--tol-{name}", ["1", "1e-300", "0", "nan"])
      for name in ("reconstruction", "logdet", "noise-cov")))


def flatten(parts):
    return [arg for part in parts
            for arg in (flatten(part) if isinstance(part, tuple) else part)]


class TestParserCache:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_a_handler_patched_after_a_first_call_runs(self, tmp_path,
                                                       monkeypatch):
        argv = ["bounds", "--m", "2", "--k", "2",
                "--out", str(tmp_path / "b.csv")]
        assert main(argv) == EXIT_OK
        calls = []

        def patched(args, argv):
            calls.append(argv)
            return EXIT_TOLERANCE

        monkeypatch.setattr("edgecache.cli.cmd_bounds", patched)
        assert main(argv) == EXIT_TOLERANCE
        assert calls == [argv]

    def test_a_patched_limit_still_refuses(self, tmp_path, capsys,
                                           monkeypatch):
        build_parser()
        monkeypatch.setattr("edgecache.model.MAX_SNR_DB", 30.0)
        monkeypatch.setattr("edgecache.cli.run_campaign", no_work)
        code = main(["simulate", "--m", "2", "--k", "2", "--mu", "1",
                     "--scheme", "zf", "--snr-grid", "0,20,40", "--seed", "0",
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE
        assert "at most 30 dB" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_a_patched_node_cap_still_refuses(self, tmp_path, capsys,
                                              monkeypatch):
        build_parser()
        monkeypatch.setattr("edgecache.model.MAX_NODES", 2)
        monkeypatch.setattr("edgecache.cli.tradeoff_sweep", no_work)
        code = main(["bounds", "--m", "3", "--k", "2",
                     "--out", str(tmp_path / "b.csv")])
        assert code == EXIT_USAGE
        assert "3 is more than the 2 allowed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_no_flag_leaks_into_the_next_call(self, tmp_path):
        common = ["bounds", "--m", "2", "--k", "2"]
        assert main([*common, "--json",
                     "--out", str(tmp_path / "a.csv")]) == EXIT_OK
        assert main([*common, "--out", str(tmp_path / "b.csv")]) == EXIT_OK
        manifest = json.loads((tmp_path / "b.manifest.json").read_text())
        assert list(manifest["output_digests"]) == ["b.csv"]
        assert not (tmp_path / "b.json").exists()


class TestBoundaryFuzz:
    @settings(max_examples=120)
    @given(st.one_of(simulate_argv, converse_argv, bounds_argv).map(flatten),
           st.sampled_from(["out.csv", "a/b/out.csv"]))
    def test_every_exit_is_documented_and_leaves_no_partial_output(
            self, argv, out_name):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / out_name
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--out", str(out)])
            written = sorted(p.name for p in Path(tmp).rglob("*")
                             if p.is_file())
            report = (json.loads(out.read_text())
                      if code == EXIT_TOLERANCE else None)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_UNSUPPORTED, EXIT_TOLERANCE)
        assert "Traceback" not in err.getvalue()
        if code in (EXIT_USAGE, EXIT_UNSUPPORTED):
            assert written == []
        else:
            # a tolerance breach still writes its report, which says so
            assert out.name in written and "out.manifest.json" in written
            assert report is None or report["pass"] is False


class TestManifests:
    def test_every_subcommand_writes_manifest(self, tmp_path):
        main(["bounds", "--m", "2", "--k", "2", "--out", str(tmp_path / "b.csv")])
        main(["verify-converse", "--m", "2", "--k", "2", "--trials", "50",
              "--seed", "0", "--out", str(tmp_path / "v.json")])
        for stem in ("b", "v"):
            manifest = json.loads(
                (tmp_path / f"{stem}.manifest.json").read_text()
            )
            for key in ("command", "config", "tool_version", "timestamp",
                        "output_digests"):
                assert key in manifest

    def test_digests_match_written_files(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["bounds", "--m", "2", "--k", "2", "--out", str(out)])
        manifest = json.loads((tmp_path / "b.manifest.json").read_text())
        assert manifest["output_digests"]["b.csv"] == digest(out)

    @pytest.mark.parametrize("argv, files", [
        (["bounds", "--m", "2", "--k", "2"], ["b.csv"]),
        (["bounds", "--m", "3", "--k", "2", "--json"], ["b.csv", "b.json"]),
        (["simulate", "--m", "2", "--k", "2", "--mu", "1", "--scheme", "zf",
          "--trials", "50", "--seed", "0"], ["s.csv", "s.summary.json"]),
        (["verify-converse", "--m", "2", "--k", "2", "--trials", "20",
          "--seed", "0"], ["v.json"]),
    ], ids=["bounds", "bounds-json", "simulate", "verify-converse"])
    def test_every_output_digest_matches_its_file(self, tmp_path, argv, files):
        """Each data file the command writes, into a directory it creates,
        has its digest in the manifest, and nothing else is written."""
        out = tmp_path / "new" / "dir" / files[0]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        manifest_name = out.stem + ".manifest.json"
        manifest = json.loads((out.parent / manifest_name).read_text())
        assert manifest["output_digests"] == {
            name: digest(out.parent / name) for name in files}
        assert sorted(p.name for p in out.parent.iterdir()) == sorted(
            [*files, manifest_name])
