"""Tests for the command-line front end and its file formats."""

import csv
import hashlib
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import pytest

from edgecache.cli import (
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    main,
    replay_manifest,
)
from edgecache.bounds import MAX_GRID_ROWS, default_mu_grid
from edgecache.errors import ArgumentError
from edgecache.model import validate_config
from edgecache.phy import MAX_SNR_DB

F = Fraction


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        code = main(["bounds", "--m", "2", "--k", "2", "--n", "2",
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
        assert main(["bounds", "--m", "3", "--k", "3", "--n", "3",
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
        code = main(["bounds", "--m", "2", "--k", "3", "--n", "2",
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

    @pytest.mark.parametrize("args,csv_sha,json_sha,first_line", [
        pytest.param(
            ["--m", "30", "--k", "30", "--grid-step", "1/1800"],
            "e3dea01d5b53dce7101a290086667d600d27e146f888c754960d6a40dd0d04cb",
            "264bcc2ce71bb944355e5def2e0690e6a09d908e6be8a34e6f818657ab607121",
            "tight regions (lower = upper): {1/30} u {1}", id="30x30"),
        pytest.param(
            ["--m", "2", "--k", "2"],
            "f369deacfd8e92cc58ce2d642d72c11af712a88707dc27cf40a407812b97bf12",
            "2bc466c378a10958c5e1aeb01a0dae55baed498585b92e3a000d74c24ac7d940",
            "tight regions (lower = upper): [1/2, 1]", id="2x2-perfect"),
        pytest.param(
            ["--m", "2", "--k", "2", "--csi", "delayed"],
            "babe1178d9f9c47d366e57808fb8c90268c72a205e8c94933d7553a57b36c6a7",
            "ba9aa13cbecdf61909539d3db9fb96a2e33b93cc098b2ca97bc0b7ef09dff018",
            "delayed CSI: achievability only, no converse emitted",
            id="2x2-delayed"),
        pytest.param(
            ["--m", "2", "--k", "2", "--csi", "nocsi"],
            "55f3246c2c48147a0dc557c7b10709880e2f68b293fc6c267eaa6875f29ae82a",
            "840f371cfe8f952a526b0b3c899fc373e5dbaf5389e85a81fdad7b65c4795a71",
            "nocsi CSI: achievability only, no converse emitted",
            id="2x2-nocsi"),
        pytest.param(
            ["--m", "3", "--k", "3"],
            "2c1661f903c49864d0ce4a13cbd6a36bedfed2a0389be2b82639fff34c13bf66",
            "bccbb1c6495fd96c33f6dddf06439d80bc712005bbea172ab5d62742db04b6da",
            "tight regions (lower = upper): {1/3} u [2/3, 1]", id="3x3"),
        pytest.param(
            ["--m", "2", "--k", "3"],
            "5fb32efcda8109e7eefa9d99ee7f0a6f1b90f59589e473446a8ac5e7c936c8ea",
            "80ae25c246db6d317e1d3a9330d9a0b570f40d6441ac379743dfc60a1696999c",
            "tight regions (lower = upper): {1/2} u {1}", id="2x3"),
        pytest.param(
            ["--m", "1", "--k", "4"],
            "6d14e7a5a2dbe1a2168aa1fc8f81face76d80ace2372966ccd15595b608eeec2",
            "c3344791b2efadf17741f3d5ce7d70bb9c03a6eb64849d1e5bf0d8760f38add7",
            "tight regions (lower = upper): {1}", id="1x4"),
        pytest.param(
            ["--m", "7", "--k", "1"],
            "9d896785c2d4da935f8da476c6993b85425a2e0e9c1e0962338366583456979e",
            "e3f8a0239d5912600616284bd6ef986a6d24482388d560ab23d71542d46a0885",
            "tight regions (lower = upper): [1/7, 1]", id="7x1"),
        pytest.param(  # a step that does not divide 1 - 1/M
            ["--m", "12", "--k", "5", "--grid-step", "1/97"],
            "42de7dcb60447a159ce9b1214a51793ce6940b0d21e322feda1a123fc8f0f80d",
            "68033858f388295d145defdab6df786ce782861afec4cc5103da0d2635054320",
            "tight regions (lower = upper): {1/12} u {1}", id="12x5"),
    ])
    def test_output_bytes_are_pinned(self, tmp_path, capsys, args, csv_sha,
                                     json_sha, first_line):
        """The exact CSV and JSON bytes and the printed first line.

        The 30x30 digests are the benchmark's `bounds-sweep` reference.
        """
        out = tmp_path / "b.csv"
        assert main(["bounds", *args, "--json", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == first_line
        assert digest(out) == csv_sha
        assert digest(out.with_suffix(".json")) == json_sha

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
        # the hybrid split rounds up to a multiple of M bits: at --l 2 or 4
        # every EN stores 1/2 of each file, not the 2/3 asked for
        def no_campaign(*args, **kwargs):
            raise AssertionError("a trial ran on an unrealizable mu")

        monkeypatch.setattr("edgecache.cli.run_campaign", no_campaign)
        code = main(["simulate", "--m", "2", "--k", "2", "--mu", "2/3",
                     "--scheme", "hybrid", "--l", bits, "--trials", "50",
                     "--seed", "0", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert "mu = 1/2 per EN, not 2/3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["--m", "2", "--k", "2", "--mu", "2/3", "--scheme", "hybrid"],
        ["--m", "2", "--k", "2", "--mu", "3/4", "--scheme", "hybrid"],
        ["--m", "6", "--k", "6", "--n", "400", "--l", "48000", "--mu", "1/2",
         "--scheme", "tdma", "--snr-grid", "20,40,60"],
    ], ids=["hybrid-2/3", "hybrid-3/4", "library-config"])
    def test_realizable_mu_runs(self, tmp_path, args):
        out = tmp_path / "x.csv"
        assert main(["simulate", *args, "--trials", "50", "--seed", "0",
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(out.with_suffix(".summary.json").read_text())[
            "mu"] == args[args.index("--mu") + 1]

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
