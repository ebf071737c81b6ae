"""Tests for the command-line front end and its file formats."""

import csv
import hashlib
import json
from fractions import Fraction

import pytest

from edgecache.cli import (
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    main,
    replay_manifest,
)

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

    def test_json_flag_writes_copy(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bounds", "--m", "2", "--k", "2", "--json",
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads((tmp_path / "b.json").read_text())
        assert doc["csi"] == "perfect"
        assert doc["rows"][0]["mu"] == "1/2"
        assert doc["rows"][0]["tight"] is True

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
