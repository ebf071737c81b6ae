"""The package starts without numpy: `import edgecache.cli` loads only
`bounds`, `model` and `errors`, and the numpy layers load on first use."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import edgecache
import edgecache.cli as cli
from edgecache import bounds, caching, converse, errors, model, phy
from edgecache.cli import EXIT_OK, EXIT_USAGE, main

F = Fraction
SRC = Path(edgecache.__file__).resolve().parents[1]
HEAVY = ("numpy", "edgecache.phy", "edgecache.caching", "edgecache.converse",
         "edgecache.streams")
# cli's globals that stand in for a numpy layer's function until first called
SITES = {
    "split_placement": caching,
    "full_placement": caching,
    "shared_placement": caching,
    "run_campaign": phy,
    "estimate_ndt": phy,
    "verify_converse": converse,
    "report_passes": converse,
}
# what `edgecache` re-exports, each name from its own module
EXPORTS = {
    bounds: ("CsiMode", "NdtPoint", "TradeoffCurve", "achievable_points",
             "convex_envelope", "corner_point_xchannel",
             "corner_point_zero_forcing", "lower_bound_curve",
             "ndt_lower_bound", "optimality_regions", "tradeoff_sweep"),
    caching: ("CacheAllocation", "DeliveryAssignment", "assignment_for_demand",
              "full_placement", "shared_placement", "split_placement"),
    model: ("DemandVector", "FileLibrary", "SystemConfig", "validate_config"),
    phy: ("EmpiricalNdt", "PointResult", "Scheme", "estimate_ndt",
          "run_campaign", "run_trial"),
}
# Runs in a fresh interpreter: the sites missing from cli at import, then
# main's exit code and the heavy modules loaded by the end of the call.
FRESH_RUN = f"""
import json, sys
import edgecache.cli as cli
missing = [name for name in {sorted(SITES)!r} if name not in vars(cli)]
code = cli.main(sys.argv[1:])
print(json.dumps([missing, code, [m for m in {HEAVY!r} if m in sys.modules]]))
"""


def fresh_main(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", FRESH_RUN, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestNumpyFreeStart:
    @pytest.mark.parametrize("argv, code", [
        (["bounds", "--m", "3", "--k", "3"], EXIT_OK),
        (["simulate", "--m", "2", "--k", "2", "--mu", "1", "--scheme", "zf",
          "--seed", "0", "--snr-grid", "20,20,40"], EXIT_USAGE),
        (["verify-converse", "--m", "2", "--k", "2", "--seed", "0",
          "--tol-noise-cov", "nan"], EXIT_USAGE),
    ], ids=["bounds", "simulate-rejected", "verify-converse-rejected"])
    def test_loads_no_numpy_layer(self, tmp_path, argv, code):
        out = tmp_path / "out.csv"
        assert fresh_main([*argv, "--out", str(out)]) == [[], code, []]
        assert out.exists() is (code == EXIT_OK)

    def test_a_simulation_loads_its_layers_on_first_call(self, tmp_path):
        argv = ["simulate", "--m", "2", "--k", "2", "--mu", "1", "--scheme",
                "zf", "--seed", "0", "--trials", "50",
                "--out", str(tmp_path / "s.csv")]
        assert fresh_main(argv) == [[], EXIT_OK, [
            "numpy", "edgecache.phy", "edgecache.caching", "edgecache.streams"]]


class TestLookupSites:
    def test_sites_stand_in_for_the_real_functions(self):
        for name, mu in (("split_placement", F(1, 2)),
                         ("full_placement", F(1)),
                         ("shared_placement", F(3, 4))):
            config = model.validate_config(2, 2, 2, mu, 1200)
            library = model.FileLibrary.random(config, seed=0)
            assert layout(getattr(cli, name)(library, config)) == \
                layout(getattr(caching, name)(library, config)), name
        config = model.validate_config(2, 2, 2, F(1, 2), 1200)
        allocation = caching.split_placement(
            model.FileLibrary.random(config, seed=0), config)
        demand = model.DemandVector.worst_case(config)
        args = (config, allocation, model.Scheme.TDMA, demand,
                [20.0, 40.0, 60.0], 50, 3)
        points = cli.run_campaign(*args)
        assert columns(points) == columns(phy.run_campaign(*args))
        assert cli.estimate_ndt(points) == phy.estimate_ndt(points)
        reports = cli.verify_converse(config, None, trials=20, seed=1)
        assert repr(reports) == \
            repr(converse.verify_converse(config, None, trials=20, seed=1))
        for report in reports:
            assert cli.report_passes(report, noise_tol=1e-3) == \
                converse.report_passes(report, noise_tol=1e-3)

    def test_commands_call_through_the_sites(self, tmp_path, monkeypatch):
        calls = []

        def recorder(name):
            real = getattr(cli, name)

            def record(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return record

        for name in SITES:
            monkeypatch.setattr(cli, name, recorder(name))
        for mu, scheme in (("1/2", "tdma"), ("1", "zf"), ("3/4", "hybrid")):
            assert main(["simulate", "--m", "2", "--k", "2", "--mu", mu,
                         "--scheme", scheme, "--seed", "0", "--trials", "50",
                         "--out", str(tmp_path / f"{scheme}.csv")]) == EXIT_OK
        assert main(["verify-converse", "--m", "2", "--k", "2", "--seed", "0",
                     "--trials", "20", "--out", str(tmp_path / "v.json")]) == 0
        campaign = ["run_campaign", "estimate_ndt"]
        assert calls == ["split_placement", *campaign, "full_placement",
                         *campaign, "shared_placement", *campaign,
                         "verify_converse", "report_passes", "report_passes"]


def columns(points):
    """A campaign's points, with each array column as its bytes."""
    return [{name: value.tobytes() if hasattr(value, "tobytes") else value
             for name, value in vars(p).items()} for p in points]


def layout(allocation):
    """An allocation's fields, with each fragment's stored bits as bytes."""
    return (allocation.policy, allocation.file_bits, allocation.split_bits,
            [[(cf.fragment, cf.bits.tobytes()) for cf in content]
             for content in allocation.per_en_content])


class TestLazyReExports:
    def test_every_export_is_its_modules_object(self):
        for module, names in EXPORTS.items():
            for name in names:
                assert getattr(edgecache, name) is getattr(module, name), name
        for module in (bounds, caching, converse, errors, model, phy):
            assert getattr(edgecache, module.__name__.split(".")[-1]) is module

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from edgecache import *", namespace)
        for module, names in EXPORTS.items():
            assert all(namespace[name] is getattr(module, name) for name in names)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            edgecache.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            from edgecache import no_such_name  # noqa: F401

    def test_constants_have_one_home(self):
        assert phy.Scheme is model.Scheme is edgecache.Scheme
        assert phy.MIN_TRIALS_PER_SNR is model.MIN_TRIALS_PER_SNR is \
            cli.MIN_TRIALS_PER_SNR
        for name in ("MIN_SNR_POINTS", "MIN_SNR_SPAN_DB", "MAX_LINKS",
                     "MAX_CAMPAIGN_TRIALS", "MAX_CONVERSE_COST"):
            # read by model's checks alone, which phy, converse and cli call
            assert not any(hasattr(module, name)
                           for module in (phy, converse, cli)), name
        for name in ("RECONSTRUCTION_TOL", "LOGDET_ORACLE_TOL", "NOISE_COV_TOL"):
            assert getattr(converse, name) is getattr(model, name) is \
                getattr(cli, name), name
