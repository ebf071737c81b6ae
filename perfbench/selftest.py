"""Small-size tests of the benchmark itself.

Not collected by the repository's test suite; run from the checkout root:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import edgecache.cli as cli  # noqa: E402
from edgecache import bounds, converse, model, phy  # noqa: E402

import layers  # noqa: E402
import outputs  # noqa: E402
import run as bench  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Call, Workload  # noqa: E402

SMALL = Workload("small", "small sizes of every subcommand", "calls", (
    Call("bounds", ("bounds", "--m", "4", "--k", "4", "--json")),
    Call("zf", ("simulate", "--m", "2", "--k", "2", "--mu", "1", "--scheme", "zf",
                "--trials", "50")),
    Call("hybrid", ("simulate", "--m", "2", "--k", "2", "--mu", "3/4",
                    "--scheme", "hybrid", "--trials", "50")),
    Call("tdma", ("simulate", "--m", "3", "--k", "3", "--n", "5", "--mu", "1/2",
                  "--scheme", "tdma", "--trials", "50")),
    Call("converse", ("verify-converse", "--m", "3", "--k", "3", "--trials", "20")),
))


def traced_pass(workload, seed, out_dir):
    tracer = Tracer()
    tracer.install(layers.sites(cli, bounds, converse, model, phy))
    try:
        results = worker.run_pass(cli, workload, seed, out_dir)
    finally:
        tracer.uninstall()
    return tracer, results


def digests(results):
    return [{p.name: outputs.sha256(p)
             for p in outputs.data_files(r["call"].command, r["out"])}
            for r in results]


def test_traced_outputs_are_byte_identical(tmp_path):
    plain = worker.run_pass(cli, SMALL, 7, tmp_path / "plain")
    tracer, traced = traced_pass(SMALL, 7, tmp_path / "traced")
    assert [r["exit_code"] for r in plain + traced] == [0] * 10
    assert digests(plain) == digests(traced)
    assert {s.name for s in tracer.spans} >= {
        "cli.main", "bounds.sweep", "phy.trial.zf", "caching.assignment",
        "converse.oracle"}
    # Every wrapper is removed again.
    assert cli.tradeoff_sweep is bounds.tradeoff_sweep
    assert "random" in vars(model.FileLibrary)
    assert not hasattr(phy.run_trial, "__wrapped__")


def test_converse_span_counts_equal_trials_times_ells(tmp_path):
    tracer, results = traced_pass(SMALL, 3, tmp_path)
    metrics = layers.pass_metrics(tracer, 0, len(tracer.spans))
    assert metrics["converse.checks"] == 20 * 3
    for name in ("converse.lambda", "converse.reconstruction", "converse.logdet"):
        assert sum(s.name == name for s in tracer.spans) == 20 * 3
    report = json.loads(results[-1]["out"].read_text())
    assert sum(e["trials"] for e in report["checks"]) == metrics["converse.checks"]


def test_warmup_is_checked_and_every_pass_has_a_probe_time(tmp_path):
    result = worker.run(WORKLOADS["sim-2x2"], REFERENCE_SEED, 0, False, tmp_path)
    passes = result["passes"]
    assert [p["warmup"] for p in passes] == [True, False]
    assert [p["calls"] for p in passes] == [4, 4] and not result["problems"]
    assert all(p["probe_s"] > 0 for p in passes)


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    parent, *children = tracer.spans
    assert [c.parent for c in children] == [0, 0]
    expected = parent.duration - sum(c.duration for c in children)
    assert tracer.self_times()[0] == pytest.approx(expected)


@pytest.fixture(scope="module")
def sim_2x2(tmp_path_factory):
    workload = WORKLOADS["sim-2x2"]
    results = worker.run_pass(cli, workload, REFERENCE_SEED,
                              tmp_path_factory.mktemp("sim"))
    return workload, results, worker.load_reference(workload.name)


def test_reference_outputs_pass(sim_2x2):
    workload, results, reference = sim_2x2
    checks = worker.check_pass(workload, results, reference, REFERENCE_SEED)
    assert [c.problems for c in checks] == [[]] * 4
    assert sum(c.digest_matches for c in checks) == 8


def _corrupt_summary(reference):
    summary = reference["calls"]["ia"]["values"]["summary"]
    summary["ndt_estimate"] *= 1 + 1e-7


def _corrupt_csv(reference):
    reference["calls"]["zf"]["values"]["csv"][3][2] = "1.0"


def _corrupt_digest_only(reference):
    reference["calls"]["tdma"]["sha256"]["tdma.csv"] = "0" * 64


def test_corrupted_reference_is_a_failure(sim_2x2):
    workload, results, reference = sim_2x2
    for corrupt in (_corrupt_summary, _corrupt_csv):
        bad = copy.deepcopy(reference)
        corrupt(bad)
        checks = worker.check_pass(workload, results, bad, REFERENCE_SEED)
        assert sum(bool(c.problems) for c in checks) == 1
    # Other seeds only run the seed-independent checks.
    checks = worker.check_pass(workload, results, bad, REFERENCE_SEED + 1)
    assert not any(c.problems for c in checks)


def test_digest_mismatch_alone_is_counted_not_failed(sim_2x2):
    workload, results, reference = sim_2x2
    bad = copy.deepcopy(reference)
    _corrupt_digest_only(bad)
    checks = worker.check_pass(workload, results, bad, REFERENCE_SEED)
    assert not any(c.problems for c in checks)
    assert sum(c.digest_matches for c in checks) == 7


def test_bounds_digest_mismatch_is_a_failure(tmp_path):
    workload = WORKLOADS["bounds-sweep"]
    call = workload.calls[0]
    out = call.out_path(tmp_path)
    out.write_text("mu_num\n")
    out.with_suffix(".json").write_text("{}\n")
    outputs_digests = {p.name: outputs.sha256(p)
                       for p in outputs.data_files(call.command, out)}
    outputs.manifest_path(out).write_text(json.dumps({"output_digests": outputs_digests}))
    reference = worker.load_reference(workload.name)["calls"][call.stem]
    check = outputs.check_call(call.command, out, 0, reference["stdout"] + "\n",
                               reference, at_reference_seed=False)
    assert "bounds output is not bit-identical to the reference" in check.problems


def test_converse_residual_above_tolerance_is_a_failure():
    problems = []
    report = {"pass": True, "tolerances": {"reconstruction": 1e-9,
                                           "logdet_oracle": 1e-10, "noise_cov": 0.05},
              "checks": [{"ell": 1, "trials": 5, "pass": True,
                          "max_reconstruction_residual": 1e-15,
                          "max_logdet_oracle_error": 2e-10,
                          "noise_cov_error": 0.01}]}
    assert outputs._check_report(report, problems) == 5
    assert len(problems) == 1 and "max_logdet_oracle_error" in problems[0]


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_name_and_unit(trace):
    proc = _run_bench("--workload", "sim-2x2", "--seed", "5", "--seconds", "1",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    declared = _declared()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        assert any(line.startswith(f"sim-2x2 {name} ") and
                   line.endswith(" " + metric["unit"]) for line in lines[:-1])
    assert any(line.startswith("sim-2x2 error_rate 0 ") for line in lines)


def test_declared_metrics_match_the_code():
    spec = _declared()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "sim-2x2", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
