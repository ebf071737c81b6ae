"""One benchmark run of one workload, in a fresh process.

Runs passes of the workload (see workloads.py) for about `--seconds`
seconds, checks every call's outputs, and prints one JSON object with the
per-pass timings, the checks' outcome and, when traced, the per-layer
metrics. The first pass is a warm-up: it is checked like every other pass
but left out of the timings. The host-speed probe (probe.py) is timed
between passes, and each pass records the mean of the probes on either
side. With `--trace 1` untraced and traced passes alternate after the
warm-up, so the same process measures the tracing overhead and checks
that tracing leaves the output bytes unchanged.

    PYTHONPATH=src python3 perfbench/worker.py --workload sim-2x2 \
        --seed 0 --seconds 10 --trace 0 --work-dir .perfbench_work/sim-2x2
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import layers
import outputs
from probe import probe_s
from spans import Tracer
from workloads import WORKLOADS, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def run_pass(cli, workload: Workload, seed: int, out_dir: Path) -> list[dict]:
    """Call the CLI once per workload call; returns each call's outcome."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    results = []
    for call in workload.calls:
        argv = call.argv(seed, out_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception:  # a crash is a failed call, not a failed benchmark
            code = "exception: " + traceback.format_exc()
        wall = perf_counter() - start
        results.append({"call": call, "out": call.out_path(out_dir), "exit_code": code,
                        "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                        "wall_s": wall})
    return results


def check_pass(workload: Workload, results: list[dict], reference: dict,
               seed: int) -> list[outputs.CallCheck]:
    return [
        outputs.check_call(r["call"].command, r["out"], r["exit_code"], r["stdout"],
                           reference["calls"][r["call"].stem],
                           seed == reference["seed"])
        for r in results
    ]


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work_dir: Path) -> dict:
    import edgecache.cli as cli
    from edgecache import bounds, converse, model, phy

    if Path(cli.__file__).resolve().parents[1] != (Path.cwd() / "src").resolve():
        raise SystemExit(f"imported {cli.__file__}, not the checkout's src/")
    reference = load_reference(workload.name)
    tracer = Tracer()
    site_list = layers.sites(cli, bounds, converse, model, phy)
    passes, layer_passes, problems, probes = [], [], [], []
    first_digests = None
    last_cost = {False: 0.0, True: 0.0}  # time the last pass of each kind took
    begin = perf_counter()
    while True:
        warmup = not passes
        traced = trace and len(passes) % 2 == 0 and not warmup
        elapsed = perf_counter() - begin
        # Stop before a pass expected to end after `seconds`, once there has
        # been the warm-up and one timed pass of each kind (untraced, and
        # traced when tracing).
        if len(passes) >= 2 + trace and elapsed + last_cost[traced] > seconds:
            break
        # Garbage left by the last pass is collected here, not inside the
        # next pass's timing.
        gc.collect()
        probes.append(probe_s())
        lo = len(tracer.spans)
        if traced:
            tracer.counters.clear()
            tracer.install(site_list)
        try:
            results = run_pass(cli, workload, seed, work_dir / "out")
        finally:
            tracer.uninstall()
        hi = len(tracer.spans)
        checks = check_pass(workload, results, reference, seed)
        if first_digests is None:
            first_digests = [c.digests for c in checks]
        for r, c, d0 in zip(results, checks, first_digests):
            if c.digests and c.digests != d0:
                c.problems.append("output bytes differ from the run's first pass")
            if r["exit_code"] != 0 and r["stderr"]:
                c.problems.append("stderr: " + r["stderr"].strip())
            problems += [f"pass {len(passes)} {r['call'].stem}: {p}" for p in c.problems]
        wall = sum(r["wall_s"] for r in results)
        last_cost[traced] = perf_counter() - begin - elapsed
        passes.append({
            "warmup": warmup,
            "traced": traced,
            "wall_s": wall,
            "work": sum(c.work for c in checks),
            "calls": len(checks),
            "failed": sum(bool(c.problems) for c in checks),
        })
        if traced:
            metrics = layers.pass_metrics(tracer, lo, hi)
            metrics["cli.bytes_written"] = sum(c.bytes_written for c in checks)
            metrics["cli.digest_matches"] = sum(c.digest_matches for c in checks)
            metrics["cli.digests_compared"] = sum(c.digests_compared for c in checks)
            layer_passes.append(metrics)
    probes.append(probe_s())
    for p, before, after in zip(passes, probes, probes[1:]):
        p["probe_s"] = (before + after) / 2
    shutil.rmtree(work_dir / "out", ignore_errors=True)

    result = {
        "passes": passes,
        "problems": problems,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        tracer.write(work_dir / "spans.jsonl")
        per_layer = layers.summarise(layer_passes, tracer)
        # Passes alternate untraced, traced: compare each traced pass with the
        # untraced pass just before it, so drift in machine speed cancels.
        walls = [p["wall_s"] for p in passes if not p["warmup"]]
        per_layer["trace.overhead_ratio"] = statistics.median(
            t / u for u, t in zip(walls[0::2], walls[1::2]))
        result["per_layer"] = per_layer
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), args.work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
