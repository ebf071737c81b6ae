"""Benchmark of the edgecache CLI: end-to-end metrics or traced per-layer metrics.

Run from the root of a source checkout (it needs `src/edgecache`):

    python3 perfbench/run.py --workload bounds-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh worker process (worker.py) that calls
`edgecache.cli.main` in a closed loop for `--seconds` seconds and checks
every call's outputs. With `--trace 0` the result holds the end-to-end
metrics (`END_TO_END`); with `--trace 1` the per-layer metrics
(layers.PER_LAYER). The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the lines
before it print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from layers import PER_LAYER
from probe import REFERENCE_PROBE_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

# (name, unit). The norm_ metrics are scaled to the reference host speed
# (probe.py); norm_work_per_s counts the workload's work_unit per second.
END_TO_END = [
    ("norm_wall_s", "s"),
    ("norm_work_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
]
# Interpreter starts timed before and again after the worker runs, so the
# median of setup_s spans the whole run rather than one moment of it. Each
# start times the probe after the import, and its import time is scaled to
# the reference host speed like the passes' wall times.
SETUP_STARTS = 6
SETUP_CODE = ("import time; t = time.perf_counter(); import edgecache.cli; "
              "t = time.perf_counter() - t; import probe; "
              "print(t * probe.REFERENCE_PROBE_S / probe.probe_s())")
WORKER_TIMEOUT_S = 170
# One compute thread per process: the workloads run single-threaded Python
# with small LAPACK calls, and a pinned thread count keeps runs comparable.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.update(THREAD_ENV)
    return env


def setup_times(root: Path) -> list[float]:
    """Scaled times to import edgecache.cli in SETUP_STARTS fresh interpreters."""
    times = []
    env = child_env(root)
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    for _ in range(SETUP_STARTS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                              env=env, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchmarkError("importing edgecache.cli failed:\n" + proc.stderr)
        times.append(float(proc.stdout))
    return times


def run_worker(root: Path, workload: str, seed: int, seconds: float,
               trace: int) -> dict:
    work_dir = root / ".perfbench_work" / workload
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root),
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload}: worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(root: Path, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    """One run of one workload, as the result object the benchmark prints."""
    if trace:
        result = run_worker(root, workload, seed, seconds, trace)
        values = result["per_layer"]
        units = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        setup = setup_times(root)
        result = run_worker(root, workload, seed, seconds, trace)
        setup += setup_times(root)
        passes = [p for p in result["passes"] if not p["warmup"]]
        norm_walls = [p["wall_s"] * REFERENCE_PROBE_S / p["probe_s"] for p in passes]
        values = {
            "norm_wall_s": statistics.median(norm_walls),
            "norm_work_per_s": statistics.median(
                p["work"] / w for p, w in zip(passes, norm_walls)),
            "peak_rss_mib": result["peak_rss_mib"],
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
        # Raw figures, printed for reading alongside the scaled ones.
        print(f"{workload} wall_s {statistics.median(p['wall_s'] for p in passes):.6g} s"
              f" (unscaled); probe_s {statistics.median(p['probe_s'] for p in passes):.6g}"
              f" s (reference {REFERENCE_PROBE_S} s); {len(passes)} timed passes")
    attempted = sum(p["calls"] for p in result["passes"])
    failed = sum(p["failed"] for p in result["passes"])
    for problem in result["problems"][:20]:
        print(f"{workload}: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }


def print_lines(workload: str, result: dict) -> None:
    unit = WORKLOADS[workload].work_unit
    for name, metric in result["metrics"].items():
        alias = f" ({unit}_per_s)" if name == "norm_work_per_s" else ""
        print(f"{workload} {name}{alias} {metric['value']:.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{workload} error_rate {rate:.6g} "
          f"({result['failed']} of {result['attempted']} calls failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "edgecache" / "cli.py").is_file():
        print("error: run from the root of an edgecache checkout "
              "(src/edgecache/cli.py not found)", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(root, name, args.seed, args.seconds, args.trace)
            print_lines(name, results[name])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
