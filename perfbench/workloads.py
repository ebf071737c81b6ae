"""The benchmark's workloads: fixed sequences of `edgecache` CLI calls.

One pass of a workload calls `edgecache.cli.main` once per call below, in
order, in a single process (a closed loop: each call starts when the
previous one has returned). The network sizes are part of the workload
definition; only the master seed comes from the benchmark's `--seed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Seed at which the checked-in reference outputs were generated.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Call:
    """One CLI invocation; `stem` names its output files."""

    stem: str
    args: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.args[0]

    def out_path(self, out_dir: Path) -> Path:
        suffix = ".json" if self.command == "verify-converse" else ".csv"
        return out_dir / (self.stem + suffix)

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        argv = list(self.args)
        if self.command != "bounds":
            argv += ["--seed", str(seed)]
        return argv + ["--out", str(self.out_path(out_dir))]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str  # what `norm_work_per_s` counts: rows, trials or checks
    calls: tuple[Call, ...]


def _sim_2x2(scheme: str, mu: str) -> Call:
    return Call(scheme, ("simulate", "--m", "2", "--k", "2", "--mu", mu,
                         "--scheme", scheme, "--trials", "50"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bounds-sweep",
            "exact Fraction sweep of a 30x30 network on a 1/1800 mu grid plus"
            " optimality_regions: the bounds layer does almost all the work;"
            " phy, caching and converse do none",
            "rows",
            (Call("bounds", ("bounds", "--m", "30", "--k", "30",
                             "--csi", "perfect", "--json",
                             "--grid-step", "1/1800")),),
        ),
        Workload(
            "sim-2x2",
            "zf, ia, hybrid and tdma campaigns at M=K=2: tiny per-trial"
            " LAPACK calls, so the phy trial kernels dominate and caching"
            " and model do almost nothing",
            "trials",
            (_sim_2x2("zf", "1"), _sim_2x2("ia", "1/2"),
             _sim_2x2("hybrid", "3/4"), _sim_2x2("tdma", "1/2")),
        ),
        Workload(
            "sim-library",
            "tdma at M=K=6 with a 400 x 48000-bit library at 3 SNR points:"
            " placement copies and per-trial assignment_for_demand dominate"
            " time and memory; the phy kernel is negligible",
            "trials",
            (Call("tdma", ("simulate", "--m", "6", "--k", "6", "--n", "400",
                           "--l", "48000", "--mu", "1/2", "--scheme", "tdma",
                           "--snr-grid", "20,40,60", "--trials", "50")),),
        ),
        Workload(
            "converse-verify",
            "verify-converse at M=K=6 for every ell: the exact logdet_oracle"
            " dominates; the only workload that touches the converse layer",
            "checks",
            (Call("converse", ("verify-converse", "--m", "6", "--k", "6",
                               "--ell", "all", "--trials", "50")),),
        ),
    )
}
