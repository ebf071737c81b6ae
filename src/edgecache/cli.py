"""Command-line front end.

Three subcommands: `bounds` sweeps the exact tradeoff curves to CSV,
`simulate` runs Monte-Carlo delivery campaigns, and `verify-converse`
checks the converse's linear-algebra identities against fixed tolerances.
Every subcommand writes a run manifest next to its output recording the
command line, seed, tool version and output digests; re-running the
recorded command reproduces bit-identical data files.

Rationals are serialized as numerator/denominator integer pairs so
downstream tightness checks stay exact.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    CsiMode,
    achievable_points,
    convex_envelope,
    default_mu_grid,
    ndt_lower_bound,
    optimality_regions,
    tradeoff_sweep,
)
from .caching import full_placement, shared_placement, split_placement
from .converse import (
    LOGDET_ORACLE_TOL,
    NOISE_COV_TOL,
    RECONSTRUCTION_TOL,
    report_passes,
    verify_converse,
)
from .errors import (
    ArgumentError,
    DemandError,
    EdgeCacheError,
    FeasibilityError,
    InsufficientDataError,
    RangeError,
    UnsupportedError,
)
from .model import DemandVector, FileLibrary, as_fraction, validate_config
from .phy import (
    DEFAULT_SNR_GRID_DB,
    DEFAULT_TRIALS_PER_SNR,
    MAX_SNR_DB,
    MIN_SNR_POINTS,
    MIN_SNR_SPAN_DB,
    MIN_TRIALS_PER_SNR,
    Scheme,
    estimate_ndt,
    run_campaign,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_TOLERANCE = 4


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: Path, argv: list[str], config, master_seed,
                    outputs: list[Path]) -> Path:
    manifest = {
        "command": argv,
        "config": {
            "num_ens": config.num_ens,
            "num_users": config.num_users,
            "library_size": config.library_size,
            "frac_cache": str(config.frac_cache),
            "file_bits": config.file_bits,
        },
        "master_seed": master_seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "output_digests": {p.name: _sha256(p) for p in outputs},
    }
    path = out.with_name(out.stem + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def replay_manifest(manifest_path, out_path) -> int:
    """Re-run the command recorded in a manifest with a new output path."""
    data = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    out_flags = ("--out", "--ou", "--o")  # argparse also reads these prefixes
    argv = []
    for arg in data["command"]:  # split a `--out=PATH` into flag and value
        argv += arg.split("=", 1) if arg.split("=")[0] in out_flags else [arg]
    outs = [i for i, arg in enumerate(argv) if arg in out_flags]
    if not outs:
        raise ArgumentError("manifest command has no --out argument")
    for i in outs:
        argv[i + 1] = str(out_path)
    return main(argv)


def _bounds_csv(table) -> str:
    """The bounds CSV, one line per row, straight from the reduced ints."""
    head = ("mu_num,mu_den,lower_num,lower_den,upper_num,upper_den,"
            "ell_star,tight\n")
    if table.csi_mode is not CsiMode.PERFECT:
        return head + "".join([f"{mn},{md},,,{un},{ud},,\n"
                               for mn, md, _, _, _, un, ud in table.int_rows])
    return head + "".join([
        f"{mn},{md},{ln},{ld},{un},{ud},{ell},{int(ln == un and ld == ud)}\n"
        for mn, md, ln, ld, ell, un, ud in table.int_rows])


def _bounds_json(table) -> str:
    """The bounds JSON copy: byte for byte what json.dumps(indent=2,
    sort_keys=True) writes for rows whose rationals are `str(Fraction)`."""
    if table.csi_mode is not CsiMode.PERFECT:
        rows = [f"""    {{
      "ell_star": null,
      "lower": null,
      "mu": "{mn}/{md}",
      "tight": null,
      "upper": "{un}/{ud}"
    }}""" for mn, md, _, _, _, un, ud in table.int_rows]
    else:
        rows = [f"""    {{
      "ell_star": {ell},
      "lower": "{ln}/{ld}",
      "mu": "{mn}/{md}",
      "tight": {"true" if ln == un and ld == ud else "false"},
      "upper": "{un}/{ud}"
    }}""" for mn, md, ln, ld, ell, un, ud in table.int_rows]
    text = (f'{{\n  "csi": "{table.csi_mode.value}",\n  "rows": [\n'
            + ",\n".join(rows) + "\n  ]\n}\n")
    # str(Fraction) drops a denominator of 1, and '/1"' ends only those
    return text.replace('/1"', '"')


def _format_regions(regions) -> str:
    parts = []
    for lo, hi in regions:
        parts.append(f"{{{lo}}}" if lo == hi else f"[{lo}, {hi}]")
    return " u ".join(parts) if parts else "(none)"


def _config(args, mu):
    """Validate the shared network flags; only an omitted --n means N = K."""
    n = args.k if args.n is None else args.n
    return validate_config(args.m, args.k, n, mu, args.l)


def cmd_bounds(args, argv: list[str]) -> int:
    config = _config(args, Fraction(1))
    csi = CsiMode(args.csi)
    grid = default_mu_grid(config, args.grid_step)
    table = tradeoff_sweep(config, grid, csi)
    out = args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(_bounds_csv(table), encoding="utf-8", newline="")
    outputs = [out]
    if args.json:
        json_path = out.with_suffix(".json")
        json_path.write_text(_bounds_json(table), encoding="utf-8", newline="")
        outputs.append(json_path)
    _write_manifest(out, argv, config, None, outputs)
    if csi is CsiMode.PERFECT:
        regions = optimality_regions(config)
        print(f"tight regions (lower = upper): {_format_regions(regions)}")
    else:
        print(f"{csi.value} CSI: achievability only, no converse emitted")
    print(f"wrote {len(table.int_rows)} rows to {out}")
    return EXIT_OK


def _build_allocation(config, library):
    mu = config.frac_cache
    if mu == Fraction(1, config.num_ens):
        return split_placement(library, config)
    if mu == 1:
        return full_placement(library, config)
    return shared_placement(library, config)


_SCHEME_CSI = {
    Scheme.ZERO_FORCING: CsiMode.PERFECT,
    Scheme.IA_XCHANNEL_2X2: CsiMode.PERFECT,
    Scheme.HYBRID_SHARE: CsiMode.PERFECT,
    Scheme.TDMA: CsiMode.NO_CSI,
}


def _snr_grid(text: str) -> list[float]:
    """Parse --snr-grid: finite, distinct dB values the slope fit can use."""
    try:
        grid = [float(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a list of numbers: {text!r}") from None
    bad = [s for s in grid if not (math.isfinite(s) and s <= MAX_SNR_DB)]
    if bad:
        raise argparse.ArgumentTypeError(
            f"SNR values {bad} must be finite and at most {MAX_SNR_DB:g} dB")
    dupes = sorted({s for s in grid if grid.count(s) > 1})
    if dupes:
        raise argparse.ArgumentTypeError(f"duplicate SNR values {dupes}")
    if len(grid) < MIN_SNR_POINTS:
        raise argparse.ArgumentTypeError(
            f"need >= {MIN_SNR_POINTS} SNR points, got {len(grid)}")
    if max(grid) - min(grid) < MIN_SNR_SPAN_DB:
        raise argparse.ArgumentTypeError(
            f"SNR grid spans {max(grid) - min(grid):.1f} dB, "
            f"need >= {MIN_SNR_SPAN_DB:g}")
    return grid


def _grid_step(text: str) -> Fraction:
    """Parse bounds --grid-step: a positive rational such as 1/24 or 0.05."""
    try:
        step = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational p/q: {text!r}") from None
    if step <= 0:
        raise argparse.ArgumentTypeError(f"grid step must be positive, got {text!r}")
    return step


def _ell(text: str):
    """Parse --ell: 'all' or a positive cut parameter."""
    if text == "all":
        return text
    ell = int(text)
    if ell < 1:
        raise argparse.ArgumentTypeError(f"ell must be positive, got {ell}")
    return ell


def _seed(text: str) -> int:
    """Parse --seed: numpy's generators accept only non-negative integers."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _trials(text: str) -> int:
    """Parse simulate --trials: the slope fit needs this many per SNR point."""
    trials = int(text)
    if trials < MIN_TRIALS_PER_SNR:
        raise argparse.ArgumentTypeError(
            f"need >= {MIN_TRIALS_PER_SNR} trials per SNR point, got {trials}")
    return trials


def _out_path(text: str) -> Path:
    """Parse --out: a file path the run will be able to write, or exit 2.

    Missing parent directories are created when the output is written; the
    nearest ancestor that exists (a symlink counts, dangling or not) must be
    a writable directory, and an existing output a writable file.
    """
    out = Path(text)
    if out.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if os.path.lexists(out) and not (out.is_file()
                                     and os.access(out, os.W_OK)):
        raise argparse.ArgumentTypeError(f"cannot write {text!r}")
    parent = out.parent
    while not os.path.lexists(parent) and parent != parent.parent:
        parent = parent.parent
    if not (parent.is_dir() and os.access(parent, os.W_OK | os.X_OK)):
        raise argparse.ArgumentTypeError(
            f"cannot write {text!r}: {str(parent)!r} is not a writable directory")
    return out


def _tolerance(text: str) -> float:
    """Parse a --tol-* flag: a finite positive float, so reports stay JSON."""
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and positive, got {text!r}")
    return tol


def cmd_simulate(args, argv: list[str]) -> int:
    mu = as_fraction(args.mu)
    config = _config(args, mu)
    library = FileLibrary.random(config, seed=args.seed)
    allocation = _build_allocation(config, library)
    # the hybrid placement rounds its split up to a multiple of M bits, so
    # at a small --l the ENs can store less than the mu the summary reports
    library_bits = config.library_size * config.file_bits
    realized = {Fraction(allocation.en_bits(en), library_bits)
                for en in range(1, config.num_ens + 1)}
    if realized != {mu}:
        raise ArgumentError(
            f"at --l {config.file_bits} the placement stores mu = "
            f"{', '.join(map(str, sorted(realized)))} per EN, not {mu}"
        )
    scheme = Scheme(args.scheme)
    demand = DemandVector.worst_case(config)
    snr_grid = args.snr_grid
    trials = run_campaign(config, allocation, scheme, demand, snr_grid,
                          args.trials, args.seed)
    estimate = estimate_ndt(trials)

    out = args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["snr_db", "trials", "mean_sum_rate", "mean_delta"])
        for snr in snr_grid:
            at_snr = [t for t in trials if t.snr_db == snr]
            writer.writerow([
                repr(float(snr)),
                len(at_snr),
                repr(float(np.mean([t.achieved_sum_rate for t in at_snr]))),
                repr(float(np.mean([t.delivery_time_per_bit for t in at_snr]))),
            ])

    analytic_lower = ndt_lower_bound(config, mu)[0]
    csi = _SCHEME_CSI[scheme]
    try:
        analytic_upper = convex_envelope(
            achievable_points(config, csi)
        ).value_at(mu)
    except (UnsupportedError, RangeError):
        analytic_upper = None
    summary = {
        "scheme": scheme.value,
        "mu": str(mu),
        "snr_grid_db": snr_grid,
        "trials_per_snr": args.trials,
        "master_seed": args.seed,
        "dof_estimate": estimate.dof_estimate,
        "ndt_estimate": estimate.ndt_estimate,
        "fit_residual": estimate.fit_residual,
        "analytic": {
            "csi_mode": csi.value,
            "ndt_lower_bound": str(analytic_lower),
            "ndt_achievable": str(analytic_upper) if analytic_upper is not None else None,
        },
    }
    summary_path = out.with_suffix(".summary.json")
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    _write_manifest(out, argv, config, args.seed, [out, summary_path])
    print(
        f"{scheme.value}: dof estimate {estimate.dof_estimate:.4f}, "
        f"ndt estimate {estimate.ndt_estimate:.4f} "
        f"(analytic achievable {analytic_upper})"
    )
    return EXIT_OK


def cmd_verify_converse(args, argv: list[str]) -> int:
    config = _config(args, Fraction(1))
    if args.ell == "all":
        ells = None
    else:
        ells = [args.ell]
        limit = min(config.num_ens, config.num_users)
        if not 1 <= ells[0] <= limit:
            raise RangeError(f"ell {ells[0]} outside {{1..{limit}}}")
    reports = verify_converse(config, ells, trials=args.trials, seed=args.seed)
    tolerances = {
        "reconstruction": args.tol_reconstruction,
        "logdet_oracle": args.tol_logdet,
        "noise_cov": args.tol_noise_cov,
    }
    entries = []
    all_pass = True
    for rep in reports:
        ok = report_passes(
            rep,
            reconstruction_tol=tolerances["reconstruction"],
            logdet_tol=tolerances["logdet_oracle"],
            noise_tol=tolerances["noise_cov"],
        )
        all_pass = all_pass and ok
        entries.append({
            "ell": rep.ell,
            "trials": rep.trials,
            "lambda_max": rep.lambda_max,
            "max_reconstruction_residual": rep.max_reconstruction_residual,
            "max_logdet": rep.max_logdet,
            "max_logdet_oracle_error": rep.max_logdet_oracle_error,
            "noise_cov_error": rep.noise_cov_error,
            "noise_cov_samples": rep.noise_cov_samples,
            "pass": ok,
        })
    out = args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    report_doc = {
        "num_ens": config.num_ens,
        "num_users": config.num_users,
        "master_seed": args.seed,
        "tolerances": tolerances,
        "checks": entries,
        "pass": all_pass,
    }
    out.write_text(json.dumps(report_doc, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    _write_manifest(out, argv, config, args.seed, [out])
    for entry in entries:
        status = "pass" if entry["pass"] else "FAIL"
        print(
            f"ell={entry['ell']}: reconstruction "
            f"{entry['max_reconstruction_residual']:.3e}, logdet oracle "
            f"{entry['max_logdet_oracle_error']:.3e}, noise cov "
            f"{entry['noise_cov_error']:.3e} [{status}]"
        )
    return EXIT_OK if all_pass else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgecache",
        description="Latency-storage tradeoffs of cache-aided wireless networks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("--m", type=int, required=True, help="number of ENs")
    network.add_argument("--k", type=int, required=True, help="number of users")
    network.add_argument("--n", type=int, default=None,
                         help="library size (default: K)")
    network.add_argument("--l", type=int, default=1200,
                         help="file size in bits (default: 1200)")

    p_bounds = sub.add_parser("bounds", parents=[network],
                              help="sweep the exact tradeoff curves")
    p_bounds.add_argument("--csi", choices=[m.value for m in CsiMode],
                          default="perfect")
    p_bounds.add_argument("--grid-step", type=_grid_step, default=None,
                          help="rational step p/q (default: 1/(12*M*K))")
    p_bounds.add_argument("--out", type=_out_path, required=True,
                          help="output CSV path")
    p_bounds.add_argument("--json", action="store_true",
                          help="also write a JSON copy of the table")
    p_bounds.set_defaults(handler=cmd_bounds)

    p_sim = sub.add_parser("simulate", parents=[network],
                           help="run a Monte-Carlo delivery campaign")
    p_sim.add_argument("--mu", required=True, help="fractional cache size p/q")
    p_sim.add_argument("--scheme", choices=[s.value for s in Scheme],
                       required=True)
    p_sim.add_argument("--snr-grid", type=_snr_grid,
                       default=",".join(f"{s:g}" for s in DEFAULT_SNR_GRID_DB),
                       help="comma-separated distinct dB values")
    p_sim.add_argument("--trials", type=_trials, default=DEFAULT_TRIALS_PER_SNR,
                       help="trials per SNR point")
    p_sim.add_argument("--seed", type=_seed, required=True,
                       help="master seed (required for reproducibility)")
    p_sim.add_argument("--out", type=_out_path, required=True,
                       help="output CSV path")
    p_sim.set_defaults(handler=cmd_simulate)

    p_ver = sub.add_parser("verify-converse", parents=[network],
                           help="check the converse identities numerically")
    p_ver.add_argument("--ell", type=_ell, default="all",
                       help="'all' or a single cut parameter")
    p_ver.add_argument("--trials", type=int, default=1000)
    p_ver.add_argument("--seed", type=_seed, required=True)
    p_ver.add_argument("--tol-reconstruction", type=_tolerance,
                       default=RECONSTRUCTION_TOL)
    p_ver.add_argument("--tol-logdet", type=_tolerance,
                       default=LOGDET_ORACLE_TOL)
    p_ver.add_argument("--tol-noise-cov", type=_tolerance,
                       default=NOISE_COV_TOL)
    p_ver.add_argument("--out", type=_out_path, required=True,
                       help="output JSON path")
    p_ver.set_defaults(handler=cmd_verify_converse)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args, argv)
    except (FeasibilityError, DemandError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ArgumentError, RangeError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EdgeCacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
