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
import dataclasses
import functools
import hashlib
import importlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__, model
from .bounds import (
    CsiMode,
    achievable_points,
    convex_envelope,
    default_mu_grid,
    ndt_lower_bound,
    optimality_regions,
    tradeoff_sweep,
)
from .errors import (
    ArgumentError,
    EdgeCacheError,
    InsufficientDataError,
    RangeError,
    UnsupportedError,
)
from .model import (
    DEFAULT_FILE_BITS,
    DEFAULT_SNR_GRID_DB,
    DEFAULT_TRIALS_PER_SNR,
    LOGDET_ORACLE_TOL,
    MIN_TRIALS_PER_SNR,
    NOISE_COV_TOL,
    RECONSTRUCTION_TOL,
    DemandVector,
    FileLibrary,
    Scheme,
    check_snr_db,
    check_snr_grid,
    validate_config,
)


def _on_first_call(module: str, name: str):
    """A global standing in for `module.name` that imports it when called:
    numpy and the layers on it load only when a command needs them."""
    def stand_in(*args, **kwargs):
        real = getattr(importlib.import_module(module, __package__), name)
        return real(*args, **kwargs)
    return stand_in


split_placement = _on_first_call(".caching", "split_placement")
full_placement = _on_first_call(".caching", "full_placement")
shared_placement = _on_first_call(".caching", "shared_placement")
run_campaign = _on_first_call(".phy", "run_campaign")
estimate_ndt = _on_first_call(".phy", "estimate_ndt")
verify_converse = _on_first_call(".converse", "verify_converse")
report_passes = _on_first_call(".converse", "report_passes")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_TOLERANCE = 4


def _write_outputs(args, argv: list[str], config, master_seed,
                   *texts: str) -> None:
    """Write each data file's text, in `_outputs` order, as UTF-8 bytes,
    then the manifest with the SHA-256 of those bytes."""
    *paths, manifest_path = _outputs(args)
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    digests = {}
    for path, text in zip(paths, texts, strict=True):
        data = text.encode("utf-8")
        path.write_bytes(data)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    manifest = {
        "command": argv,
        "config": {**vars(config), "frac_cache": str(config.frac_cache)},
        "master_seed": master_seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "output_digests": digests,
    }
    manifest_path.write_bytes(
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))


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


def _bounds_csv(table) -> list[str]:
    """The bounds CSV's lines, header first, straight from the reduced ints:
    the JSON copy reads their fields rather than format each int again."""
    head = ("mu_num,mu_den,lower_num,lower_den,upper_num,upper_den,"
            "ell_star,tight")
    if table.csi_mode is not CsiMode.PERFECT:
        return [head] + [f"{mn},{md},,,{un},{ud},,"
                         for mn, md, _, _, _, un, ud in table.int_rows]
    return [head] + [
        f"{mn},{md},{ln},{ld},{un},{ud},{ell},{int(ln == un and ld == ud)}"
        for mn, md, ln, ld, ell, un, ud in table.int_rows]


def _bounds_json(csi_mode, lines) -> str:
    """The bounds JSON copy of the CSV's data lines, an empty field a null:
    byte for byte what json.dumps(indent=2, sort_keys=True) writes for rows
    whose rationals are `str(Fraction)`."""
    rows = [f"""    {{
      "ell_star": {ell or "null"},
      "lower": {f'"{ln}/{ld}"' if ln else "null"},
      "mu": "{mn}/{md}",
      "tight": {"true" if tight == "1" else "false" if tight else "null"},
      "upper": "{un}/{ud}"
    }}""" for mn, md, ln, ld, un, ud, ell, tight
            in (line.split(",") for line in lines)]
    text = (f'{{\n  "csi": "{csi_mode.value}",\n  "rows": [\n'
            + ",\n".join(rows) + "\n  ]\n}\n")
    # str(Fraction) drops a denominator of 1, and '/1"' ends only those
    return text.replace('/1"', '"')


def _format_regions(regions) -> str:
    return " u ".join(f"{{{lo}}}" if lo == hi else f"[{lo}, {hi}]"
                      for lo, hi in regions) or "(none)"


def _network(args):
    """The config of bounds and verify-converse, which read no --n or --l:
    the bounds and the converse's checks depend on M and K alone."""
    return validate_config(args.m, args.k, args.k, Fraction(1),
                           DEFAULT_FILE_BITS)


def cmd_bounds(args, argv: list[str]) -> int:
    config = _network(args)
    csi = CsiMode(args.csi)
    grid = default_mu_grid(config, args.grid_step)
    table = tradeoff_sweep(config, grid, csi)
    lines = _bounds_csv(table)
    texts = ["\n".join(lines) + "\n"]
    if args.json:
        texts.append(_bounds_json(csi, lines[1:]))
    _write_outputs(args, argv, config, None, *texts)
    if csi is CsiMode.PERFECT:
        regions = optimality_regions(table.converse, table.envelope)
        print(f"tight regions (lower = upper): {_format_regions(regions)}")
    else:
        print(f"{csi.value} CSI: achievability only, no converse emitted")
    print(f"wrote {len(table.int_rows)} rows to {args.out}")
    return EXIT_OK


def _build_allocation(config, library):
    mu = config.frac_cache
    if mu == 1:  # also at M = 1, where 1/M = 1 too
        return full_placement(library, config)
    if mu == Fraction(1, config.num_ens):
        return split_placement(library, config)
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
    try:
        check_snr_db(grid)
        check_snr_grid(grid)
    except (ArgumentError, InsufficientDataError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return grid


MAX_RATIONAL_DIGITS = 40  # a part; str() of an int stops at 4,300 digits


def _rational(text: str) -> Fraction:
    """Parse a rational flag such as 1/24, 0.05 or 5e-2. Text too long for
    MAX_RATIONAL_DIGITS a part, or an exponent past it, is refused before
    any power of ten is built."""
    cap = MAX_RATIONAL_DIGITS
    try:
        value = (Fraction(text) if len(text) <= 2 * cap + 1 and abs(
            int(text.lower().partition("e")[2] or 0)) <= cap else None)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational p/q: {text!r}") from None
    if value is None or max(abs(value.numerator), value.denominator) >= 10**cap:
        raise argparse.ArgumentTypeError(
            f"more than {cap} digits a part: {text[:24]!r}")
    return value


def _grid_step(text: str) -> Fraction:
    """Parse bounds --grid-step: a positive rational such as 1/24 or 0.05."""
    step = _rational(text)
    if step <= 0:
        raise argparse.ArgumentTypeError(f"grid step must be positive, got {text!r}")
    return step


MAX_INT_TEXT = 24  # characters an integer flag reads, more than any cap's digits


def _int_flag(low: int, cap: str):
    """The type of an integer flag: an int in [low, `model`'s `cap`].

    The cap is read at each parse, so a patched limit applies to the cached
    parser. A text over MAX_INT_TEXT characters is refused unread: int() of
    a long text is slow, and str() of its value fails past 4,300 digits.
    """
    def parse(text: str) -> int:
        top = getattr(model, cap)
        try:
            value = int(text) if len(text) <= MAX_INT_TEXT else None
        except ValueError:
            value = None
        if value is not None and value > top:
            raise argparse.ArgumentTypeError(
                f"{value} is more than the {top} allowed")
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"not an integer in [{low}, {top}]: {text[:MAX_INT_TEXT]!r}")
        return value
    return parse


def _ell(text: str):
    """Parse --ell: 'all' or a cut parameter in [1, MAX_NODES]."""
    return text if text == "all" else _int_flag(1, "MAX_NODES")(text)


def _outputs(args) -> list[Path]:
    """Every path the command writes: --out, its derived data files, and
    the manifest last."""
    out = args.out
    derived = ([".summary.json"] if args.handler == "cmd_simulate"
               else [".json"] if args.handler == "cmd_bounds" and args.json
               else [])
    return [out, *(out.with_suffix(suffix) for suffix in derived),
            out.with_name(out.stem + ".manifest.json")]


def _check_outputs(paths: list[Path]) -> None:
    """Refuse, before any work, a run that cannot write each of its outputs
    to a path of its own.

    Missing parent directories are created when the outputs are written;
    the nearest ancestor that exists (a symlink counts, dangling or not)
    must be a writable directory, and an existing output a writable file.
    """
    parent = paths[0].parent  # the directory of every output
    while not os.path.lexists(parent) and parent != parent.parent:
        parent = parent.parent
    if not (parent.is_dir() and os.access(parent, os.W_OK | os.X_OK)):
        raise ArgumentError(f"cannot write {str(paths[0])!r}: {str(parent)!r} "
                            "is not a writable directory")
    for i, out in enumerate(paths):
        if out in paths[:i]:
            raise ArgumentError(f"--out {str(paths[0])!r} would write two "
                                f"outputs to {str(out)!r}")
        if out.is_dir():
            raise ArgumentError(f"{str(out)!r} is a directory")
        if os.path.lexists(out) and not (out.is_file()
                                         and os.access(out, os.W_OK)):
            raise ArgumentError(f"cannot write {str(out)!r}")


def _tolerance(text: str) -> float:
    """Parse a --tol-* flag: a finite positive float, so reports stay JSON."""
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and positive, got {text!r}")
    return tol


def cmd_simulate(args, argv: list[str]) -> int:
    import numpy as np  # only simulate needs it: bounds starts without it
    mu = args.mu
    config = validate_config(args.m, args.k, args.n or args.k, mu, args.l)
    library = FileLibrary.random(config, seed=args.seed)
    allocation = _build_allocation(config, library)
    scheme = Scheme(args.scheme)
    demand = DemandVector.worst_case(config)
    snr_grid = args.snr_grid
    points = run_campaign(config, allocation, scheme, demand, snr_grid,
                          args.trials, args.seed)
    estimate = estimate_ndt(points)

    rows = "snr_db,trials,mean_sum_rate,mean_delta\n" + "".join(
        f"{point.snr_db!r},{len(point.seeds)},"
        f"{float(np.mean(point.achieved_sum_rate))!r},"
        f"{float(np.mean(point.delivery_time_per_bit))!r}\n"
        for point in points)

    analytic_lower = ndt_lower_bound(config, mu)[0]
    csi = _SCHEME_CSI[scheme]
    try:
        analytic_upper = convex_envelope(
            achievable_points(config, csi)
        ).value_at(mu)
    except UnsupportedError:  # degraded CSI has points at 2x2 only
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
    _write_outputs(args, argv, config, args.seed, rows,
                   json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(
        f"{scheme.value}: dof estimate {estimate.dof_estimate:.4f}, "
        f"ndt estimate {estimate.ndt_estimate:.4f} "
        f"(analytic achievable {analytic_upper})"
    )
    return EXIT_OK


def cmd_verify_converse(args, argv: list[str]) -> int:
    config = _network(args)
    ells = None if args.ell == "all" else [args.ell]
    reports = verify_converse(config, ells, trials=args.trials, seed=args.seed)
    tolerances = {
        "reconstruction": args.tol_reconstruction,
        "logdet_oracle": args.tol_logdet,
        "noise_cov": args.tol_noise_cov,
    }
    entries = [{**dataclasses.asdict(rep),
                "pass": report_passes(rep, *tolerances.values())}
               for rep in reports]
    all_pass = all(entry["pass"] for entry in entries)
    report_doc = {
        "num_ens": config.num_ens,
        "num_users": config.num_users,
        "master_seed": args.seed,
        "tolerances": tolerances,
        "checks": entries,
        "pass": all_pass,
    }
    _write_outputs(args, argv, config, args.seed,
                   json.dumps(report_doc, indent=2, sort_keys=True) + "\n")
    for entry in entries:
        status = "pass" if entry["pass"] else "FAIL"
        print(
            f"ell={entry['ell']}: reconstruction "
            f"{entry['max_reconstruction_residual']:.3e}, logdet oracle "
            f"{entry['max_logdet_oracle_error']:.3e}, noise cov "
            f"{entry['noise_cov_error']:.3e} [{status}]"
        )
    return EXIT_OK if all_pass else EXIT_TOLERANCE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `main` looks up each handler by
    name when it runs, so a patched handler still runs."""
    parser = argparse.ArgumentParser(
        prog="edgecache",
        description="Latency-storage tradeoffs of cache-aided wireless networks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    network = argparse.ArgumentParser(add_help=False)
    nodes = _int_flag(1, "MAX_NODES")
    network.add_argument("--m", type=nodes, required=True, help="number of ENs")
    network.add_argument("--k", type=nodes, required=True,
                         help="number of users")
    seed = _int_flag(0, "MAX_SEED")

    p_bounds = sub.add_parser("bounds", parents=[network],
                              help="sweep the exact tradeoff curves")
    p_bounds.add_argument("--csi", choices=[m.value for m in CsiMode],
                          default="perfect")
    p_bounds.add_argument("--grid-step", type=_grid_step, default=None,
                          help="rational step p/q (default: 1/(12*M*K))")
    p_bounds.add_argument("--out", type=Path, required=True,
                          help="output CSV path")
    p_bounds.add_argument("--json", action="store_true",
                          help="also write a JSON copy of the table")
    p_bounds.set_defaults(handler="cmd_bounds")

    p_sim = sub.add_parser("simulate", parents=[network],
                           help="run a Monte-Carlo delivery campaign")
    p_sim.add_argument("--n", type=_int_flag(1, "MAX_LIBRARY_BITS"),
                       help="library size (default: K)")
    p_sim.add_argument("--l", type=_int_flag(1, "MAX_LIBRARY_BITS"),
                       default=DEFAULT_FILE_BITS,
                       help=f"file size in bits (default: {DEFAULT_FILE_BITS})")
    p_sim.add_argument("--mu", type=_rational, required=True,
                       help="fractional cache size p/q")
    p_sim.add_argument("--scheme", choices=[s.value for s in Scheme],
                       required=True)
    p_sim.add_argument("--snr-grid", type=_snr_grid,
                       default=",".join(f"{s:g}" for s in DEFAULT_SNR_GRID_DB),
                       help="comma-separated distinct dB values")
    p_sim.add_argument("--trials", default=DEFAULT_TRIALS_PER_SNR,
                       type=_int_flag(MIN_TRIALS_PER_SNR, "MAX_CAMPAIGN_TRIALS"),
                       help="trials per SNR point")
    p_sim.add_argument("--seed", type=seed, required=True,
                       help="master seed (required for reproducibility)")
    p_sim.add_argument("--out", type=Path, required=True,
                       help="output CSV path")
    p_sim.set_defaults(handler="cmd_simulate")

    p_ver = sub.add_parser("verify-converse", parents=[network],
                           help="check the converse identities numerically")
    p_ver.add_argument("--ell", type=_ell, default="all",
                       help="'all' or a single cut parameter")
    p_ver.add_argument("--trials", type=_int_flag(1, "MAX_CAMPAIGN_TRIALS"),
                       default=1000)
    p_ver.add_argument("--seed", type=seed, required=True)
    p_ver.add_argument("--tol-reconstruction", type=_tolerance,
                       default=RECONSTRUCTION_TOL)
    p_ver.add_argument("--tol-logdet", type=_tolerance,
                       default=LOGDET_ORACLE_TOL)
    p_ver.add_argument("--tol-noise-cov", type=_tolerance,
                       default=NOISE_COV_TOL)
    p_ver.add_argument("--out", type=Path, required=True,
                       help="output JSON path")
    p_ver.set_defaults(handler="cmd_verify_converse")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_outputs(_outputs(args))
        return globals()[args.handler](args, argv)
    except (ArgumentError, RangeError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EdgeCacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
