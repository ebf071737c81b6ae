"""Output checks for one CLI call against the checked-in reference.

Seed-independent checks run on every call: the exit code, the manifest's
digests against the files on disk, every `pass` flag, the converse
residuals against the tolerances the report records, and the `bounds`
digests, which must match the reference bit for bit (exact rationals).
At the reference seed the `simulate` and `verify-converse` outputs must
also match the reference numerically: every number within relative 1e-9,
except the rounding residuals, which only have to meet the tolerances.
Matching digests of those outputs are counted, not required, so a change
that moves only the last bits is reported rather than rejected.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REL_TOL = 1e-9

# Rounding residuals in a verify-converse report -> key of its tolerance.
RESIDUALS = {
    "max_reconstruction_residual": "reconstruction",
    "max_logdet_oracle_error": "logdet_oracle",
    "noise_cov_error": "noise_cov",
}


@dataclass
class CallCheck:
    problems: list[str] = field(default_factory=list)
    work: int = 0  # bounds rows, simulate trials or converse trials x ells
    digests: dict[str, str] = field(default_factory=dict)
    digest_matches: int = 0
    digests_compared: int = 0
    bytes_written: int = 0


def data_files(command: str, out: Path) -> list[Path]:
    if command == "bounds":
        return [out, out.with_suffix(".json")]
    if command == "simulate":
        return [out, out.with_suffix(".summary.json")]
    return [out]


def manifest_path(out: Path) -> Path:
    return out.with_name(out.stem + ".manifest.json")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_values(command: str, out: Path) -> dict:
    """The numbers a simulate or verify-converse call wrote, as the reference
    stores them."""
    if command == "simulate":
        rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
        summary = json.loads(out.with_suffix(".summary.json").read_text(encoding="utf-8"))
        return {"csv": rows, "summary": summary}
    return {"report": json.loads(out.read_text(encoding="utf-8"))}


def regions_line(stdout: str) -> str:
    """The `bounds` summary line, which does not name the output path."""
    return next((line for line in stdout.splitlines()
                 if not line.startswith("wrote ")), "")


def _cell(value):
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return value


def compare(actual, expected, where: str, problems: list[str],
            skip=frozenset()) -> None:
    """Structural comparison; numbers within REL_TOL; keys in `skip` ignored."""
    actual, expected = _cell(actual), _cell(expected)
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            problems.append(f"{where}: keys differ from the reference")
            return
        for key in expected:
            if key not in skip:
                compare(actual[key], expected[key], f"{where}.{key}", problems, skip)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            problems.append(f"{where}: length differs from the reference")
            return
        for i, (a, e) in enumerate(zip(actual, expected)):
            compare(a, e, f"{where}[{i}]", problems, skip)
    elif isinstance(expected, (int, float)) and not isinstance(expected, bool):
        ok = (isinstance(actual, (int, float)) and not isinstance(actual, bool)
              and abs(actual - expected) <= REL_TOL * max(abs(actual), abs(expected)))
        if not ok:
            problems.append(f"{where}: {actual!r} != reference {expected!r}")
    elif actual != expected:
        problems.append(f"{where}: {actual!r} != reference {expected!r}")


def _check_report(report: dict, problems: list[str]) -> int:
    if report.get("pass") is not True:
        problems.append("report: pass flag is not true")
    tolerances = report["tolerances"]
    for entry in report["checks"]:
        if entry.get("pass") is not True:
            problems.append(f"ell={entry['ell']}: pass flag is not true")
        for key, tol_key in RESIDUALS.items():
            value = entry[key]
            if not (math.isfinite(value) and value < tolerances[tol_key]):
                problems.append(f"ell={entry['ell']}: {key} {value!r} "
                                f"not below {tolerances[tol_key]!r}")
    return sum(entry["trials"] for entry in report["checks"])


def check_call(command: str, out: Path, exit_code, stdout: str,
               reference: dict, at_reference_seed: bool) -> CallCheck:
    """Check one call's outputs; `reference` is its entry in the reference."""
    check = CallCheck()
    if exit_code != 0:
        check.problems.append(f"exit code {exit_code}")
        return check
    try:
        _check_outputs(command, out, stdout, reference, at_reference_seed, check)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        check.problems.append(f"unreadable output: {exc!r}")
    return check


def _check_outputs(command, out, stdout, reference, at_reference_seed,
                   check: CallCheck) -> None:
    files = data_files(command, out)
    manifest = manifest_path(out)
    check.digests = {p.name: sha256(p) for p in files}
    check.bytes_written = sum(p.stat().st_size for p in files + [manifest])
    recorded = json.loads(manifest.read_text(encoding="utf-8"))["output_digests"]
    if recorded != check.digests:
        check.problems.append("manifest digests differ from the files written")
    if command == "bounds" or at_reference_seed:
        for name, digest in check.digests.items():
            check.digests_compared += 1
            check.digest_matches += digest == reference["sha256"].get(name)

    if command == "bounds":
        if check.digests != reference["sha256"]:
            check.problems.append("bounds output is not bit-identical to the reference")
        if regions_line(stdout) != reference["stdout"]:
            check.problems.append(f"bounds printed {regions_line(stdout)!r}, "
                                  f"reference {reference['stdout']!r}")
        with out.open(encoding="utf-8") as fh:
            check.work = sum(1 for _ in fh) - 1  # minus the header
        return
    values = read_values(command, out)
    if command == "simulate":
        check.work = sum(int(row[1]) for row in values["csv"][1:])
    else:
        check.work = _check_report(values["report"], check.problems)
    if at_reference_seed:
        compare(values, reference["values"], out.name, check.problems,
                skip=frozenset(RESIDUALS))
