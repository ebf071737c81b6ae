"""The digest corpus: `edgecache` runs whose data files must keep their bytes.

Each entry of `digest_corpus.json` holds a command's argv, the SHA-256 of
every data file the command writes and the numpy version it was recorded
with. Manifests stay out: each records the time it was written. A change
that moves an entry is a behaviour change, and it lists each moved entry,
old -> new, with its reason.

    python tests/write_digest_corpus.py                    # record every entry
    python tests/write_digest_corpus.py --check            # compare every entry
    python tests/write_digest_corpus.py --check tdma-6x6   # compare some

Run it with `src` on PYTHONPATH, or with the package installed. `--check`
exits 1 and prints each file that differs, with the numpy version in use
beside the recorded one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().with_name("digest_corpus.json")
# name -> argv, less `--out`. Each group says what its runs reach
ENTRIES = {
    # the exact oracle up to its 16x16 cap. Every cut reads one noise
    # covariance drawn as a Wishart matrix; 6x6 is the benchmark's
    # `converse-verify` call, and at K = 2 (3x2) the covariance is 1 x 1,
    # which einsum sums in a loop of its own
    "verify-converse-7x4": ["verify-converse", "--m", "7", "--k", "4",
                            "--ell", "all", "--trials", "100", "--seed", "0"],
    "verify-converse-10x10": ["verify-converse", "--m", "10", "--k", "10",
                              "--ell", "all", "--trials", "50", "--seed", "0"],
    "verify-converse-16x16": ["verify-converse", "--m", "16", "--k", "16",
                              "--ell", "all", "--trials", "50", "--seed", "0"],
    "verify-converse-6x6": ["verify-converse", "--m", "6", "--k", "6",
                            "--ell", "all", "--trials", "50", "--seed", "0"],
    "verify-converse-3x3": ["verify-converse", "--m", "3", "--k", "3",
                            "--ell", "all", "--trials", "1000", "--seed", "0"],
    "verify-converse-3x2": ["verify-converse", "--m", "3", "--k", "2",
                            "--ell", "all", "--trials", "100", "--seed", "0"],
    # the bounds layer: a 100x100 grid, steps that do not divide 1 - 1/M
    # (7x5 and 12x5), the benchmark's `bounds-sweep` call (30x30), every CSI
    # mode at 2x2, and one EN or one user
    "bounds-100x100": ["bounds", "--m", "100", "--k", "100", "--json"],
    "bounds-7x5-step-1/97": ["bounds", "--m", "7", "--k", "5",
                             "--grid-step", "1/97", "--json"],
    "bounds-30x30-step-1/1800": ["bounds", "--m", "30", "--k", "30",
                                 "--grid-step", "1/1800", "--json"],
    "bounds-2x2-perfect": ["bounds", "--m", "2", "--k", "2", "--json"],
    "bounds-2x2-delayed": ["bounds", "--m", "2", "--k", "2",
                           "--csi", "delayed", "--json"],
    "bounds-2x2-nocsi": ["bounds", "--m", "2", "--k", "2",
                         "--csi", "nocsi", "--json"],
    "bounds-3x3": ["bounds", "--m", "3", "--k", "3", "--json"],
    "bounds-2x3": ["bounds", "--m", "2", "--k", "3", "--json"],
    "bounds-1x4": ["bounds", "--m", "1", "--k", "4", "--json"],
    "bounds-7x1": ["bounds", "--m", "7", "--k", "1", "--json"],
    "bounds-12x5-step-1/97": ["bounds", "--m", "12", "--k", "5",
                              "--grid-step", "1/97", "--json"],
    # low SNRs, where np.log2 and math.log2 disagree most in the last bit
    "tdma-16x16": ["simulate", "--m", "16", "--k", "16", "--mu", "1/2",
                   "--scheme", "tdma", "--snr-grid=-30,0,30",
                   "--trials", "1000", "--seed", "0"],
    "tdma-6x6": ["simulate", "--m", "6", "--k", "6", "--mu", "1/2",
                 "--scheme", "tdma", "--snr-grid=-30,0,30",
                 "--trials", "1000", "--seed", "0"],
    # the first channel draws: 16 normals a draw (4x4) take the fast path,
    # about a fifth of trials falling back to the per-trial loop; 36 and 256
    # (6x6, 16x16) take the loop alone
    "zf-4x4-50-trials": ["simulate", "--m", "4", "--k", "4", "--mu", "1",
                         "--scheme", "zf", "--trials", "50", "--seed", "0"],
    "tdma-4x4-50-trials": ["simulate", "--m", "4", "--k", "4", "--mu", "1/2",
                           "--scheme", "tdma", "--trials", "50",
                           "--seed", "0"],
    "zf-6x6-50-trials": ["simulate", "--m", "6", "--k", "6", "--mu", "1",
                         "--scheme", "zf", "--trials", "50", "--seed", "0"],
    "tdma-6x6-50-trials": ["simulate", "--m", "6", "--k", "6", "--mu", "1/2",
                           "--scheme", "tdma", "--trials", "50",
                           "--seed", "0"],
    "zf-16x16-50-trials": ["simulate", "--m", "16", "--k", "16", "--mu", "1",
                           "--scheme", "zf", "--trials", "50", "--seed", "0"],
    "tdma-16x16-50-trials": ["simulate", "--m", "16", "--k", "16",
                             "--mu", "1/2", "--scheme", "tdma",
                             "--trials", "50", "--seed", "0"],
    # K < M: the wide precoder's QR
    "zf-4x3-50-trials": ["simulate", "--m", "4", "--k", "3", "--mu", "1",
                         "--scheme", "zf", "--trials", "50", "--seed", "0"],
    # the alignment schemes at a second seed
    "ia-2x2-seed-7": ["simulate", "--m", "2", "--k", "2", "--mu", "1/2",
                      "--scheme", "ia", "--trials", "50", "--seed", "7"],
    "hybrid-2x2-seed-7": ["simulate", "--m", "2", "--k", "2", "--mu", "3/4",
                          "--scheme", "hybrid", "--trials", "50",
                          "--seed", "7"],
    # 1,250 trials: a campaign past the first TRIAL_CHUNK
    "zf-2x2-250-trials": ["simulate", "--m", "2", "--k", "2", "--mu", "1",
                          "--scheme", "zf", "--trials", "250", "--seed", "0"],
    # the benchmark's `sim-2x2` and `sim-library` calls at its reference seed
    "sim-2x2-zf": ["simulate", "--m", "2", "--k", "2", "--mu", "1",
                   "--scheme", "zf", "--trials", "50", "--seed", "0"],
    "sim-2x2-ia": ["simulate", "--m", "2", "--k", "2", "--mu", "1/2",
                   "--scheme", "ia", "--trials", "50", "--seed", "0"],
    "sim-2x2-hybrid": ["simulate", "--m", "2", "--k", "2", "--mu", "3/4",
                       "--scheme", "hybrid", "--trials", "50", "--seed", "0"],
    "sim-2x2-tdma": ["simulate", "--m", "2", "--k", "2", "--mu", "1/2",
                     "--scheme", "tdma", "--trials", "50", "--seed", "0"],
    "sim-library": ["simulate", "--m", "6", "--k", "6", "--n", "400",
                    "--l", "48000", "--mu", "1/2", "--scheme", "tdma",
                    "--snr-grid", "20,40,60", "--trials", "50", "--seed", "0"],
    # M = 1: tdma reads its delivery table from the full placement
    "tdma-1x1-seed-3": ["simulate", "--m", "1", "--k", "1", "--mu", "1",
                        "--scheme", "tdma", "--trials", "50", "--seed", "3"],
}


def data_digests(argv: list[str], workdir: Path) -> dict[str, str]:
    """Run `edgecache <argv>` in process with its output in `workdir`, and
    return the SHA-256 of every data file it wrote, by file name. What the
    command prints is dropped."""
    from edgecache.cli import EXIT_OK, main

    out = workdir / ("out.json" if argv[0] == "verify-converse" else "out.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    if code != EXIT_OK:
        raise RuntimeError(f"edgecache {' '.join(argv)} exited {code}")
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(workdir.iterdir())
            if not path.name.endswith(".manifest.json")}


def load_corpus() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def differences(entry: dict, got: dict[str, str]) -> list[str]:
    """One line per data file of `entry` whose digest is not the recorded
    one, or that one side lacks."""
    import numpy

    return [f"{entry['name']}: {name} is {got.get(name)}, recorded "
            f"{entry['sha256'].get(name)}; numpy {numpy.__version__} in use, "
            f"recorded with numpy {entry['numpy']}"
            for name in sorted(set(got) | set(entry["sha256"]))
            if got.get(name) != entry["sha256"].get(name)]


def check_entry(entry: dict) -> list[str]:
    with tempfile.TemporaryDirectory() as workdir:
        return differences(entry, data_digests(entry["argv"], Path(workdir)))


def record() -> None:
    import numpy

    corpus = []
    for name, argv in ENTRIES.items():
        with tempfile.TemporaryDirectory() as workdir:
            corpus.append({"name": name, "argv": argv,
                           "sha256": data_digests(argv, Path(workdir)),
                           "numpy": numpy.__version__})
    CORPUS.write_text(json.dumps(corpus, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the corpus instead of recording it")
    parser.add_argument("names", nargs="*",
                        help="entries to check (default: every entry)")
    args = parser.parse_args(argv)
    if not args.check:
        if args.names:
            parser.error("entry names go with --check: record writes them all")
        record()
        return 0
    corpus = {entry["name"]: entry for entry in load_corpus()}
    unknown = sorted(set(args.names) - set(corpus))
    if unknown:
        parser.error(f"no such entry: {', '.join(unknown)}")
    failures = []
    for name in args.names or corpus:
        found = check_entry(corpus[name])
        print(f"{name}: {'differs' if found else 'ok'}")
        failures += found
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
