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
# name -> argv, less `--out`. The verify-converse entries reach the 16x16 cap
# of the exact oracle; the bounds entries a 100x100 grid and a step that does
# not divide 1 - 1/M; the tdma entries low SNRs, where np.log2 and math.log2
# disagree most in the last bit
ENTRIES = {
    "verify-converse-7x4": ["verify-converse", "--m", "7", "--k", "4",
                            "--ell", "all", "--trials", "100", "--seed", "0"],
    "verify-converse-10x10": ["verify-converse", "--m", "10", "--k", "10",
                              "--ell", "all", "--trials", "50", "--seed", "0"],
    "verify-converse-16x16": ["verify-converse", "--m", "16", "--k", "16",
                              "--ell", "all", "--trials", "50", "--seed", "0"],
    "bounds-100x100": ["bounds", "--m", "100", "--k", "100", "--json"],
    "bounds-7x5-step-1/97": ["bounds", "--m", "7", "--k", "5",
                             "--grid-step", "1/97", "--json"],
    "tdma-16x16": ["simulate", "--m", "16", "--k", "16", "--mu", "1/2",
                   "--scheme", "tdma", "--snr-grid=-30,0,30",
                   "--trials", "1000", "--seed", "0"],
    "tdma-6x6": ["simulate", "--m", "6", "--k", "6", "--mu", "1/2",
                 "--scheme", "tdma", "--snr-grid=-30,0,30",
                 "--trials", "1000", "--seed", "0"],
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
