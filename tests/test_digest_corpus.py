"""The digest corpus: every entry of `digest_corpus.json`, rerun in process,
writes the data files it was recorded with (`write_digest_corpus.py`), and
so do the thread twins at one and at two OpenBLAS threads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import edgecache
import write_digest_corpus
from write_digest_corpus import ENTRIES, check_entry, load_corpus

CORPUS = load_corpus()


def test_the_corpus_records_every_entry_once():
    assert {entry["name"]: entry["argv"] for entry in CORPUS} == ENTRIES
    assert len(CORPUS) == len(ENTRIES)
    for entry in CORPUS:
        assert entry["sha256"] and entry["numpy"]
        assert not any(name.endswith(".manifest.json")
                       for name in entry["sha256"])


@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
def test_entry_writes_its_recorded_bytes(entry):
    assert check_entry(entry) == []


def test_a_moved_entry_fails_the_check_and_names_both_numpy_versions(
        tmp_path, monkeypatch, capsys):
    entry = next(e for e in CORPUS if e["name"] == "bounds-7x5-step-1/97")
    moved = {**entry, "sha256": {**entry["sha256"], "out.csv": "0" * 64},
             "numpy": "0.0.0"}
    corpus = tmp_path / "digest_corpus.json"
    corpus.write_text(json.dumps([moved]), encoding="utf-8")
    monkeypatch.setattr(write_digest_corpus, "CORPUS", corpus)
    assert write_digest_corpus.main(["--check"]) == 1
    out, err = capsys.readouterr()
    assert out == "bounds-7x5-step-1/97: differs\n"
    got = entry["sha256"]["out.csv"]
    assert err == (f"bounds-7x5-step-1/97: out.csv is {got}, recorded "
                   f"{'0' * 64}; numpy {numpy.__version__} in use, recorded "
                   "with numpy 0.0.0\n")
    with pytest.raises(SystemExit):
        write_digest_corpus.main(["--check", "no-such-entry"])


def test_record_writes_each_entry_as_checked_in(tmp_path, monkeypatch):
    """`record()`, the corpus's only writer, on two small entries: the bytes
    checked in, but for the numpy version, which is the one in use."""
    names = ["bounds-2x2-perfect", "tdma-1x1-seed-3"]
    corpus = tmp_path / "digest_corpus.json"
    monkeypatch.setattr(write_digest_corpus, "ENTRIES",
                        {name: ENTRIES[name] for name in names})
    monkeypatch.setattr(write_digest_corpus, "CORPUS", corpus)
    write_digest_corpus.record()
    recorded = {entry["name"]: entry for entry in CORPUS}
    want = [{**recorded[name], "numpy": numpy.__version__} for name in names]
    assert corpus.read_text(encoding="utf-8") == \
        json.dumps(want, indent=2) + "\n"


# entries whose bytes must not depend on the OpenBLAS thread count: the first
# draws' fast path and per-trial loop, each scheme's 2x2 kernels, the wide
# precoder, the converse's Wishart noise covariance (3x3) and its 1 x 1
# einsum (3x2), and the exact oracle at 10x10
THREAD_TWINS = ["zf-4x4-50-trials", "zf-4x3-50-trials",
                "tdma-16x16-50-trials", "tdma-16x16",
                "tdma-6x6", "sim-2x2-zf", "sim-2x2-ia", "sim-2x2-hybrid",
                "sim-2x2-tdma", "verify-converse-3x3", "verify-converse-3x2",
                "verify-converse-7x4", "verify-converse-10x10"]


@pytest.mark.parametrize("threads", [1, 2])
def test_check_in_a_fresh_interpreter(threads):
    """The script's `--check` on the thread twins, in a fresh interpreter
    with `threads` OpenBLAS threads. The in-process entry test runs at
    whatever thread count the suite started with."""
    script = Path(__file__).with_name("write_digest_corpus.py")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(
        Path(edgecache.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(script), "--check",
                           *THREAD_TWINS], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{name}: ok" for name in THREAD_TWINS]
