"""The digest corpus: every entry of `digest_corpus.json`, rerun in process,
writes the data files it was recorded with (`write_digest_corpus.py`)."""

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


def test_check_in_a_fresh_interpreter_at_two_blas_threads():
    """The script's `--check` on one entry of each numpy subcommand, as CI
    runs it."""
    script = Path(__file__).with_name("write_digest_corpus.py")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(
        Path(edgecache.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(script), "--check", "verify-converse-7x4",
         "tdma-6x6"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["verify-converse-7x4: ok",
                                        "tdma-6x6: ok"]
