"""Regenerate the reference outputs in perfbench/reference/.

Runs one untraced pass of every workload at the reference seed and stores,
per call, the SHA-256 of each data file plus what the output check compares:
the `bounds` summary line, or the numbers `simulate` and `verify-converse`
wrote. Run it from the root of a checkout whose outputs are the accepted
behaviour, and only when a change to that behaviour is intended:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import outputs
from worker import REFERENCE_DIR, run_pass
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    import edgecache.cli as cli

    out_dir = Path.cwd() / ".perfbench_work" / "reference"
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        calls = {}
        for result in run_pass(cli, workload, REFERENCE_SEED, out_dir):
            command, out = result["call"].command, result["out"]
            if result["exit_code"] != 0:
                print(f"{workload.name}: {command} exited {result['exit_code']}",
                      file=sys.stderr)
                return 1
            entry = {"sha256": {p.name: outputs.sha256(p)
                                for p in outputs.data_files(command, out)}}
            if command == "bounds":
                entry["stdout"] = outputs.regions_line(result["stdout"])
            else:
                entry["values"] = outputs.read_values(command, out)
            calls[result["call"].stem] = entry
        path = REFERENCE_DIR / f"{workload.name}.json"
        path.write_text(json.dumps({"seed": REFERENCE_SEED, "calls": calls},
                                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
