"""Record the reference outputs of the deterministic workloads.

    python3 perfbench/record_reference.py

Runs each deterministic workload once through ``child.py`` and writes
``perfbench/reference/<workload>.json``: every tenth trajectory row (the
cumulative columns carry the rows in between), the last row, and
``report.json``.  The references in the repository were recorded with the
program as first benchmarked; re-record only when a change to the physics
is intended, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import checks
import run

OUTPUTS = {"trajectory": ("trajectory.csv", 10), "multibath": ("convergence.csv", 1)}


def main() -> int:
    run.REFERENCE.mkdir(exist_ok=True)
    for workload, (csv_name, stride) in OUTPUTS.items():
        with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
            runner = run.Runner(workload, 0, Path(tmp), time.monotonic() + 600)
            child = runner.child(runner.config(0))
            failed = [c for c in checks.run_checks(child.exit_code, child.stdout, child.out) if not c[1]]
            if failed:
                print(f"{workload}: not recorded, failed {failed}", file=sys.stderr)
                return 1
            ref = checks.snapshot(child.out, csv_name, stride)
        path = run.REFERENCE / f"{workload}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"{workload}: {ref['n_rows']} rows, {len(ref['rows'])} kept -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
