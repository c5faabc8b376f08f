"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads trajectory multibath --seeds 1-10 \
        [--seconds 20] [--trace 0] [--out FILE]

Runs ``run.py`` once per (workload, seed), one after another, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread ``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``.  ``--out`` writes every run's result and the machine facts
as JSON, which is the form of ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"), help="range such as 1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    record = {"seconds": args.seconds, "trace": args.trace, "machine": None, "workloads": {}}
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            for line in lines:
                if line.startswith("# machine ") and record["machine"] is None:
                    record["machine"] = json.loads(line[len("# machine "):])
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result})
            if not result["correct"]:
                status = 1
            print(f"{workload} seed {seed}: {time.monotonic() - started:.1f} s correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if bounds.get(k) is not None), flush=True)
        summary = {}
        for name in (runs[0]["metrics"] if runs else {}):
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None, "bound": bounds.get(name)}
            if bounds.get(name) is not None:
                spread = summary[name]["spread"]
                flag = "ok" if spread is not None and spread < bounds[name] / 3 else "WIDE"
                print(f"  {workload:13s} {name:12s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                      f"spread={spread:.4f} bound={bounds[name]} {flag}")
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
