"""qcollide scenario benchmark: end-to-end timings, per-layer traces and a
correctness gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout the script sits in must hold ``src/qcollide`` and ``configs/``.
Every scenario run is one fresh process (``perfbench/child.py``) that does
what ``qcollide run`` does.  With ``--trace 0`` the runs carry no tracer and
give the end-to-end metrics; with ``--trace 1`` untraced and traced runs
alternate and give the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` (checks) and
``metrics``, named and unit-tagged as in ``BENCHMARK.json``.  Exits 2 without
a result when the checkout holds no program to run.

Workloads (see README.md for why each was chosen and what it should move):

- ``trajectory``: configs/qubit-demo.json with ``n_steps`` raised to 1000.
- ``random-suite``: configs/bound-check.json at 200 samples, one seed per
  scenario run, derived from ``--seed``.
- ``multibath``: configs/multibath.json as bundled.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = HERE / "_work"
REFERENCE = HERE / "reference"

SETUP_PROBES = 9
MIN_RUNS = 3
DEADLINE_S = 170.0
# Time kept back at the deadline for verification, which runs after the
# timed processes so that it never competes with them for a CPU.
VERIFY_RESERVE_S = 40.0


@dataclass(frozen=True)
class Workload:
    config: str
    overrides: dict
    seeded: bool = False  # each scenario run gets its own seed derived from --seed


WORKLOADS = {
    "trajectory": Workload("qubit-demo.json", {"n_steps": 1000}),
    "random-suite": Workload("bound-check.json", {"n_steps": 200}, seeded=True),
    "multibath": Workload("multibath.json", {}),
}


def run_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th scenario run of a seeded workload."""
    return (seed * 1_000_003 + index) % 2**63


@dataclass
class ChildRun:
    config: Path
    out: Path
    exit_code: int
    stdout: str
    result: dict
    spans: Path | None = None


def machine_facts() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.25 has no mode argument
        deps = {}

    def lib(kind: str) -> str:
        info = deps.get(kind, {})
        return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": lib("blas"),
        "lapack": lib("lapack"),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "loadavg_at_start": list(os.getloadavg()),
    }


class Runner:
    def __init__(self, workload: str, seed: int, run_dir: Path, deadline: float):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.base = json.loads((ROOT / "configs" / self.spec.config).read_text(encoding="utf-8"))
        self.count = 0

    def config(self, index: int) -> Path:
        path = self.run_dir / f"config-{index if self.spec.seeded else 0}.json"
        if not path.exists():
            cfg = {**self.base, **self.spec.overrides, "output_dir": "unused-out"}
            if self.spec.seeded:
                cfg["seed"] = run_seed(self.seed, index)
            path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def child(self, config: Path, *, setup_only: bool = False, traced: bool = False) -> ChildRun:
        self.count += 1
        tag = f"{self.count:03d}"
        out, result = self.run_dir / f"out-{tag}", self.run_dir / f"result-{tag}.json"
        spans = self.run_dir / f"spans-{tag}.npz" if traced else None
        cmd = [sys.executable, str(CHILD), "--src", str(ROOT / "src"), "--config", str(config),
               "--out", str(out), "--result", str(result)]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", str(spans)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=self.run_dir, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=timeout)
            code, stdout = proc.returncode, proc.stdout
            if proc.stderr:
                print(proc.stderr.rstrip(), file=sys.stderr)
        except subprocess.TimeoutExpired:
            code, stdout = -1, ""
        try:
            payload = json.loads(result.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            payload = {}
        return ChildRun(config, out, code, stdout, payload, spans)

    def has_time_for(self, runs: list[ChildRun], factor: float) -> bool:
        longest = max((r.result.get("wall_s", 0.0) for r in runs), default=0.0)
        return time.monotonic() + factor * longest + VERIFY_RESERVE_S < self.deadline


def verify(runner: Runner, runs: list[ChildRun], gate: list[checks.Check]) -> None:
    """Run checks, reference or recomputation checks, and byte identity."""
    package = str((ROOT / "src" / "qcollide").resolve())
    first_of: dict[Path, ChildRun] = {}
    for run in runs:
        gate.extend(checks.run_checks(run.exit_code, run.stdout, run.out))
        gate.append(("package_under_test", run.result.get("package") == package,
                     f"imported {run.result.get('package')}"))
        if run.exit_code != 0:
            continue
        if run.config in first_of:
            gate.extend(checks.identical_outputs(first_of[run.config].out, run.out))
            continue
        first_of[run.config] = run
        try:
            if runner.spec.seeded:
                cfg = json.loads(run.config.read_text(encoding="utf-8"))
                gate.extend(checks.match_suite(run.out, cfg["seed"], cfg["n_steps"]))
            else:
                ref = json.loads((REFERENCE / f"{runner.workload}.json").read_text(encoding="utf-8"))
                gate.extend(checks.match_reference(run.out, ref))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            gate.append(("outputs_readable", False, f"{run.out}: {exc}"))
    repeated = len(runs) > len({r.config for r in runs})
    gate.append(("repeat_run_made", repeated, "no configuration ran twice, byte identity unchecked"))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def upper_decile(values: list[float]) -> float:
    """90th percentile, interpolated between the sorted values."""
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def in_time(start: float, seconds: float, runs: list[ChildRun], per_round: int = 1) -> bool:
    """True while one more round of runs would mostly fall inside ``seconds``."""
    last = sum(r.result.get("wall_s", 0.0) for r in runs[-per_round:])
    return time.monotonic() - start + 0.5 * last < seconds


def end_to_end(runner: Runner, seconds: float, gate: list[checks.Check]) -> tuple[dict, list[ChildRun]]:
    probes = [runner.child(runner.config(0), setup_only=True) for _ in range(SETUP_PROBES)]
    for probe in probes:
        gate.append(("setup_probe_exit", probe.exit_code == 0, f"setup probe exit {probe.exit_code}"))
    start = time.monotonic()
    timed: list[ChildRun] = []
    while (len(timed) < MIN_RUNS or in_time(start, seconds, timed)) and runner.has_time_for(timed, 2.0):
        timed.append(runner.child(runner.config(len(timed))))
    runs = list(timed)
    if runner.spec.seeded and runner.has_time_for(timed, 1.0):
        runs.append(runner.child(runner.config(0)))  # the byte-identity repeat
    walls = [r.result["wall_s"] for r in timed if "wall_s" in r.result]
    # The 90th percentile, not the median: on a shared host the scenario runs
    # slow down by up to 2x while neighbours are busy, in phases of tens of
    # seconds.  The busy phase is the steady one, and the median follows the
    # share of fast phases inside each run (README.md, "End-to-end metrics").
    metrics = {
        "wall_s": upper_decile(walls),
        "wall_s_median": median(walls),
        "setup_s": median([p.result["setup_s"] for p in probes if "setup_s" in p.result]),
        "peak_rss_mb": median([r.result["peak_rss_mb"] for r in timed if "peak_rss_mb" in r.result]),
        "runs": len(timed),
        "wall_s_runs": [r.result.get("wall_s") for r in timed],
        "cpu_s_runs": [r.result.get("cpu_s") for r in timed],
        "setup_s_probes": [p.result.get("setup_s") for p in probes],
    }
    return metrics, runs


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list[ChildRun]]:
    start = time.monotonic()
    runs: list[ChildRun] = []
    pairs: list[tuple[ChildRun, ChildRun]] = []
    while (not pairs or in_time(start, seconds, runs, 2)) and runner.has_time_for(runs, 3.0):
        config = runner.config(len(pairs))
        pair = (runner.child(config), runner.child(config, traced=True))
        runs += pair
        pairs.append(pair)
    return layer_metrics(pairs), runs


def layer_metrics(pairs: list[tuple[ChildRun, ChildRun]]) -> dict:
    """Per-layer metrics from (untraced, traced) runs of the same config:
    the median over traced runs of each span metric, per-call percentiles
    pooled over all traced runs, and the tracing overhead."""
    per_run, durations, overheads = [], {}, []
    for plain, traced in pairs:
        if "wall_s" not in traced.result or "wall_s" not in plain.result:
            continue
        metrics, calls = tracer.span_metrics(tracer.load_spans(traced.spans), traced.result["wall_s"])
        per_run.append(metrics)
        for name, values in calls.items():
            durations.setdefault(name, []).extend(values.tolist())
        overheads.append(traced.result["wall_s"] - plain.result["wall_s"])
    metrics = {name: median([m[name] for m in per_run]) for name in (per_run[0] if per_run else {})}
    for name, values in durations.items():
        for stat, value in tracer.percentiles_us(values).items():
            metrics[f"{name}.{stat}"] = value
    metrics["trace.overhead_s"] = median(overheads)
    metrics["runs"] = len(pairs)
    return metrics


def declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in (ROOT / "src" / "qcollide" / "cli.py",
                           ROOT / "configs" / WORKLOADS[args.workload].config) if not p.is_file()]
    if missing:
        print(f"error: no program to benchmark, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    facts = machine_facts()
    print("# machine " + json.dumps(facts))
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir, deadline)
    gate: list[checks.Check] = []  # every correctness check: (name, passed, detail)
    if args.trace:
        metrics, runs = per_layer(runner, args.seconds)
    else:
        metrics, runs = end_to_end(runner, args.seconds, gate)
    verify(runner, runs, gate)

    failed = [c for c in gate if not c[1]]
    for name, _, detail in failed:
        print(f"# FAIL {name}: {detail}")
    units = {m["name"]: m["unit"] for m in declared(args.trace)}
    values = {name: metrics.get(name, math.nan) for name in units}
    (run_dir / "summary.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
         "machine": facts, "metrics": metrics, "failed_checks": failed, "attempted": len(gate)},
        indent=1), encoding="utf-8")
    spans = [r.spans.name for r in runs if r.spans and r.spans.exists()][:1]
    for path in run_dir.iterdir():  # keep the summary and one spans file
        if path.name not in ("summary.json", *spans):
            shutil.rmtree(path) if path.is_dir() else path.unlink()
    unmeasured = [name for name, value in values.items() if not math.isfinite(value)]
    if unmeasured:
        print(f"error: no scenario run produced {', '.join(unmeasured)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed,
        "attempted": len(gate),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
