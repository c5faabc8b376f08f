"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

They run tiny qcollide scenarios in subprocesses, so the tracer never
patches the test process itself.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m.get("unit", "")), m
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


STUB = """
import argparse, json, pathlib, sys
p = argparse.ArgumentParser()
for flag in ("--src", "--config", "--out", "--result", "--spans"):
    p.add_argument(flag)
p.add_argument("--setup-only", action="store_true")
a = p.parse_args()
out = pathlib.Path(a.out)
out.mkdir(parents=True, exist_ok=True)
report = {"scenario": "stub", "seed": None, "checks": [{"name": "stub", "value": 1.0, "bound": 0.0, "pass": False}]}
(out / "report.json").write_text(json.dumps(report))
print("CHECK stub FAIL value=1.0 bound=0.0")
result = {"package": %r, "setup_s": 0.01, "wall_s": 0.01, "peak_rss_mb": 1.0}
pathlib.Path(a.result).write_text(json.dumps(result))
sys.exit(0 if a.setup_only else 2)
"""


def test_stubbed_failing_run_is_counted(tmp_path, monkeypatch, capsys):
    stub = tmp_path / "stub.py"
    stub.write_text(STUB % str((run.ROOT / "src" / "qcollide").resolve()))
    monkeypatch.setattr(run, "CHILD", stub)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    assert run.main(["--workload", "trajectory", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    # Each scenario run fails twice: its exit code and its FAIL line.
    assert result["failed"] >= 2 * run.MIN_RUNS
    assert result["attempted"] > result["failed"]


def test_missing_program_exits_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "multibath", "--seed", "1", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def runner_for(monkeypatch, tmp_path, workload: run.Workload) -> run.Runner:
    monkeypatch.setitem(run.WORKLOADS, "tiny", workload)
    return run.Runner("tiny", 0, tmp_path, deadline=time.monotonic() + 120)


def test_traced_run_reports_every_per_layer_metric(monkeypatch, tmp_path):
    runner = runner_for(monkeypatch, tmp_path, run.Workload("qubit-demo.json", {"n_steps": 4}))
    config = runner.config(0)
    plain, traced = runner.child(config), runner.child(config, traced=True)
    assert plain.exit_code == traced.exit_code == 0
    assert all(ok for _, ok, _ in checks.identical_outputs(plain.out, traced.out))
    metrics = run.layer_metrics([(plain, traced)])
    assert [m["name"] for m in SPEC["per_layer"] if m["name"] not in metrics] == []
    # Module self times add up to the traced wall time, up to the residual.
    modules = sum(metrics[f"{m}.self_s"] for m in run.tracer.MODULES)
    assert metrics["trace.wall_s"] - modules == pytest.approx(metrics["trace.residual_s"], abs=1e-9)
    assert 0 <= metrics["trace.residual_s"] < 1e-3
    # DensityMatrix calls hermitian_eig through the name states imported, so
    # these eigendecompositions are only seen if that binding was patched.
    assert metrics["linalg.hermitian_eig.calls"] >= metrics["states.DensityMatrix.init.calls"] > 0
    assert metrics["collisions.collide.calls"] == 4
    assert metrics["lindblad.rates.calls"] == 4


def _outputs(path: Path, value: float) -> Path:
    path.mkdir()
    (path / "data.csv").write_text(f"step,x\n1,{value!r}\n2,0.5\n")
    report = {"scenario": "s", "seed": None, "checks": [{"name": "c", "value": value, "bound": 1.0, "pass": True}]}
    (path / "report.json").write_text(json.dumps(report))
    return path


@pytest.mark.parametrize("delta, ok", [(0.0, True), (1e-14, True), (1e-6, False)])
def test_reference_tolerance(tmp_path, delta, ok):
    ref = checks.snapshot(_outputs(tmp_path / "ref", 0.25), "data.csv", 1)
    got = checks.match_reference(_outputs(tmp_path / "got", 0.25 + delta), ref)
    assert all(passed for _, passed, _ in got) is ok


def test_byte_identity_check(tmp_path):
    a, b = _outputs(tmp_path / "a", 0.25), _outputs(tmp_path / "b", 0.25 + 1e-16)
    assert not all(passed for _, passed, _ in checks.identical_outputs(a, b))
    assert all(passed for _, passed, _ in checks.identical_outputs(a, a))


def test_suite_recomputation_agrees_with_the_program(monkeypatch, tmp_path):
    runner = runner_for(monkeypatch, tmp_path, run.Workload("bound-check.json", {"n_steps": 5}, seeded=True))
    config = runner.config(0)
    child = runner.child(config)
    assert child.exit_code == 0
    seed = json.loads(config.read_text())["seed"]
    assert all(passed for _, passed, _ in checks.match_suite(child.out, seed, 5))
    assert not all(passed for _, passed, _ in checks.match_suite(child.out, seed + 1, 5))
