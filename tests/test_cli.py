import json
import math
import re
import warnings
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qcollide
from qcollide.cli import (
    _ALLOWED_KEYS,
    _SCENARIO_KEYS,
    SECOND_LAW_BOUND,
    ConfigError,
    load_config,
    main,
    run_scenario,
)

from qcollide.lindblad import integrate
from qcollide.presets import maximally_mixed, qubit_collision
from qcollide.verify import generator_for, second_law_defects

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_bundled_fixture(self):
        cfg = load_config(CONFIG_DIR / "qubit-demo.json")
        assert cfg["scenario"] == "qubit-demo"
        assert cfg["tau"] == 0.01
        assert cfg["n_steps"] == 200

    @pytest.mark.parametrize(
        "name", ["qubit-demo", "converge", "bound-check", "oracle-check", "multibath", "custom"]
    )
    def test_all_bundled_configs_load(self, name):
        cfg = load_config(CONFIG_DIR / f"{name}.json")
        assert cfg["scenario"] == name

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "bad.json", {"scenario": "qubit-demo", "foo": 1})
        with pytest.raises(ConfigError, match="^unknown key 'foo'$"):
            load_config(path)

    def test_unknown_scenario_rejected(self, tmp_path):
        path = write(tmp_path, "bad.json", {"scenario": "warp"})
        with pytest.raises(ConfigError, match="^scenario must be one of "):
            load_config(path)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario": \n', encoding="utf-8")
        with pytest.raises(ConfigError, match=": line 2 column 1: Expecting value$"):
            load_config(path)

    def test_non_hermitian_matrix_named(self, tmp_path):
        payload = {
            "scenario": "custom",
            "H_S": [[[0.5, 0.0], [1.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
            "H_A": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
            "V": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "chi": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        }
        path = write(tmp_path, "bad.json", payload)
        with pytest.raises(ConfigError, match="^H_S deviates from Hermiticity by "):
            load_config(path)

    def test_missing_seed_for_randomized(self, tmp_path):
        path = write(tmp_path, "bad.json", {"scenario": "bound-check"})
        with pytest.raises(ConfigError, match="^seed: required for scenario 'bound-check'$"):
            load_config(path)

    def test_custom_requires_matrices(self, tmp_path):
        path = write(tmp_path, "bad.json", {"scenario": "custom"})
        with pytest.raises(ConfigError, match="^H_S: required for scenario 'custom'$"):
            load_config(path)

    def test_tau_list_only_for_sweeps(self, tmp_path):
        path = write(tmp_path, "bad.json", {"scenario": "qubit-demo", "tau": [0.01, 0.02]})
        with pytest.raises(ConfigError, match="^tau: expected one number, got "):
            load_config(path)


class TestRunScenario:
    def test_qubit_demo_writes_trajectory(self, tmp_path):
        cfg = load_config(write(tmp_path, "demo.json", {"scenario": "qubit-demo", "n_steps": 20}))
        code = run_scenario(cfg, out_dir=tmp_path / "out")
        assert code == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
        assert rows[0].startswith("step,t,E_S,Q_A_cum,W_cum,W_C_cum,Q_inc_cum,Sigma_cum,")
        assert len(rows) == 21  # header + n_steps
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["scenario"] == "qubit-demo"
        assert all(check["pass"] for check in report["checks"])

    def test_custom_scenario_runs(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "custom.json")
        assert run_scenario(cfg, out_dir=tmp_path) == 0

    def test_verification_failure_exits_two(self, tmp_path, capsys):
        # an energy-non-conserving interaction cannot keep |W| at zero
        payload = {
            "scenario": "custom",
            "H_S": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
            "H_A": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
            "V": [
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            ],
            "chi": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            "beta": 1.0,
            "lambda": 0.1,
            "tau": 0.01,
            "n_steps": 5,
        }
        cfg = load_config(write(tmp_path, "bad.json", payload))
        assert run_scenario(cfg, out_dir=tmp_path / "out") == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(line.startswith("CHECK work_scaled_max FAIL") for line in lines)

    def test_oracle_check_ends_with_the_second_law_of_the_qubit_fixture(self, tmp_path, capsys):
        cfg = qubit_collision(lam=0.3)
        gen = generator_for([cfg])
        _, states = integrate(gen, maximally_mixed(2), 2.0, 1e-2)
        worst = max(second_law_defects(gen, states, math.log(3.0)))
        assert run_scenario(load_config(CONFIG_DIR / "oracle-check.json"), out_dir=tmp_path) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"CHECK second_law_defect_max PASS value={worst!r} bound={SECOND_LAW_BOUND!r}"
        assert SECOND_LAW_BOUND == 1e-7

    def test_check_line_format(self, tmp_path, capsys):
        cfg = load_config(write(tmp_path, "demo.json", {"scenario": "qubit-demo", "n_steps": 3}))
        run_scenario(cfg, out_dir=tmp_path / "out")
        for line in capsys.readouterr().out.strip().splitlines():
            fields = line.split()
            assert fields[0] == "CHECK"
            assert fields[2] in ("PASS", "FAIL")
            assert fields[3].startswith("value=")
            assert fields[4].startswith("bound=")


class TestMainEntry:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    def test_pyproject_version_is_the_package_version(self):
        tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
        project = tomllib.loads((CONFIG_DIR.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        assert project["version"] == qcollide.__version__

    def test_validate_ok(self, capsys):
        assert main(["validate", "--config", str(CONFIG_DIR / "qubit-demo.json")]) == 0
        assert "OK scenario=qubit-demo" in capsys.readouterr().out

    def test_input_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["validate", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


def test_unitary_defect_is_one_line_error(tmp_path, capsys, monkeypatch):
    import qcollide.collisions as collisions

    monkeypatch.setattr(collisions, "expm_unitary", lambda h, t: 1.01 * np.eye(h.shape[0], dtype=complex))
    code = main(["run", "--config", str(CONFIG_DIR / "custom.json"), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "unitary defect" in lines[0]


CUSTOM = json.loads((CONFIG_DIR / "custom.json").read_text(encoding="utf-8"))

BAD_SCALAR_CONFIGS = {
    "t_final-inf": ("t_final", {"scenario": "converge", "t_final": float("inf")}),
    "seed-neg-inf": ("seed", {"scenario": "oracle-check", "seed": float("-inf")}),
    "n_steps-nan": ("n_steps", {"scenario": "qubit-demo", "n_steps": float("nan")}),
    "multibath-short-beta": ("beta", {"scenario": "multibath", "beta": [1.0]}),
    "multibath-long-g": ("g", {"scenario": "multibath", "g": [1.0, 0.8, 0.5]}),
    "converge-one-tau": ("tau", {"scenario": "converge", "tau": [0.5]}),
    "multibath-duplicate-tau": ("tau", {"scenario": "multibath", "tau": [0.5, 0.5]}),
    "bound-check-zero-samples": ("n_steps", {"scenario": "bound-check", "seed": 1, "n_steps": 0}),
    "qubit-demo-no-steps": ("n_steps", {"scenario": "qubit-demo", "n_steps": 0}),
    "custom-no-steps": ("n_steps", {**CUSTOM, "n_steps": 0}),
    "omega-zero": ("omega", {"scenario": "qubit-demo", "omega": 0}),
    "custom-empty-H_A": ("H_A", {**CUSTOM, "H_A": []}),
    "custom-two-H_A": ("H_A", {**CUSTOM, "H_A": [CUSTOM["H_A"], CUSTOM["H_A"]]}),
    "dt-unknown": ("dt", {"scenario": "qubit-demo", "dt": 123.0}),
    "converge-zero-t_final": ("t_final", {"scenario": "converge", "t_final": 0.0}),
    "converge-t_final-below-tau": ("t_final", {"scenario": "converge", "t_final": 0.001}),
    "converge-t_final-not-whole-rounds": ("t_final", {"scenario": "converge", "t_final": 0.06, "tau": [0.04, 0.01]}),
    "output_dir-number": ("output_dir", {"scenario": "qubit-demo", "output_dir": 5}),
    "output_dir-null": ("output_dir", {"scenario": "qubit-demo", "output_dir": None}),
    "seed-negative": ("seed", {"scenario": "bound-check", "seed": -1}),
    "seed-2^64+1": ("seed", {"scenario": "oracle-check", "seed": 2**64 + 1}),
    # V^2 overflows, so the stroke matrix would hold inf and NaN.
    "qubit-demo-huge-g": ("stroke matrix", {"scenario": "qubit-demo", "g": 1e300}),
}


@pytest.mark.parametrize(
    "key,payload", list(BAD_SCALAR_CONFIGS.values()), ids=list(BAD_SCALAR_CONFIGS)
)
def test_bad_scalar_is_one_line_input_error(tmp_path, capsys, key, payload):
    path = write(tmp_path, "bad.json", payload)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and key in lines[0]


@pytest.mark.parametrize(
    "payload",
    [{"scenario": "qubit-demo", "g": 1e300}, {"scenario": "multibath", "g": [0.8, 1e300]}],
    ids=["qubit-demo", "multibath"],
)
def test_overflowing_coupling_is_one_line_error_without_warnings(tmp_path, capsys, payload):
    path = write(tmp_path, "huge.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: stroke matrix of species") and "non-finite" in lines[0]


def test_validate_checks_the_document_only(tmp_path, capsys):
    # validate builds no operators, so a coupling whose square overflows passes it; run rejects it.
    path = write(tmp_path, "huge.json", {"scenario": "qubit-demo", "g": 1e300})
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "OK scenario=qubit-demo\n"
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stroke matrix of species 'A' has non-finite entries\n"


@pytest.mark.parametrize("route", ["--out under a file", "output_dir is a file"])
def test_unwritable_output_location_is_one_line_error(tmp_path, capsys, monkeypatch, route):
    import qcollide.cli as cli

    def refuse(cfg, out_dir):
        raise AssertionError("ran the study before checking the output location")

    monkeypatch.setitem(cli._SCENARIO_RUNNERS, "qubit-demo", refuse)
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    payload = {"scenario": "qubit-demo", "n_steps": 2}
    argv = ["run", "--config"]
    if route == "--out under a file":
        argv += [str(write(tmp_path, "demo.json", payload)), "--out", str(blocker / "out")]
    else:
        argv += [str(write(tmp_path, "demo.json", {**payload, "output_dir": str(blocker)}))]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and str(blocker) in lines[0]


ZERO_2X2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
# Inputs that once ran into a ZeroDivisionError: a tau of 0 in a sweep (t_final / tau),
# and a custom pair of zero Hamiltonians (work_scaled divides by their scale).
DIVIDING_BY_ZERO = {
    "converge-zero-tau": ("tau", {"scenario": "converge", "tau": [0.04, 0]}),
    "multibath-zero-tau": ("tau", {"scenario": "multibath", "tau": [0.0, 0.01, 0.04]}),
    "converge-negative-tau": ("tau", {"scenario": "converge", "tau": [0.04, -0.01]}),
    "multibath-negative-tau": ("tau", {"scenario": "multibath", "tau": [-0.04, 0.01]}),
    "custom-zero-hamiltonians": ("H_S, H_A", {**CUSTOM, "H_S": ZERO_2X2, "H_A": ZERO_2X2}),
}


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("key,payload", list(DIVIDING_BY_ZERO.values()), ids=list(DIVIDING_BY_ZERO))
def test_input_that_would_divide_by_zero_is_one_line_error(tmp_path, capsys, command, key, payload):
    argv = [command, "--config", str(write(tmp_path, "bad.json", payload))]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {key}: ")


# Documents that load_config once passed: run then rejected them, or, for n_steps 0,
# checked the extremes of empty columns and exited 0.  A sweep's t_final must also be
# a whole number (at least one) of rounds of every tau.
OUT_OF_RANGE = {
    "qubit-demo-zero-tau": ("tau", {"scenario": "qubit-demo", "tau": 0}),
    "qubit-demo-negative-tau": ("tau", {"scenario": "qubit-demo", "tau": -1}),
    "qubit-demo-negative-beta": ("beta", {"scenario": "qubit-demo", "beta": -1}),
    "qubit-demo-negative-n_steps": ("n_steps", {"scenario": "qubit-demo", "n_steps": -3}),
    "custom-zero-n_steps": ("n_steps", {**CUSTOM, "n_steps": 0}),
    "multibath-zero-beta": ("beta", {"scenario": "multibath", "beta": [0, 1]}),
    "multibath-zero-g": ("g", {"scenario": "multibath", "g": [0, 0]}),
    "custom-zero-beta": ("beta", {**CUSTOM, "beta": 0}),
    "converge-zero-t_final": ("t_final", {"scenario": "converge", "t_final": 0}),
    "multibath-t_final-not-whole-rounds": ("t_final", {"scenario": "multibath", "t_final": 2.001}),
    "multibath-t_final-below-tau": ("t_final", {"scenario": "multibath", "t_final": 0.001}),
    "converge-t_final-not-whole-rounds-of-a-tau": ("t_final", {"scenario": "converge", "tau": [0.04, 0.03]}),
    "converge-t_final-too-many-rounds": ("t_final", {"scenario": "converge", "tau": [1e-300, 0.01], "t_final": 1e10}),
}


@pytest.mark.parametrize("key,payload", list(OUT_OF_RANGE.values()), ids=list(OUT_OF_RANGE))
def test_validate_and_run_both_reject_a_value_out_of_range(tmp_path, capsys, key, payload):
    path = str(write(tmp_path, "bad.json", payload))
    for argv in (["validate", "--config", path], ["run", "--config", path, "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {key}: ")


@pytest.mark.parametrize(
    "payload, species",
    [({"scenario": "qubit-demo", "lambda": 5}, "A"), ({"scenario": "multibath", "lambda": [0.3, 9]}, "B")],
    ids=["qubit-demo", "multibath"],
)
def test_lambda_past_the_positivity_margin_names_the_key(tmp_path, capsys, payload, species):
    path = write(tmp_path, "strong.json", payload)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: lambda: too large for species '{species}': ")
    assert "density matrix has eigenvalue -" in lines[0]


@pytest.mark.parametrize("g", [[0, 1], [1, 0]], ids=["A-uncoupled", "B-uncoupled"])
def test_multibath_with_one_zero_coupling_runs(tmp_path, capsys, g):
    path = write(tmp_path, "half.json", {"scenario": "multibath", "g": g})
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) in (0, 2)
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "report.json").exists()


def test_one_zero_hamiltonian_is_accepted(tmp_path, capsys):
    path = write(tmp_path, "half.json", {**CUSTOM, "H_S": ZERO_2X2})
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "OK scenario=custom\n"


FLOAT_LITERAL = re.compile(r"-?(\d+\.\d+(e[-+]\d+)?|\d+e[-+]\d+)")


@pytest.mark.parametrize("scenario", list(_SCENARIO_KEYS))
def test_check_values_are_plain_floats_equal_to_the_report(tmp_path, capsys, scenario):
    # A numpy scalar would print as np.float64(...) and break the byte-identical CHECK lines.
    assert run_scenario(load_config(CONFIG_DIR / f"{scenario}.json"), out_dir=tmp_path) == 0
    tokens = [line.split()[3].removeprefix("value=") for line in capsys.readouterr().out.splitlines()]
    checks = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["checks"]
    assert len(tokens) == len(checks) > 0
    for token, check in zip(tokens, checks):
        assert FLOAT_LITERAL.fullmatch(token), (check["name"], token)
        assert type(check["value"]) is float and repr(check["value"]) == token


# A valid value for every config key.  Each bundled config holds every key its
# scenario reads, so a key it lacks is one its scenario never reads.
KEY_VALUES = {
    "omega": 1.0,
    "g": 1.0,
    "beta": 1.0,
    "lambda": 0.3,
    "tau": 0.01,
    "t_final": 1.0,
    "n_steps": 2,
    "seed": 1,
    **{key: CUSTOM[key] for key in ("H_S", "H_A", "V", "chi")},
}
UNREAD_KEYS = [
    (scenario, key)
    for scenario in ("qubit-demo", "converge", "bound-check", "oracle-check", "multibath", "custom")
    for key in KEY_VALUES
    if key not in json.loads((CONFIG_DIR / f"{scenario}.json").read_text(encoding="utf-8"))
]


@pytest.mark.parametrize("scenario,key", UNREAD_KEYS, ids=[f"{s}-{k}" for s, k in UNREAD_KEYS])
def test_key_the_scenario_never_reads_is_one_line_error(tmp_path, capsys, scenario, key):
    payload = json.loads((CONFIG_DIR / f"{scenario}.json").read_text(encoding="utf-8"))
    path = write(tmp_path, "unread.json", {**payload, key: KEY_VALUES[key]})
    assert main(["validate", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [f"error: key {key!r} is not read by scenario {scenario!r}"]


@pytest.mark.parametrize("scenario", list(_SCENARIO_KEYS))
def test_bundled_config_names_exactly_the_keys_its_scenario_reads(scenario):
    payload = json.loads((CONFIG_DIR / f"{scenario}.json").read_text(encoding="utf-8"))
    assert set(payload) - {"scenario", "output_dir"} == set(_SCENARIO_KEYS[scenario])


@pytest.mark.parametrize("scenario", ["qubit-demo", "converge", "multibath"])
def test_defaults_are_the_bundled_values(tmp_path, scenario):
    bundled = load_config(CONFIG_DIR / f"{scenario}.json")
    defaults = load_config(write(tmp_path, "bare.json", {"scenario": scenario}))
    assert {**defaults, "output_dir": bundled["output_dir"]} == bundled


HUGE = 10**400  # a 401-digit JSON integer, too large for a float

LOADER_OVERFLOWS = {
    "g-huge-int": ("g", {"scenario": "qubit-demo", "g": HUGE}),
    "seed-huge-int": ("seed", {"scenario": "oracle-check", "seed": HUGE}),
    "matrix-entry-huge-int": ("H_A", {**CUSTOM, "H_A": [[[HUGE, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}),
    # Finite entries whose symmetrized sum overflows.
    "matrix-entry-near-float-max": ("H_A", {**CUSTOM, "H_A": [[[1.7e308, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}),
}


@pytest.mark.parametrize(
    "key,payload", list(LOADER_OVERFLOWS.values()), ids=list(LOADER_OVERFLOWS)
)
def test_number_beyond_float_is_one_line_error(tmp_path, capsys, key, payload):
    path = write(tmp_path, "huge.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {key}:")


def test_deeply_nested_document_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}:")


def test_unallocatable_run_is_one_line_error(tmp_path, capsys):
    # numpy refuses the 1e15-stroke array at once, without touching memory.
    path = write(tmp_path, "long.json", {"scenario": "qubit-demo", "n_steps": 1e15})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: Unable to allocate")


def test_run_too_long_for_an_array_is_one_line_error(tmp_path, capsys):
    # numpy refuses the stroke rows of 10^18 strokes as too big, before any stroke runs.
    path = write(tmp_path, "long.json", {"scenario": "qubit-demo", "n_steps": 10**18})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: array is too big")


# Config documents over the table's keys plus junk ones, with values of every
# JSON kind: numbers up to 10**400 and the float limits, wrong types, nested lists.
JUNK_KEYS = ["dt", "Scenario", ""]
json_numbers = st.one_of(
    st.floats(),
    st.floats(min_value=-2.0, max_value=2.0),
    st.integers(min_value=-HUGE, max_value=HUGE),
    st.integers(min_value=-2, max_value=2**64),
    st.sampled_from([0.5, 1e-300, 1e300, 1.7e308, -1.7e308]),
)
json_scalars = st.one_of(json_numbers, st.booleans(), st.none(), st.text(max_size=4))
json_values = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)


@st.composite
def hermitian_pairs(draw):
    """Nested [re, im] pairs of a Hermitian matrix of dimension 1-3, entries from ``json_numbers``."""
    dim = draw(st.integers(min_value=1, max_value=3))
    out = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        out[i][i] = [draw(json_numbers), 0.0]
        for j in range(i + 1, dim):
            re, im = draw(json_numbers), draw(json_numbers)
            out[i][j], out[j][i] = [re, im], [re, -im]
    return out


@st.composite
def config_documents(draw):
    scenario = draw(st.sampled_from(list(_SCENARIO_KEYS)))
    read = list(_SCENARIO_KEYS[scenario])
    keys = draw(st.lists(st.sampled_from(read), max_size=len(read), unique=True))
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        keys.append(draw(st.sampled_from(sorted(_ALLOWED_KEYS - {"scenario"}) + JUNK_KEYS)))
    doc = {"scenario": scenario}
    for key in keys:
        if key in ("H_S", "H_A", "V", "chi"):
            doc[key] = draw(st.one_of(hermitian_pairs(), hermitian_pairs(), json_values))
        elif isinstance(_SCENARIO_KEYS[scenario].get(key), list):
            doc[key] = draw(st.one_of(st.lists(json_numbers, min_size=2, max_size=2), json_values))
        else:
            doc[key] = draw(st.one_of(json_numbers, json_numbers, json_values))
    if draw(st.booleans()):
        doc = {**json.loads((CONFIG_DIR / f"{scenario}.json").read_text(encoding="utf-8")), **doc}
    return doc


def all_finite(value) -> bool:
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, list):
        return all(map(all_finite, value))
    return isinstance(value, int) or math.isfinite(value)


@settings(
    derandomize=True, database=None, deadline=None, max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(config_documents())
def test_load_config_rejects_or_returns_the_scenario_keys(tmp_path, doc):
    path = write(tmp_path, "doc.json", doc)
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    keys = _SCENARIO_KEYS[cfg["scenario"]]
    assert set(cfg) == {"scenario", "output_dir", *keys}
    assert isinstance(cfg["output_dir"], str)
    for key, default in keys.items():
        value = cfg[key]
        assert not isinstance(value, bool) and isinstance(value, (int, float, list, np.ndarray))
        assert isinstance(value, list) == isinstance(default, list), key
        assert all_finite(value), key


class TestSubprocessDeterminism:
    def test_bound_check_reproducible(self, tmp_path):
        config = tmp_path / "bound.json"
        config.write_text(
            json.dumps({"scenario": "bound-check", "seed": 42, "n_steps": 120}),
            encoding="utf-8",
        )
        outputs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            result = subprocess.run(
                [sys.executable, "-m", "qcollide", "run", "--config", str(config), "--out", str(out)],
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out)
        first, second = outputs
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
        assert (first / "samples.csv").read_bytes() == (second / "samples.csv").read_bytes()

    def test_csv_numbers_roundtrip(self, tmp_path):
        config = tmp_path / "demo.json"
        config.write_text(json.dumps({"scenario": "qubit-demo", "n_steps": 5}), encoding="utf-8")
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-m", "qcollide", "run", "--config", str(config), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        rows = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            for cell in row.split(",")[1:]:
                value = float(cell)
                assert format(value, ".17g") == cell
