"""Batch front-end: JSON experiment configs, named scenarios, CSV/JSON reports.

The CLI loads and validates configs, wires each scenario to the studies of
:mod:`qcollide.verify` (trajectory scenarios to
:func:`~qcollide.collisions.run_trajectory`), turns their scalars into checks
and writes the reports; it defines no study of its own.

``_SCENARIO_KEYS`` declares once the keys each scenario reads and their
defaults; :func:`load_config` returns them, with ``scenario`` and
``output_dir``, as a plain dict.

Every scenario prints one ``CHECK <name> PASS|FAIL value=<v> bound=<b>`` line
per verification, writes ``report.json`` (and scenario-specific CSV files)
into the output directory, and exits 0 when all checks pass, 2 on any
verification failure, 1 on input errors, an output location that cannot be
written among them.  Outputs contain no timestamps and all randomness is
drawn from the seeded generator, so identical (config, seed) pairs reproduce
byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .collisions import CollisionConfig, run_trajectory
from .errors import NonHermitianError, NotPositiveError, QCollideError
from .lindblad import rate_columns
from .linalg import require_hermitian
from .presets import DEFAULT_BETA, maximally_mixed, qubit_collision, qutrit_ancilla_collision
from .states import AncillaSpec, shannon_entropy
from .verify import (
    energy_scale,
    entropic_identity_residuals,
    ergotropy_ratio_deviations,
    generator_for,
    halving_ratios,
    loglog_slope,
    random_collision_suite,
    series_halving_ratios,
    stroboscopic_deviation,
    two_bath_population_error,
)

POSITIVITY_BOUND = -1e-9
WORK_BOUND = 1e-9
SLOPE_WINDOW = (0.4, 0.7)
ERGOTROPY_RISE_BOUND = 0.0
ERGOTROPY_MID_BOUND = 5e-2
POPULATION_ERROR_BOUND = 1e-8
HALVING_WINDOW = (2.4, 3.2)
SERIES_WINDOW = (6.0, 10.0)
COHERENT_BOUND_SCALE = -200.0


class ConfigError(Exception):
    """A configuration that cannot be read, parsed or run (exit code 1)."""


_MATRIX_KEYS = ("H_S", "H_A", "V", "chi")
_INTEGER_KEYS = ("n_steps", "seed")
_SWEEP = [4e-2, 1e-2, 2.5e-3]
# The keys each scenario reads, besides "scenario" and "output_dir", and their
# defaults.  None marks a required key.  A key whose default is a list takes a
# list: a tau sweep, or one value per multibath species.  Every other key takes
# one number, or one matrix for the keys of _MATRIX_KEYS.
_SCENARIO_KEYS = {
    "qubit-demo": {"omega": 1.0, "g": 1.0, "beta": DEFAULT_BETA, "lambda": 0.3, "tau": 1e-2, "n_steps": 200},
    "converge": {"tau": _SWEEP, "lambda": 0.3, "t_final": 2.0},
    "bound-check": {"n_steps": 1000, "seed": None},
    "oracle-check": {"seed": None},
    "multibath": {"tau": _SWEEP, "t_final": 2.0, "beta": [DEFAULT_BETA, 0.5 * DEFAULT_BETA], "g": [1.0, 0.8],
                  "lambda": [0.3, 0.25]},
    "custom": {**dict.fromkeys(_MATRIX_KEYS), "beta": 1.0, "lambda": 0.0, "tau": 1e-2, "n_steps": 100},
}
SCENARIOS = tuple(_SCENARIO_KEYS)
_ALLOWED_KEYS = {"scenario", "output_dir"}.union(*_SCENARIO_KEYS.values())


def _parse_matrix(key: str, raw: Any) -> np.ndarray:
    """One Hermitian matrix from nested ``[re, im]`` pairs, symmetrized and finite."""
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{key}: expected a nested array of [re, im] pairs")
    dim = len(raw)
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise ConfigError(f"{key}: row {i} is not a length-{dim} list")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
            ):
                raise ConfigError(f"{key}: entry ({i},{j}) is not an [re, im] pair")
            try:
                out[i, j] = complex(cell[0], cell[1])
            except OverflowError as exc:
                raise ConfigError(f"{key}: entry ({i},{j}) is too large for a float") from exc
    try:
        # Entries near the float limit overflow in the symmetrization; the check below names them.
        with np.errstate(over="ignore", invalid="ignore"):
            out = require_hermitian(out, name=key)
    except (NonHermitianError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if not np.isfinite(out).all():
        raise ConfigError(f"{key}: its Hermitian part overflows a float")
    return out


def _parse_number(key: str, v: Any) -> float | int:
    """One finite number; an integer for the keys of ``_INTEGER_KEYS``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {reprlib.repr(v)}")
    if isinstance(v, int) and key in _INTEGER_KEYS:
        return v
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number, got {reprlib.repr(v)}")
    if key in _INTEGER_KEYS:
        if not x.is_integer():
            raise ConfigError(f"{key}: expected an integer, got {v!r}")
        return int(x)
    return x


def _parse_value(key: str, raw: Any, default: Any) -> Any:
    if key in _MATRIX_KEYS:
        return _parse_matrix(key, raw)
    if isinstance(raw, list) != isinstance(default, list):
        shape = "a list of numbers" if isinstance(default, list) else "one number"
        raise ConfigError(f"{key}: expected {shape}, got {reprlib.repr(raw)}")
    return [_parse_number(key, v) for v in raw] if isinstance(raw, list) else _parse_number(key, raw)


def load_config(path: str | Path) -> dict[str, Any]:
    """Parse and validate a JSON experiment configuration (strict schema).

    Returns ``scenario``, ``output_dir`` and every key the scenario reads,
    each absent key set to its default in ``_SCENARIO_KEYS``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    unknown = sorted(set(raw) - _ALLOWED_KEYS)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {reprlib.repr(scenario)}")
    keys = _SCENARIO_KEYS[scenario]
    unread = sorted(set(raw) - {"scenario", "output_dir"} - set(keys))
    if unread:
        raise ConfigError(f"key {unread[0]!r} is not read by scenario {scenario!r}")
    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a string, got {reprlib.repr(output_dir)}")

    cfg = {"scenario": scenario, "output_dir": output_dir}
    for key, default in keys.items():
        cfg[key] = _parse_value(key, raw[key], default) if key in raw else copy.copy(default)
    missing = [key for key in keys if cfg[key] is None]
    if missing:
        raise ConfigError(f"{missing[0]}: required for scenario {scenario!r}")
    if "seed" in cfg and not 0 <= cfg["seed"] < 2**64:
        raise ConfigError(f"seed: expected an integer in [0, 2^64), got {reprlib.repr(cfg['seed'])}")
    if cfg.get("n_steps", 1) < 1:
        raise ConfigError(f"n_steps: must be >= 1, got {reprlib.repr(cfg['n_steps'])}")
    if cfg.get("omega") == 0.0:
        raise ConfigError("omega: must be nonzero, since work_scaled divides by the Hamiltonian scale")
    if isinstance(cfg.get("tau"), list) and len(set(cfg["tau"])) < 2:
        raise ConfigError("tau: a sweep needs at least 2 distinct values")
    if scenario == "custom" and not (cfg["H_S"].any() or cfg["H_A"].any()):
        raise ConfigError("H_S, H_A: must not both be zero, since work_scaled divides by the Hamiltonian scale")
    if scenario == "multibath":
        for key in ("beta", "lambda", "g"):
            if len(cfg[key]) != 2:
                raise ConfigError(f"{key}: multibath needs one value per species (2), got {len(cfg[key])}")
    for key in ("tau", "beta", "t_final"):
        smallest = min(cfg[key]) if isinstance(cfg.get(key), list) else cfg.get(key, 1.0)
        if smallest <= 0.0:
            raise ConfigError(f"{key}: must be > 0, got {smallest!r}")
    return cfg


@dataclass(frozen=True)
class Check:
    """One verification outcome destined for stdout and report.json."""

    name: str
    value: float
    bound: object
    passed: bool

    def __post_init__(self):
        # Numpy scalars print as np.float64(...) on the CHECK line and do not serialize to JSON.
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "passed", bool(self.passed))


def _bound_text(bound: object) -> str:
    if isinstance(bound, (list, tuple)):
        return "[" + ",".join(repr(float(b)) for b in bound) + "]"
    return repr(float(bound))


def _limit_checks(rows) -> list[Check]:
    """Checks from ``(name, value, bound)`` rows; ``*_max`` bounds are upper limits."""
    return [
        Check(name, value, bound, value <= bound if name.endswith("_max") else value >= bound)
        for name, value, bound in rows
    ]


def _window_checks(name: str, ratios: list[float], window: tuple[float, float]) -> list[Check]:
    lo, hi = window
    return _limit_checks([(f"{name}_ratio_min", min(ratios), lo), (f"{name}_ratio_max", max(ratios), hi)])


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


# Every CSV writes its floats as "%.17g", which round-trips each double.
_TRAJECTORY_ROW = "%d" + ",%.17g" * 13
_SAMPLE_ROW = "%d,%d,%d" + ",%.17g" * 6


def _write_trajectory_csv(path: Path, record, gen) -> None:
    """One row per round, read off the record's columns; the rates and energies come from one stacked pass each."""
    header = (
        "step,t,E_S,Q_A_cum,W_cum,W_C_cum,Q_inc_cum,Sigma_cum,I_cum,Srel_cum,"
        "C_anc_before,C_anc_after,S_system,Pi_rate"
    )
    states, cum = record.states, record.cumulative
    pi_rates = rate_columns(gen, states)[:, -1]
    energies = np.trace(gen.h_system @ states.matrix, axis1=1, axis2=2).real
    table = np.column_stack([
        record.times, energies, cum.heat_ancilla, cum.work, cum.coherent_work, cum.incoherent_heat,
        cum.entropy_production, cum.mutual_info, cum.rel_entropy_ancilla, record.rounds.coherence_before,
        record.rounds.coherence_after, shannon_entropy(states.eigenvalues), pi_rates,
    ])
    lines = [header] + [_TRAJECTORY_ROW % (step, *row) for step, row in enumerate(table.tolist(), start=1)]
    _write(path, "\n".join(lines) + "\n")


def _trajectory_checks(collision: CollisionConfig, n_steps: int, out_dir: Path) -> list[Check]:
    """Run one species from the maximally mixed state, write ``trajectory.csv``, check the ledger."""
    record = run_trajectory(maximally_mixed(collision.dim_system), [collision], n_steps)
    _write_trajectory_csv(out_dir / "trajectory.csv", record, generator_for([collision]))
    rounds = record.rounds
    scale = energy_scale(collision.h_system, collision.ancilla.h_ancilla)
    return _limit_checks([
        ("entropy_production_min", rounds.entropy_production.min(), POSITIVITY_BOUND),
        ("mutual_info_min", rounds.mutual_info.min(), POSITIVITY_BOUND),
        ("ancilla_rel_entropy_min", rounds.rel_entropy_ancilla.min(), POSITIVITY_BOUND),
        ("work_scaled_max", np.abs(rounds.work).max() / scale, WORK_BOUND),
    ])


def _prepared(collision: CollisionConfig) -> CollisionConfig:
    """``collision`` once its ancilla state is prepared; a ``lambda`` too large for a positive state names the key."""
    try:
        collision.ancilla_state
    except NotPositiveError as exc:
        raise ConfigError(f"lambda: too large for species {collision.label!r}: {exc}") from exc
    return collision


def _scenario_qubit_demo(cfg: dict[str, Any], out_dir: Path) -> list[Check]:
    collision = qubit_collision(omega=cfg["omega"], g=cfg["g"], beta=cfg["beta"], lam=cfg["lambda"], tau=cfg["tau"])
    return _trajectory_checks(_prepared(collision), cfg["n_steps"], out_dir)


def _scenario_custom(cfg: dict[str, Any], out_dir: Path) -> list[Check]:
    try:
        spec = AncillaSpec(h_ancilla=cfg["H_A"], beta=cfg["beta"], chi=cfg["chi"], lam=cfg["lambda"], tau=cfg["tau"])
        collision = CollisionConfig(cfg["H_S"], cfg["V"], spec)
    except (QCollideError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return _trajectory_checks(_prepared(collision), cfg["n_steps"], out_dir)


def _convergence_check(data: list[tuple[float, float]], out_dir: Path) -> Check:
    """Write ``convergence.csv`` and check the log-log slope of distance vs ``tau``."""
    _write(
        out_dir / "convergence.csv",
        "tau,max_trace_distance\n" + "".join("%.17g,%.17g\n" % row for row in data),
    )
    slope = loglog_slope([t for t, _ in data], [d for _, d in data])
    lo, hi = SLOPE_WINDOW
    return Check("slope", slope, list(SLOPE_WINDOW), lo <= slope <= hi)


def _scenario_converge(cfg: dict[str, Any], out_dir: Path) -> list[Check]:
    lam = cfg["lambda"]
    data = stroboscopic_deviation(
        lambda tau: [_prepared(qutrit_ancilla_collision(lam=lam, tau=tau))], cfg["tau"], cfg["t_final"]
    )
    return [_convergence_check(data, out_dir)]


def _scenario_bound_check(cfg: dict[str, Any], out_dir: Path) -> list[Check]:
    s = random_collision_suite(cfg["seed"], cfg["n_steps"], eigenoperator=True)
    table = np.column_stack(
        [s.tau, s.entropy_production, s.mutual_info, s.rel_entropy_ancilla, s.work_scaled, s.coherent_bound_scaled]
    )
    rows = zip(s.dim_system.tolist(), s.dim_ancilla.tolist(), table.tolist())
    lines = ["index,d_S,d_A,tau,Sigma,I,Srel,work_scaled,coherent_bound_scaled"] + [
        _SAMPLE_ROW % (index, d_s, d_a, *row) for index, (d_s, d_a, row) in enumerate(rows)
    ]
    _write(out_dir / "samples.csv", "\n".join(lines) + "\n")
    return _limit_checks([
        ("ancilla_rel_entropy_min", s.rel_entropy_ancilla.min(), POSITIVITY_BOUND),
        ("entropy_production_min", s.entropy_production.min(), POSITIVITY_BOUND),
        ("mutual_info_min", s.mutual_info.min(), POSITIVITY_BOUND),
        ("work_scaled_max", s.work_scaled.max(), WORK_BOUND),
        ("coherent_bound_scaled_min", s.coherent_bound_scaled.min(), COHERENT_BOUND_SCALE),
    ])


def _scenario_oracle_check(cfg: dict[str, Any], out_dir: Path) -> list[Check]:
    checks: list[Check] = []
    # Finite-duration identity residual orders on the two-channel fixture.
    residuals = entropic_identity_residuals()
    checks += _window_checks("identity_mutual_info", halving_ratios(residuals.mutual_info), HALVING_WINDOW)
    checks += _window_checks("identity_rel_entropy", halving_ratios(residuals.rel_entropy), HALVING_WINDOW)
    checks += _window_checks("first_law", halving_ratios(residuals.first_law), HALVING_WINDOW)
    checks += _limit_checks(
        [("entropy_production_ratio_min", min(halving_ratios(residuals.entropy_production)), HALVING_WINDOW[0])]
    )
    # Series residual orders on seeded random instances.
    for name, ratios in series_halving_ratios(cfg["seed"]).items():
        checks += _window_checks(f"{name}_series", ratios, SERIES_WINDOW)
    # Ergotropy-to-coherence ratio.
    deviations = ergotropy_ratio_deviations()
    worst_rise = max(deviations[i + 1] - deviations[i] for i in range(len(deviations) - 1))
    checks.append(
        Check("ergotropy_deviation_monotone", worst_rise, ERGOTROPY_RISE_BOUND, worst_rise <= ERGOTROPY_RISE_BOUND)
    )
    checks.append(
        Check("ergotropy_deviation_mid", deviations[1], ERGOTROPY_MID_BOUND, deviations[1] <= ERGOTROPY_MID_BOUND)
    )
    return checks


def _scenario_multibath(cfg: dict[str, Any], out_dir: Path) -> list[Check]:
    betas, gs, lams = cfg["beta"], cfg["g"], cfg["lambda"]

    def build(tau: float) -> list[CollisionConfig]:
        return [
            _prepared(qubit_collision(g=gs[0], beta=betas[0], lam=lams[0], tau=tau, label="A")),
            _prepared(qutrit_ancilla_collision(g=gs[1], beta=betas[1], lam=lams[1], tau=tau, label="B")),
        ]

    data = stroboscopic_deviation(build, cfg["tau"], cfg["t_final"])
    checks = [_convergence_check(data, out_dir)]

    # Two thermal qubit baths: stationary excited population from the jump rates.
    error = two_bath_population_error(gs, betas)
    checks.append(
        Check("steady_state_population_error", error, POPULATION_ERROR_BOUND, error <= POPULATION_ERROR_BOUND)
    )
    return checks


_SCENARIO_RUNNERS = {
    "qubit-demo": _scenario_qubit_demo,
    "converge": _scenario_converge,
    "bound-check": _scenario_bound_check,
    "oracle-check": _scenario_oracle_check,
    "multibath": _scenario_multibath,
    "custom": _scenario_custom,
}


def run_scenario(cfg: dict[str, Any], out_dir: str | Path | None = None) -> int:
    """Execute a scenario of :func:`load_config`, emit CHECK lines and report.json, return exit code."""
    target = Path(out_dir) if out_dir is not None else Path(cfg["output_dir"])
    target.mkdir(parents=True, exist_ok=True)
    checks = _SCENARIO_RUNNERS[cfg["scenario"]](cfg, target)
    for check in checks:
        state = "PASS" if check.passed else "FAIL"
        print(f"CHECK {check.name} {state} value={check.value!r} bound={_bound_text(check.bound)}")
    report = {
        "scenario": cfg["scenario"],
        "seed": cfg.get("seed"),
        "checks": [
            {"name": c.name, "value": c.value, "bound": c.bound, "pass": c.passed}
            for c in checks
        ],
    }
    _write(target / "report.json", json.dumps(report, indent=2) + "\n")
    return 0 if all(c.passed for c in checks) else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcollide",
        description="Collisional open-system thermodynamics: scenarios and verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"qcollide {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a scenario from a JSON config")
    run_parser.add_argument("--config", required=True, help="path to the JSON config")
    run_parser.add_argument("--out", default=None, help="output directory (overrides config)")
    validate_parser = sub.add_parser("validate", help="validate a JSON config and exit")
    validate_parser.add_argument("--config", required=True, help="path to the JSON config")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            print(f"OK scenario={cfg['scenario']}")
            return 0
        return run_scenario(cfg, out_dir=args.out)
    except (ConfigError, QCollideError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
