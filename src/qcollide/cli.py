"""Batch front-end: JSON experiment configs, named scenarios, CSV/JSON reports.

The CLI loads and validates configs, wires each scenario to the studies of
:mod:`qcollide.verify` (trajectory scenarios to
:func:`~qcollide.collisions.run_trajectory`), turns their scalars into checks
and writes the reports; it defines no study of its own.

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
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .collisions import CollisionConfig, run_trajectory
from .errors import NonHermitianError, QCollideError
from .lindblad import rates
from .linalg import require_hermitian
from .presets import DEFAULT_BETA, maximally_mixed, qubit_collision, qutrit_ancilla_collision
from .states import AncillaSpec, von_neumann_entropy
from .verify import (
    entropic_identity_residuals,
    ergotropy_ratio_deviations,
    generator_for,
    h_scale,
    halving_ratios,
    loglog_slope,
    random_collision_suite,
    series_halving_ratios,
    stroboscopic_deviation,
    two_bath_population_error,
)

SCENARIOS = ("qubit-demo", "converge", "bound-check", "oracle-check", "multibath", "custom")

POSITIVITY_BOUND = -1e-9
WORK_BOUND = 1e-9
SLOPE_WINDOW = (0.4, 0.7)
HALVING_WINDOW = (2.4, 3.2)
SERIES_WINDOW = (6.0, 10.0)
COHERENT_BOUND_SCALE = -200.0


class ConfigError(Exception):
    """Base class for configuration problems (exit code 1)."""


class ParseError(ConfigError):
    pass


class SchemaError(ConfigError):
    pass


class ValidationError(ConfigError):
    pass


_MATRIX_KEYS = ("H_S", "H_A", "V", "chi")
_SCALAR_KEYS = {
    "beta": float,
    "lambda": float,
    "g": float,
    "omega": float,
    "tau": float,
    "t_final": float,
    "n_steps": int,
    "seed": int,
}
_LIST_OK = {"beta", "lambda", "g", "tau"}
# The keys each scenario reads, besides "scenario" and "output_dir".
_SCENARIO_KEYS = {
    "qubit-demo": {"omega", "g", "beta", "lambda", "tau", "n_steps"},
    "converge": {"tau", "lambda", "t_final"},
    "bound-check": {"n_steps", "seed"},
    "oracle-check": {"seed"},
    "multibath": {"tau", "t_final", "beta", "g", "lambda"},
    "custom": {*_MATRIX_KEYS, "beta", "lambda", "tau", "n_steps"},
}
_ALLOWED_KEYS = {"scenario", "output_dir"}.union(*_SCENARIO_KEYS.values())


@dataclass
class ExperimentConfig:
    """Validated scenario configuration; per-species scalars are lists, matrices single."""

    scenario: str
    h_system: np.ndarray | None
    h_ancilla: np.ndarray | None
    interaction: np.ndarray | None
    coherence: np.ndarray | None
    betas: list[float] | None
    lams: list[float] | None
    gs: list[float] | None
    taus: list[float] | None
    omega: float | None
    t_final: float | None
    n_steps: int | None
    seed: int | None
    output_dir: str


def _parse_matrix(key: str, raw: Any) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{key}: expected a nested array of [re, im] pairs")
    dim = len(raw)
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"{key}: row {i} is not a length-{dim} list")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
            ):
                raise SchemaError(f"{key}: entry ({i},{j}) is not an [re, im] pair")
            out[i, j] = complex(cell[0], cell[1])
    return out


def _hermitian_gate(key: str, m: np.ndarray) -> np.ndarray:
    try:
        return require_hermitian(m, name=key)
    except (NonHermitianError, ValueError) as exc:
        raise ValidationError(str(exc)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON experiment configuration (strict schema)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("top level must be a JSON object")
    unknown = sorted(set(raw) - _ALLOWED_KEYS)
    if unknown:
        raise SchemaError(f"unknown key {unknown[0]!r}")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise SchemaError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    unread = sorted(set(raw) - {"scenario", "output_dir"} - _SCENARIO_KEYS[scenario])
    if unread:
        raise SchemaError(f"key {unread[0]!r} is not read by scenario {scenario!r}")

    def scalar_list(key: str) -> list[float] | None:
        if key not in raw:
            return None
        values = raw[key] if isinstance(raw[key], list) else [raw[key]]
        if isinstance(raw[key], list) and key not in _LIST_OK:
            raise SchemaError(f"{key}: lists are not allowed")
        kind = _SCALAR_KEYS[key]
        out = []
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaError(f"{key}: expected a number, got {v!r}")
            if not math.isfinite(v):
                raise ValidationError(f"{key}: expected a finite number, got {v!r}")
            if kind is int and int(v) != v:
                raise SchemaError(f"{key}: expected an integer, got {v!r}")
            out.append(kind(v))
        return out

    def scalar(key: str) -> float | int | None:
        if key not in raw:
            return None
        if isinstance(raw[key], list):
            raise SchemaError(f"{key}: a single number is required")
        return scalar_list(key)[0]

    def matrix(key: str) -> np.ndarray | None:
        if key not in raw:
            return None
        return _hermitian_gate(key, _parse_matrix(key, raw[key]))

    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise SchemaError(f"output_dir: expected a string, got {output_dir!r}")
    taus = scalar_list("tau")
    if taus is not None and len(taus) > 1 and scenario not in ("converge", "multibath"):
        raise ValidationError("tau: a list is only meaningful for converge/multibath")
    for key in ("beta", "lambda", "g"):
        if isinstance(raw.get(key), list) and scenario != "multibath":
            raise ValidationError(f"{key}: per-species lists are only meaningful for multibath")

    cfg = ExperimentConfig(
        scenario=scenario,
        h_system=matrix("H_S"),
        h_ancilla=matrix("H_A"),
        interaction=matrix("V"),
        coherence=matrix("chi"),
        betas=scalar_list("beta"),
        lams=scalar_list("lambda"),
        gs=scalar_list("g"),
        taus=taus,
        omega=scalar("omega"),
        t_final=scalar("t_final"),
        n_steps=scalar("n_steps"),
        seed=scalar("seed"),
        output_dir=output_dir,
    )
    if cfg.seed is not None and not 0 <= cfg.seed < 2**64:
        raise ValidationError(f"seed: expected an integer in [0, 2^64), got {cfg.seed}")
    if cfg.scenario in ("bound-check", "oracle-check") and cfg.seed is None:
        raise ValidationError("seed: required for randomized scenarios")
    if cfg.scenario == "bound-check" and cfg.n_steps is not None and cfg.n_steps < 1:
        raise ValidationError(f"n_steps: bound-check needs n_steps >= 1, got {cfg.n_steps}")
    if cfg.omega == 0.0:
        raise ValidationError("omega: must be nonzero, since work_scaled divides by the Hamiltonian scale")
    if cfg.scenario in ("converge", "multibath") and taus is not None and len(set(taus)) < 2:
        raise ValidationError("tau: a sweep needs at least 2 distinct values")
    if cfg.scenario == "multibath":
        for key, values in (("beta", cfg.betas), ("lambda", cfg.lams), ("g", cfg.gs)):
            if values is not None and len(values) != 2:
                raise ValidationError(f"{key}: multibath needs one value per species (2), got {len(values)}")
    if cfg.scenario == "custom":
        for key, value in (("H_S", cfg.h_system), ("H_A", cfg.h_ancilla),
                           ("V", cfg.interaction), ("chi", cfg.coherence)):
            if value is None:
                raise ValidationError(f"{key}: required for the custom scenario")
    return cfg


@dataclass(frozen=True)
class Check:
    """One verification outcome destined for stdout and report.json."""

    name: str
    value: float
    bound: object
    passed: bool


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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


def _write_trajectory_csv(path: Path, record, gen) -> None:
    header = (
        "step,t,E_S,Q_A_cum,W_cum,W_C_cum,Q_inc_cum,Sigma_cum,I_cum,Srel_cum,"
        "C_anc_before,C_anc_after,S_system,Pi_rate"
    )
    lines = [header]
    for step, cum in zip(record.steps, record.cumulative):
        state = step.state
        pi_rate = rates(gen, state).entropy_production_rate
        row = [
            str(step.index),
            _fmt(step.time),
            _fmt(state.expectation(gen.h_system)),
            _fmt(cum.heat_ancilla),
            _fmt(cum.work),
            _fmt(cum.coherent_work),
            _fmt(cum.incoherent_heat),
            _fmt(cum.entropy_production),
            _fmt(cum.mutual_info),
            _fmt(cum.rel_entropy_ancilla),
            _fmt(step.ledger.coherence_before),
            _fmt(step.ledger.coherence_after),
            _fmt(von_neumann_entropy(state)),
            _fmt(pi_rate),
        ]
        lines.append(",".join(row))
    _write(path, "\n".join(lines) + "\n")


def _trajectory_checks(collision: CollisionConfig, n_steps: int, out_dir: Path) -> list[Check]:
    """Run one species from the maximally mixed state, write ``trajectory.csv``, check the ledger."""
    record = run_trajectory(maximally_mixed(collision.dim_system), [collision], n_steps)
    _write_trajectory_csv(out_dir / "trajectory.csv", record, generator_for([collision]))
    if record.steps:
        min_sigma = min(s.ledger.entropy_production for s in record.steps)
        min_mutual = min(s.ledger.mutual_info for s in record.steps)
        min_rel = min(s.ledger.rel_entropy_ancilla for s in record.steps)
        max_work = max(abs(s.ledger.work) for s in record.steps) / h_scale(collision)
    else:
        min_sigma = min_mutual = min_rel = max_work = 0.0
    return _limit_checks([
        ("entropy_production_min", min_sigma, POSITIVITY_BOUND),
        ("mutual_info_min", min_mutual, POSITIVITY_BOUND),
        ("ancilla_rel_entropy_min", min_rel, POSITIVITY_BOUND),
        ("work_scaled_max", max_work, WORK_BOUND),
    ])


def _scenario_qubit_demo(cfg: ExperimentConfig, out_dir: Path) -> list[Check]:
    omega = cfg.omega if cfg.omega is not None else 1.0
    g = cfg.gs[0] if cfg.gs else 1.0
    beta = cfg.betas[0] if cfg.betas else DEFAULT_BETA
    lam = cfg.lams[0] if cfg.lams else 0.3
    tau = cfg.taus[0] if cfg.taus else 1e-2
    n_steps = cfg.n_steps if cfg.n_steps is not None else 200
    collision = qubit_collision(omega=omega, g=g, beta=beta, lam=lam, tau=tau)
    return _trajectory_checks(collision, n_steps, out_dir)


def _scenario_custom(cfg: ExperimentConfig, out_dir: Path) -> list[Check]:
    beta = cfg.betas[0] if cfg.betas else 1.0
    lam = cfg.lams[0] if cfg.lams else 0.0
    tau = cfg.taus[0] if cfg.taus else 1e-2
    n_steps = cfg.n_steps if cfg.n_steps is not None else 100
    try:
        spec = AncillaSpec(h_ancilla=cfg.h_ancilla, beta=beta, chi=cfg.coherence, lam=lam, tau=tau)
        collision = CollisionConfig(cfg.h_system, cfg.interaction, spec)
    except (QCollideError, ValueError) as exc:
        raise ValidationError(str(exc)) from exc
    return _trajectory_checks(collision, n_steps, out_dir)


def _convergence_check(data: list[tuple[float, float]], out_dir: Path) -> Check:
    """Write ``convergence.csv`` and check the log-log slope of distance vs ``tau``."""
    _write(
        out_dir / "convergence.csv",
        "tau,max_trace_distance\n" + "".join(f"{_fmt(tau)},{_fmt(dist)}\n" for tau, dist in data),
    )
    slope = loglog_slope([t for t, _ in data], [d for _, d in data])
    lo, hi = SLOPE_WINDOW
    return Check("slope", slope, list(SLOPE_WINDOW), lo <= slope <= hi)


def _scenario_converge(cfg: ExperimentConfig, out_dir: Path) -> list[Check]:
    taus = cfg.taus or [4e-2, 1e-2, 2.5e-3]
    lam = cfg.lams[0] if cfg.lams else 0.3
    t_final = cfg.t_final if cfg.t_final is not None else 2.0
    data = stroboscopic_deviation(lambda tau: [qutrit_ancilla_collision(lam=lam, tau=tau)], taus, t_final)
    return [_convergence_check(data, out_dir)]


def _scenario_bound_check(cfg: ExperimentConfig, out_dir: Path) -> list[Check]:
    count = cfg.n_steps if cfg.n_steps is not None else 1000
    summary, samples = random_collision_suite(cfg.seed, count, eigenoperator=True)
    lines = ["index,d_S,d_A,tau,Sigma,I,Srel,work_scaled,coherent_bound_scaled"]
    for s in samples:
        lines.append(
            f"{s.index},{s.dim_system},{s.dim_ancilla},{_fmt(s.tau)},"
            f"{_fmt(s.entropy_production)},{_fmt(s.mutual_info)},"
            f"{_fmt(s.rel_entropy_ancilla)},{_fmt(s.work_scaled)},"
            f"{_fmt(s.coherent_bound_scaled)}"
        )
    _write(out_dir / "samples.csv", "\n".join(lines) + "\n")
    return _limit_checks([
        ("ancilla_rel_entropy_min", summary.min_rel_entropy, POSITIVITY_BOUND),
        ("entropy_production_min", summary.min_entropy_production, POSITIVITY_BOUND),
        ("mutual_info_min", summary.min_mutual_info, POSITIVITY_BOUND),
        ("work_scaled_max", summary.max_abs_work_scaled, WORK_BOUND),
        ("coherent_bound_scaled_min", summary.min_coherent_bound_scaled, COHERENT_BOUND_SCALE),
    ])


def _scenario_oracle_check(cfg: ExperimentConfig, out_dir: Path) -> list[Check]:
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
    for name, ratios in series_halving_ratios(cfg.seed).items():
        checks += _window_checks(f"{name}_series", ratios, SERIES_WINDOW)
    # Ergotropy-to-coherence ratio.
    deviations = ergotropy_ratio_deviations()
    worst_rise = max(deviations[i + 1] - deviations[i] for i in range(len(deviations) - 1))
    checks.append(Check("ergotropy_deviation_monotone", worst_rise, 0.0, worst_rise <= 0.0))
    checks.append(Check("ergotropy_deviation_mid", deviations[1], 5e-2, deviations[1] <= 5e-2))
    return checks


def _scenario_multibath(cfg: ExperimentConfig, out_dir: Path) -> list[Check]:
    taus = cfg.taus or [4e-2, 1e-2, 2.5e-3]
    t_final = cfg.t_final if cfg.t_final is not None else 2.0
    betas = cfg.betas or [DEFAULT_BETA, 0.5 * DEFAULT_BETA]
    gs = cfg.gs or [1.0, 0.8]
    lams = cfg.lams or [0.3, 0.25]

    def build(tau: float) -> list[CollisionConfig]:
        return [
            qubit_collision(g=gs[0], beta=betas[0], lam=lams[0], tau=tau, label="A"),
            qutrit_ancilla_collision(g=gs[1], beta=betas[1], lam=lams[1], tau=tau, label="B"),
        ]

    data = stroboscopic_deviation(build, taus, t_final)
    checks = [_convergence_check(data, out_dir)]

    # Two thermal qubit baths: stationary excited population from the jump rates.
    error = two_bath_population_error(gs, betas)
    checks.append(Check("steady_state_population_error", error, 1e-8, error <= 1e-8))
    return checks


_SCENARIO_RUNNERS = {
    "qubit-demo": _scenario_qubit_demo,
    "converge": _scenario_converge,
    "bound-check": _scenario_bound_check,
    "oracle-check": _scenario_oracle_check,
    "multibath": _scenario_multibath,
    "custom": _scenario_custom,
}


def run_scenario(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> int:
    """Execute a scenario, emit CHECK lines and report.json, return exit code."""
    target = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    target.mkdir(parents=True, exist_ok=True)
    checks = _SCENARIO_RUNNERS[cfg.scenario](cfg, target)
    for check in checks:
        state = "PASS" if check.passed else "FAIL"
        print(f"CHECK {check.name} {state} value={check.value!r} bound={_bound_text(check.bound)}")
    report = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "checks": [
            {"name": c.name, "value": float(c.value), "bound": c.bound, "pass": c.passed}
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
            print(f"OK scenario={cfg.scenario}")
            return 0
        return run_scenario(cfg, out_dir=args.out)
    except (ConfigError, QCollideError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
