"""Correctness gate for benchmark runs.

Each helper returns a list of ``(name, passed, detail)`` tuples; the harness
counts every tuple as one attempted check.

Numbers are compared against references with ``|x - ref| <= ATOL * scale +
RTOL * |ref|``.  The outputs are O(1) energies, entropies and distances, so
``scale`` is 1 except where a column is divided by ``tau**1.5``.  Swapping the
Jacobi eigensolver for LAPACK moves the outputs by about 1e-13 at most, far
inside these tolerances; a change of the physics moves them by orders of
magnitude more.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-8
ATOL = 1e-10

Check = tuple[str, bool, str]


def close(x: float, ref: float, scale: float = 1.0) -> bool:
    return abs(x - ref) <= ATOL * scale + RTOL * abs(ref)


def parse_check_lines(stdout: str) -> list[tuple[str, bool]]:
    """``(name, passed)`` for each ``CHECK <name> PASS|FAIL ...`` line."""
    out = []
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] == "CHECK":
            out.append((parts[1] if len(parts) > 1 else "", len(parts) > 2 and parts[2] == "PASS"))
    return out


def run_checks(exit_code: int, stdout: str, out_dir: Path) -> list[Check]:
    """Exit code 0, every CHECK line passes, and the lines agree with report.json."""
    checks: list[Check] = [("exit_code", exit_code == 0, f"exit code {exit_code}")]
    lines = parse_check_lines(stdout)
    checks.append(("check_lines_present", bool(lines), f"{len(lines)} CHECK lines"))
    checks += [(f"CHECK {name}", passed, "FAIL line" if not passed else "") for name, passed in lines]
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        listed = [(c["name"], bool(c["pass"])) for c in report["checks"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return checks + [("report_matches_stdout", False, f"report.json unreadable: {exc}")]
    checks.append(("report_matches_stdout", listed == lines, "report.json checks differ from CHECK lines"))
    return checks


def identical_outputs(first: Path, other: Path) -> list[Check]:
    """The byte-identity guarantee: same config, same output files."""
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in other.iterdir()):
        return [("identical_files", False, f"{other} holds other files than {first}")]
    return [
        (f"identical {name}", (first / name).read_bytes() == (other / name).read_bytes(), str(other / name))
        for name in names
    ]


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    return rows[0], rows[1:]


def snapshot(out_dir: Path, csv_name: str, stride: int) -> dict:
    """Reference record of one output directory: every ``stride``-th CSV row
    (keyed by its first column), the last row, and report.json."""
    header, rows = _read_csv(out_dir / csv_name)
    kept = {r[0]: r[1:] for i, r in enumerate(rows) if i % stride == stride - 1 or i == len(rows) - 1}
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return {"csv": csv_name, "header": header, "n_rows": len(rows), "rows": kept, "report": report}


def _compare_report(report: dict, ref: dict) -> list[Check]:
    checks: list[Check] = []
    same_shape = (
        report.get("scenario") == ref["scenario"]
        and report.get("seed") == ref["seed"]
        and [(c["name"], c["bound"], c["pass"]) for c in report.get("checks", [])]
        == [(c["name"], c["bound"], c["pass"]) for c in ref["checks"]]
    )
    checks.append(("report.json fields", same_shape, "scenario, seed, check names, bounds or verdicts differ"))
    if same_shape:
        for got, want in zip(report["checks"], ref["checks"]):
            checks.append(
                (f"report.json {want['name']}", close(got["value"], want["value"]),
                 f"value {got['value']!r} vs reference {want['value']!r}")
            )
    return checks


def match_reference(out_dir: Path, ref: dict) -> list[Check]:
    """Compare an output directory against a recorded :func:`snapshot`."""
    header, rows = _read_csv(out_dir / ref["csv"])
    if header != ref["header"] or len(rows) != ref["n_rows"]:
        return [(ref["csv"], False, f"header or row count differs ({len(rows)} vs {ref['n_rows']})")]
    by_key = {r[0]: r[1:] for r in rows}
    bad = [
        key for key, want in ref["rows"].items()
        if key not in by_key or not all(close(float(g), float(w)) for g, w in zip(by_key[key], want))
    ]
    checks: list[Check] = [(ref["csv"], not bad, f"rows {bad[:5]} outside tolerance")]
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return checks + _compare_report(report, ref["report"])


# --- random-suite: an independent recomputation of every sample -------------

SUITE_COLUMNS = ("Sigma", "I", "Srel", "work_scaled", "coherent_bound_scaled")
SUITE_EXTREMES = (
    ("ancilla_rel_entropy_min", "Srel", min),
    ("entropy_production_min", "Sigma", min),
    ("mutual_info_min", "I", min),
    ("work_scaled_max", "work_scaled", max),
    ("coherent_bound_scaled_min", "coherent_bound_scaled", min),
)


def _entropy(m: np.ndarray) -> float:
    p = np.linalg.eigvalsh(m)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def _function_of(m: np.ndarray, fn) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * fn(w)) @ v.conj().T


def _ptrace(m: np.ndarray, ds: int, da: int, keep: str) -> np.ndarray:
    blocks = m.reshape(ds, da, ds, da)
    return np.einsum("iaja->ij", blocks) if keep == "system" else np.einsum("iaib->ab", blocks)


def ledger_row(rho: np.ndarray, h_s, h_a, v, chi, beta: float, lam: float, tau: float) -> dict[str, float]:
    """One stroke's bound-check columns from LAPACK and textbook formulas.

    Shares no code with the package's engines: the joint unitary, partial
    traces, entropies, coherence and coherent work are rebuilt here.
    """
    ds, da = h_s.shape[0], h_a.shape[0]
    w_a, basis_a = np.linalg.eigh(h_a)
    pops = np.exp(-beta * (w_a - w_a[0]))
    rho_a = (basis_a * (pops / pops.sum())) @ basis_a.conj().T + math.sqrt(tau) * lam * chi
    h_joint = np.kron(h_s, np.eye(da)) + np.kron(np.eye(ds), h_a) + v / math.sqrt(tau)
    u = _function_of(h_joint, lambda w: np.exp(-1j * tau * w))
    joint = u @ np.kron(rho, rho_a) @ u.conj().T
    s_after, a_after = _ptrace(joint, ds, da, "system"), _ptrace(joint, ds, da, "ancilla")

    mutual = _entropy(s_after) + _entropy(a_after) - _entropy(joint)
    rel = -_entropy(a_after) - float(np.trace(a_after @ _function_of(rho_a, np.log)).real)
    work = float(np.trace(h_s @ (s_after - rho)).real + np.trace(h_a @ (a_after - rho_a)).real)
    h_scale = float(np.abs(np.linalg.eigvalsh(h_s)).max() + np.abs(np.linalg.eigvalsh(h_a)).max())

    g = _ptrace(v @ np.kron(np.eye(ds), chi), ds, da, "system")
    g = 0.5 * (g + g.conj().T)
    coherent_work = float((1j * lam * tau * np.trace((g @ h_s - h_s @ g) @ rho)).real)

    def coherence(m: np.ndarray) -> float:
        dephased = np.diagonal(basis_a.conj().T @ m @ basis_a).real
        p = dephased[dephased > 0.0]
        return max(float(-(p * np.log(p)).sum()) - _entropy(m), 0.0)

    return {
        "Sigma": mutual + rel,
        "I": mutual,
        "Srel": rel,
        "work_scaled": abs(work) / h_scale,
        "coherent_bound_scaled": (beta * coherent_work + coherence(a_after) - coherence(rho_a)) / tau**1.5,
    }


def regenerate_suite(seed: int, count: int):
    """Yield ``(rho_system, CollisionConfig)`` exactly as ``bound-check`` draws them."""
    from qcollide.presets import random_collision
    from qcollide.rng import SplitMix64

    rng = SplitMix64(seed)
    for _ in range(count):
        yield random_collision(rng, eigenoperator=True)


def match_suite(out_dir: Path, seed: int, count: int) -> list[Check]:
    """Check samples.csv row by row against :func:`ledger_row`, and report.json
    against the extremes of samples.csv."""
    header, rows = _read_csv(out_dir / "samples.csv")
    want_header = ["index", "d_S", "d_A", "tau", *SUITE_COLUMNS]
    if header != want_header or len(rows) != count:
        return [("samples.csv", False, f"header or row count differs ({len(rows)} vs {count})")]
    bad = []
    for row, (rho, cfg) in zip(rows, regenerate_suite(seed, count)):
        spec = cfg.ancilla
        ref = ledger_row(rho.matrix, cfg.h_system, spec.h_ancilla, cfg.v_interaction,
                         spec.chi, spec.beta, spec.lam, spec.tau)
        got = dict(zip(header, row))
        ok = (
            (int(got["d_S"]), int(got["d_A"])) == (cfg.dim_system, cfg.dim_ancilla)
            and close(float(got["tau"]), spec.tau)
            and all(close(float(got[c]), ref[c]) for c in SUITE_COLUMNS[:-1])
            and close(float(got["coherent_bound_scaled"]), ref["coherent_bound_scaled"], spec.tau**-1.5)
        )
        if not ok:
            bad.append(row[0])
    checks: list[Check] = [("samples.csv", not bad, f"samples {bad[:5]} disagree with the recomputation")]

    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    columns = {c: [float(r[header.index(c)]) for r in rows] for c in SUITE_COLUMNS}
    values = {c["name"]: c["value"] for c in report.get("checks", [])}
    for name, column, pick in SUITE_EXTREMES:
        want = pick(columns[column])
        checks.append((f"report.json {name}", values.get(name) == want, f"{values.get(name)!r} vs {want!r}"))
    checks.append(("report.json seed", report.get("seed") == seed, f"seed {report.get('seed')!r}"))
    return checks
