"""Reference routes and fixtures that only the tests use.

The reference routes are written out the slow, explicit way (full joint
states, nested commutators, partial traces, one :func:`collide` per stroke,
one ``DensityMatrix`` per RK4 step, RK4 by its four stages, one rates row
per state, one ``next_u64`` per random number) so that the tests can hold the
package's closed-form, stacked and block paths against them.  :func:`collide`
is the one-state stroke engine: the oracle of a collision run's strokes, its
ledgers and the first stroke it fails at.  :func:`ergotropy_series` is the
second-order ergotropy that the ergotropy tests hold the exact value against.
"""

import math
from dataclasses import dataclass, fields
from operator import add

import numpy as np

from qcollide.collisions import CollisionConfig, CollisionLedger, TrajectoryRecord, _ledger_columns
from qcollide.errors import (
    DimensionMismatchError,
    PositivityLostError,
    QCollideError,
    RankDeficientError,
    TraceDriftError,
)
from qcollide.lindblad import (
    INTEGRATOR_PSD_TOL,
    RANK_EIGENVALUE_TOL,
    LindbladGenerator,
    rk4_propagator,
    unvec,
    vec,
)
from qcollide.linalg import Spectrum, dag, double_commutator, kron, partial_trace
from qcollide.presets import RANDOM_DIMS, _mixed_wishart, random_matrix
from qcollide.rng import SplitMix64
from qcollide.series import PerturbedState, _require_gaps, _thermal_matrix, coherence_series
from qcollide.states import TRACE_TOL, AncillaSpec, DensityMatrix, require_support, von_neumann_entropy

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def mutual_information(rho_joint: DensityMatrix, dim_system: int, dim_ancilla: int) -> float:
    """``S(rho_S) + S(rho_A) - S(rho_SA)`` for a bipartite state."""
    if dim_system * dim_ancilla != rho_joint.dim:
        raise DimensionMismatchError(
            f"{dim_system} x {dim_ancilla} does not match joint dimension {rho_joint.dim}"
        )
    reduced_system = DensityMatrix(partial_trace(rho_joint.matrix, dim_system, dim_ancilla, "system"))
    reduced_ancilla = DensityMatrix(partial_trace(rho_joint.matrix, dim_system, dim_ancilla, "ancilla"))
    return (
        von_neumann_entropy(reduced_system)
        + von_neumann_entropy(reduced_ancilla)
        - von_neumann_entropy(rho_joint)
    )


def dissipator_apply(v_interaction, rho_system, rho_thermal, dim_system: int, dim_ancilla: int) -> np.ndarray:
    """Thermal dissipator ``-(1/2) tr_A [V, [V, rho (x) rho_th]]``."""
    joint = kron(rho_system, rho_thermal)
    nested = double_commutator(v_interaction, joint)
    return -0.5 * partial_trace(nested, dim_system, dim_ancilla, "system")


def random_density_matrix(rng: SplitMix64, dim: int, floor: float = 0.08) -> DensityMatrix:
    """Full-rank random state: a Wishart draw mixed with the identity, as the sampler makes ``rho_S``."""
    return DensityMatrix(_mixed_wishart(random_matrix(rng, dim), floor))


def scalar_normals(rng: SplitMix64, count: int) -> list[complex]:
    """``count`` complex normals drawn one ``next_u64`` at a time, by Box-Muller on each pair of outputs.

    Each normal is ``r cos(theta) + i r sin(theta)`` with
    ``r = sqrt(-2 ln u1)``, ``u1 = ((z1 >> 11) + 1) 2^-53`` in ``(0, 1]`` and
    ``theta = 2 pi (z2 >> 11) 2^-53``, all in scalar ``math``.
    """
    out = []
    for _ in range(count):
        u1 = ((rng.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (rng.next_u64() >> 11) * 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        out.append(complex(radius * math.cos(angle), radius * math.sin(angle)))
    return out


def next_below(rng: SplitMix64, n: int) -> int:
    """The next output modulo ``n``: an integer in ``[0, n)``, fine for the small ranges used here."""
    return rng.next_u64() % n


def scalar_draw(rng: SplitMix64, *, eigenoperator: bool = True) -> dict:
    """The draw of one random collision instance, read from the stream one scalar at a time.

    The oracle of ``presets.draw_collisions``: every field, in stream order,
    with :func:`next_below` for the dims, ``uniform`` for each scalar and
    :func:`scalar_normals` for each block of complex normals.
    """
    dim_system = RANDOM_DIMS[next_below(rng, len(RANDOM_DIMS))]
    dim_ancilla = RANDOM_DIMS[next_below(rng, len(RANDOM_DIMS))]
    draw = {
        "dims": (dim_system, dim_ancilla),
        "beta": rng.uniform(0.2, 2.5),
        "tau": 10.0 ** rng.uniform(-4.0, -1.0),
    }
    if eigenoperator:
        draw["spacing"] = rng.uniform(0.6, 1.8)
        for side, dim in (("system", dim_system), ("ancilla", dim_ancilla)):
            draw[f"basis_{side}"] = scalar_normals(rng, dim * dim)
            draw[f"offset_{side}"] = rng.uniform(-0.3, 0.3)
        draw["couplings"] = [
            (
                rng.uniform(0.3, 1.0),
                rng.uniform(),
                scalar_normals(rng, dim_system - step),
                scalar_normals(rng, dim_ancilla - step),
            )
            for step in range(1, min(dim_system, dim_ancilla))
        ]
        draw["v_scale"] = rng.uniform(0.4, 1.0)
    else:
        for key, dim, low, high in (
            ("h_system", dim_system, 0.5, 1.5),
            ("h_ancilla", dim_ancilla, 0.5, 1.5),
            ("v", dim_system * dim_ancilla, 0.4, 1.0),
        ):
            draw[f"{key}_scale"] = rng.uniform(low, high)
            draw[key] = scalar_normals(rng, dim * dim)
    draw["chi"] = scalar_normals(rng, dim_ancilla * (dim_ancilla - 1) // 2)
    draw["lam"] = rng.uniform(0.2, 1.0)
    draw["rho_system"] = scalar_normals(rng, dim_system * dim_system)
    return draw


def raised(fn, *args, **kwargs):
    """Class and message of what ``fn`` raises; ``None`` when it returns."""
    try:
        fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def stacked(states: list[DensityMatrix], dim: int) -> Spectrum:
    """The spectra of one-at-a-time ``states`` of dimension ``dim`` restacked as ``(n, d, d)``."""
    return Spectrum(
        np.array([rho.eigenvalues for rho in states]).reshape(-1, dim),
        np.array([rho.spectrum.eigenvectors for rho in states]).reshape(-1, dim, dim),
        np.array([rho.matrix for rho in states]).reshape(-1, dim, dim),
    )


def unstacked(states: Spectrum) -> list[DensityMatrix]:
    """Each matrix of a spectrum stack gated again as its own ``DensityMatrix``.

    Re-gating a stored, exactly Hermitian matrix reproduces its stored
    spectrum bit for bit.
    """
    return [DensityMatrix(matrix) for matrix in states.matrix]


def rk4_step(l_matrix: np.ndarray, state: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of ``d vec(rho)/dt = L vec(rho)`` over ``h``, stage by stage."""
    k1 = l_matrix @ state
    k2 = l_matrix @ (state + 0.5 * h * k1)
    k3 = l_matrix @ (state + 0.5 * h * k2)
    k4 = l_matrix @ (state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_by_step_integrate(gen: LindbladGenerator, rho0: DensityMatrix, t_final: float, dt: float):
    """``integrate`` as a loop of one RK4 propagator matvec and one ``DensityMatrix`` per step.

    Returns ``(times, states)`` with the states restacked; the first step
    whose state fails its gate raises :class:`TraceDriftError` when its
    trace is off 1 by more than ``TRACE_TOL``, else
    :class:`PositivityLostError`.  Takes a step ``dt`` that ``integrate``
    accepts.
    """
    n_whole = int(math.floor(t_final / dt + 1e-9))
    remainder = t_final - n_whole * dt
    steps = [dt] * n_whole + ([remainder] if remainder > 1e-12 * max(t_final, 1.0) else [])
    t, state = 0.0, rho0
    times, states = [], []
    for h in steps:
        t += h
        raw = unvec(rk4_propagator(gen.matrix, h) @ vec(state.matrix), gen.dim)
        try:
            state = DensityMatrix(raw, psd_tol=INTEGRATOR_PSD_TOL)
        except (QCollideError, ValueError) as exc:
            drift = abs(float(raw.trace().real) - 1.0)
            if drift > TRACE_TOL:
                raise TraceDriftError(f"trace drifted by {drift:.3e} at t={t}") from exc
            raise PositivityLostError(f"state left the positive cone at t={t}: {exc}") from exc
        times.append(t)
        states.append(state)
    return np.array(times), stacked(states, gen.dim)


@dataclass(frozen=True)
class CollisionOutcome:
    """Post-collision states together with the stroke ledger."""

    system: DensityMatrix
    ancilla: DensityMatrix
    ledger: CollisionLedger


def collide(rho_system: DensityMatrix, cfg: CollisionConfig) -> CollisionOutcome:
    """One stroke of the stroboscopic map, accounted for exactly.

    One matvec with the stroke matrix, then the state gates on the system
    output, those on the ancilla output, and the support check of the
    ancilla output where ``rho_A`` has a kernel, in that order.
    """
    if rho_system.dim != cfg.dim_system:
        raise DimensionMismatchError("system state dimension differs from config")
    d_s, d_a = cfg.dim_system, cfg.dim_ancilla
    n_s = d_s * d_s
    rows = cfg.stroke_matrix @ vec(rho_system.matrix)
    rho_s_after = DensityMatrix(unvec(rows[:n_s], d_s))
    rho_a_after = DensityMatrix(unvec(rows[n_s : n_s + d_a * d_a], d_a))
    if cfg.ancilla_kernel.shape[1]:
        require_support(rho_a_after.spectrum, cfg.ancilla_kernel)
    entropies = np.array([[von_neumann_entropy(rho)] for rho in (rho_system, rho_s_after, rho_a_after)])
    ledger = CollisionLedger(*_ledger_columns(cfg, rows[None], *entropies)[0].tolist())
    return CollisionOutcome(system=rho_s_after, ancilla=rho_a_after, ledger=ledger)


def stroke_by_stroke_trajectory(rho0: DensityMatrix, cfgs, n_steps: int) -> TrajectoryRecord:
    """``run_trajectory`` as a loop of ``collide`` calls whose ledgers are summed as floats, field by field.

    Each round, running sum and species total starts from ``0.0`` and adds
    its strokes in order; the rounds and running sums are then stacked into
    columns, and the round-end states into one spectrum stack.  Takes a
    schedule that ``run_trajectory`` accepts; the first failing stroke
    raises what ``collide`` raises.
    """
    subs = [cfg.subdivided(len(cfgs)) for cfg in cfgs]
    tau = cfgs[0].ancilla.tau
    zero = [0.0] * len(fields(CollisionLedger))
    totals = {sub.label: zero for sub in subs}
    running = zero
    states, rounds, cumulative = [], [], []
    state = rho0
    for _ in range(n_steps):
        round_ledger = zero
        for sub in subs:
            outcome = collide(state, sub)
            state = outcome.system
            values = [getattr(outcome.ledger, f.name) for f in fields(CollisionLedger)]
            round_ledger = list(map(add, round_ledger, values))
            totals[sub.label] = list(map(add, totals[sub.label], values))
        running = list(map(add, running, round_ledger))
        states.append(state)
        rounds.append(round_ledger)
        cumulative.append(running)

    def columns(rows: list) -> CollisionLedger:
        return CollisionLedger(*(np.array([row[k] for row in rows]) for k in range(len(zero))))

    return TrajectoryRecord(
        states=stacked(states, rho0.dim),
        times=np.array([n * tau for n in range(1, n_steps + 1)]),
        rounds=columns(rounds),
        cumulative=columns(cumulative),
        species_totals={label: CollisionLedger(*values) for label, values in totals.items()},
    )


# Max |entry| between a stacked run and its step-by-step reference over a few dozen
# rounds or steps: the same linear maps, multiplied out in another order.
ENGINE_ORACLE_TOL = 1e-13


def record_deviations(got: TrajectoryRecord, want: TrajectoryRecord) -> dict[str, float]:
    """Max-abs deviation of each part of a trajectory record from a reference record.

    The parts are the round-end matrices, their eigenvalues, the round and
    cumulative ledger columns, and the per-species totals.  The times must
    match exactly, and every part must have the shape and dtype of a record
    of ``len(want.times)`` rounds.
    """
    n, d = len(want.times), want.states.dim
    for record in (got, want):
        states = record.states
        assert states.matrix.shape == states.eigenvectors.shape == (n, d, d)
        assert states.eigenvalues.shape == (n, d) and states.eigenvalues.dtype == np.float64
        assert record.times.dtype == np.float64 and record.times.shape == (n,)
        for ledger in (record.rounds, record.cumulative):
            assert all(getattr(ledger, f.name).dtype == np.float64 for f in fields(ledger))
            assert all(getattr(ledger, f.name).shape == (n,) for f in fields(ledger))
        assert all(type(getattr(t, f.name)) is float for t in record.species_totals.values() for f in fields(t))
    assert got.times.tobytes() == want.times.tobytes()
    assert list(got.species_totals) == list(want.species_totals)

    def ledger_deviation(a: CollisionLedger, b: CollisionLedger) -> float:
        return max(float(np.max(np.abs(getattr(a, f.name) - getattr(b, f.name)), initial=0.0)) for f in fields(a))

    return {
        "states": float(np.max(np.abs(got.states.matrix - want.states.matrix), initial=0.0)),
        "eigenvalues": float(np.max(np.abs(got.states.eigenvalues - want.states.eigenvalues), initial=0.0)),
        "rounds": ledger_deviation(got.rounds, want.rounds),
        "cumulative": ledger_deviation(got.cumulative, want.cumulative),
        "species_totals": max(
            (ledger_deviation(got.species_totals[k], want.species_totals[k]) for k in want.species_totals),
            default=0.0,
        ),
    }


def per_state_rates(gen: LindbladGenerator, rho: DensityMatrix) -> list[float]:
    """The ``lindblad.rate_columns`` row of one state, with its own matvecs, ``ln(rho)`` and gates.

    The row holds the species' work rates, their heat rates, then the energy,
    entropy and entropy production rates.  Its rank gate runs first, then the
    closure of the energy rate against the work and heat rates, as scalar
    sums in species order.
    """
    if rho.dim != gen.dim:
        raise DimensionMismatchError("state dimension differs from generator")
    smallest = float(rho.eigenvalues[0])
    if smallest < RANK_EIGENVALUE_TOL:
        raise RankDeficientError(f"eigenvalue {smallest:.3e} too small for ln(rho)")
    state = vec(rho.matrix)
    n = len(gen.species)
    values = (gen.rate_rows @ state).real.tolist()
    work, heat, energy_rate = values[:n], values[n : 2 * n], values[2 * n]
    v = rho.spectrum.eigenvectors
    log_rho = (v * np.log(rho.eigenvalues)) @ dag(v)
    entropy_rate = -float((log_rho.reshape(-1) @ (gen.matrix @ state)).real)
    closure = abs(energy_rate - (sum(work) + sum(heat)))
    scale = max(1.0, abs(energy_rate), sum(abs(x) for x in work) + sum(abs(x) for x in heat))
    if closure > 1e-10 * scale:
        raise ValueError(
            f"energy rate {energy_rate!r} does not close against work+heat (defect {closure:.3e})"
        )
    pi = entropy_rate - sum(term.beta * q for term, q in zip(gen.species, heat))
    return [*work, *heat, energy_rate, entropy_rate, pi]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def row_by_row_trajectory_csv(path, record: TrajectoryRecord, gen: LindbladGenerator) -> None:
    """``trajectory.csv`` of a record, one :func:`per_state_rates` call and one ``format`` per value.

    The round-end states are those of :func:`unstacked`.
    """
    header = (
        "step,t,E_S,Q_A_cum,W_cum,W_C_cum,Q_inc_cum,Sigma_cum,I_cum,Srel_cum,"
        "C_anc_before,C_anc_after,S_system,Pi_rate"
    )
    lines = [header]
    cum, rounds = record.cumulative, record.rounds
    for k, state in enumerate(unstacked(record.states)):
        pi_rate = per_state_rates(gen, state)[-1]
        row = [
            str(k + 1),
            _fmt(record.times[k]),
            _fmt(state.expectation(gen.h_system)),
            _fmt(cum.heat_ancilla[k]),
            _fmt(cum.work[k]),
            _fmt(cum.coherent_work[k]),
            _fmt(cum.incoherent_heat[k]),
            _fmt(cum.entropy_production[k]),
            _fmt(cum.mutual_info[k]),
            _fmt(cum.rel_entropy_ancilla[k]),
            _fmt(rounds.coherence_before[k]),
            _fmt(rounds.coherence_after[k]),
            _fmt(von_neumann_entropy(state)),
            _fmt(pi_rate),
        ]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def ergotropy_series(spec: AncillaSpec) -> float:
    """Ergotropy of the weakly coherent ancilla state, ``T * C`` at second order.

    Uses the coherence series of the thermal reference perturbed along
    ``chi`` with amplitude ``lam * sqrt(tau)``; requires ``beta > 0`` and
    non-degenerate thermal populations.
    """
    if not (math.isfinite(spec.beta) and spec.beta > 0.0):
        raise ValueError("ergotropy series needs beta > 0")
    rho_th = DensityMatrix(_thermal_matrix(spec.h_ancilla, spec.beta))
    _require_gaps(rho_th.eigenvalues)
    ps = PerturbedState(rho0=rho_th, direction=spec.chi, epsilon=spec.coherence_amplitude)
    return coherence_series(ps) / spec.beta
