"""Verification studies shared by the CLI scenarios and the test suite.

Each study pits two independent computational routes against each other
(stroboscopic vs integrated dynamics, exact functionals vs perturbative
series, randomized exact inequalities, the steady state vs the jump rates)
and reduces the comparison to a few scalars: max distances, fitted log-log
slopes, halving ratios, the inequalities of each suite sample.  Every study
of the paper's claims lives here, with the ``tau`` and amplitude grids it
runs on; the CLI only turns the scalars into checks, and takes the suite's
extremes at the checks that read them.  A study takes only what its callers
vary: a fixture, grid, step or sample count with one value in use is fixed
here, and the start state of the convergence study is derived from the
species.

The randomized suite uses each random config for one stroke only, so it
builds no :class:`~qcollide.collisions.CollisionConfig` and no stroke
matrix: it draws every sample first, then builds and strokes each
``(d_S, d_A)`` group as stacks, with the gates of the one-sample route
``collide(*random_collision(rng))``, and returns one :class:`SuiteSample`
of columns over the draws.  Trajectories, which reuse one config for many
strokes, keep the cached stroke matrix; the convergence study reads the
round-end state stack of :func:`~qcollide.collisions.run_trajectory`, ledger
gates included, against :func:`rk4_round_states`, the RK4 flow sampled at
round ends, the :func:`~qcollide.lindblad.powers` of one round map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .collisions import CollisionConfig, collide, energy_conserving, joint_unitaries, run_trajectory
from .errors import QCollideError
from .lindblad import (
    INTEGRATOR_PSD_TOL,
    LindbladGenerator,
    _gate_step,
    coherent_generator,
    eigenoperator_dissipator,
    integrate,
    multi_bath_generator,
    powers,
    rate_columns,
    rk4_propagator,
    steady_state,
    unvec,
    vec,
)
from .linalg import Spectrum, commutator, dag, kron
from .presets import (
    DEFAULT_BETA,
    collision_stack,
    draw_collisions,
    maximally_mixed,
    qubit_collision,
    qubit_couplings,
    qubit_hamiltonian,
    random_basis,
    random_gapped_probs,
    random_traceless_hermitian,
    random_zero_diagonal,
    three_level_collision,
    three_level_state,
)
from .rng import SplitMix64
from .series import (
    PerturbedState,
    ancilla_coherence_change_series,
    coherence_series,
    entropy_series,
    predicted_mutual_info,
    predicted_rel_entropy,
    relative_entropy_series,
)
from .states import (
    SUPPORT_EIGENVALUE_TOL,
    AncillaSpec,
    DensityMatrix,
    coherence_from_populations,
    coherence_in_basis,
    coherent_preparation,
    ergotropy_exact,
    free_energy,
    log_on_support,
    relative_entropy,
    relative_entropy_of_coherence,
    require_support,
    shannon_entropy,
    state_spectra,
    trace_distance,
    von_neumann_entropy,
)

DEFAULT_DT_TARGET = 2e-3
# Evenly spaced trajectory samples of the second-law study, and the step of its
# centered finite difference of the free energy.
SECOND_LAW_SAMPLES = 20
FREE_ENERGY_FD_DT = 1e-5
# Collision durations of the entropic-identity study, halved step by step.
IDENTITY_TAUS = (5e-4, 2.5e-4, 1.25e-4, 6.25e-5)
# Perturbation amplitudes of the series study, halved step by step.
SERIES_EPS = (2e-2, 1e-2, 5e-3, 2.5e-3)
# Coherence amplitudes of the ergotropy study, decreasing by decades.
ERGOTROPY_EPS = (1e-1, 1e-2, 1e-3)


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


def halving_ratios(values: Sequence[float]) -> list[float]:
    """Successive decay factors of a residual sequence."""
    return [values[i] / values[i + 1] for i in range(len(values) - 1)]


def energy_scale(h_system, h_ancilla) -> np.ndarray:
    """``||H_S|| + ||H_A||`` in spectral norms, the energy scale of a species, per matrix of stacks."""
    return np.abs(np.linalg.eigvalsh(h_system)).max(axis=-1) + np.abs(np.linalg.eigvalsh(h_ancilla)).max(axis=-1)


def generator_for(cfgs: Sequence[CollisionConfig]) -> LindbladGenerator:
    """Additive continuous-time generator matching a set of collision species."""
    return multi_bath_generator(
        cfgs[0].h_system,
        [(cfg.ancilla, cfg.v_interaction) for cfg in cfgs],
        labels=[cfg.label for cfg in cfgs],
    )


def _whole_rounds(taus: Sequence[float], t_final: float) -> list[int]:
    """Rounds of each ``tau`` in ``t_final``; ``ValueError`` naming ``t_final`` unless whole (to 1e-9) and >= 1."""
    for tau in taus:
        if math.isinf(t_final / tau):
            raise ValueError(f"t_final: {t_final!r} holds too many rounds of tau={tau!r} to count")
        if round(t_final / tau) < 1:
            raise ValueError(f"t_final: {t_final!r} is shorter than one round of tau={tau!r}")
        if abs(t_final / tau - round(t_final / tau)) > 1e-9 * round(t_final / tau):
            raise ValueError(f"t_final: {t_final!r} is not a whole number of rounds of tau={tau!r}")
    return [round(t_final / tau) for tau in taus]


def rk4_round_states(gen: LindbladGenerator, rho0: DensityMatrix, tau: float, n_rounds: int) -> Spectrum:
    """Gated states of the RK4 reference flow from ``rho0`` at the end of rounds ``1..n_rounds`` of ``tau``.

    The flow is that of :func:`~qcollide.lindblad.integrate` at the step
    ``tau / substeps``, read at round ends only: one round is the map
    ``P = R(tau / substeps)^substeps`` of :func:`~qcollide.lindblad.rk4_propagator`,
    and the rows ``vec(rho_k)^T`` are its :func:`~qcollide.lindblad.powers`
    from ``P vec(rho0)``.  The states are gated by one
    :func:`~qcollide.states.state_spectra` call with positivity loosened to
    ``-1e-6``; when that fails, the first failing round raises as a step
    of ``integrate`` does, :class:`~qcollide.errors.TraceDriftError` or
    :class:`~qcollide.errors.PositivityLostError` at its end time.
    """
    substeps = max(1, math.ceil(tau / min(DEFAULT_DT_TARGET, 0.09 / max(gen.norm, 1e-12))))
    round_map = np.linalg.matrix_power(rk4_propagator(gen.matrix, tau / substeps), substeps)
    # A failing round is computed before the gate finds it; should one overflow, the gate rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        rows = powers(round_map, round_map @ vec(rho0.matrix), np.empty((n_rounds, gen.dim**2), dtype=complex))
        matrices = unvec(rows, gen.dim)
        try:
            return state_spectra(matrices, psd_tol=INTEGRATOR_PSD_TOL)
        except (QCollideError, ValueError):
            for k, rho in enumerate(matrices, start=1):
                _gate_step(k * tau, rho)
            raise


def stroboscopic_deviation(
    build_cfgs: Callable[[float], list[CollisionConfig]],
    taus: Sequence[float],
    t_final: float,
) -> list[tuple[float, float]]:
    """Max-over-time trace distance between collisions and the integrated flow.

    For each ``tau`` the stroboscopic trajectory (round-robin over the built
    species), started from the maximally mixed system state, is compared at
    every multiple of ``tau`` against :func:`rk4_round_states`, the RK4 flow
    on a commensurate grid with steps no longer than
    :data:`DEFAULT_DT_TARGET`.  Every ``tau`` runs to the same horizon
    ``t_final``, a whole number of its rounds, checked for every ``tau``
    first.  The ``tau`` values then run in turn, each its configs, strokes,
    reference and distances, so the first failing ``tau`` raises.
    """
    deviations = []
    for tau, n_rounds in zip(taus, _whole_rounds(taus, t_final)):
        cfgs = list(build_cfgs(tau))
        if not cfgs:
            raise ValueError("need at least one collision config")
        rho0 = maximally_mixed(cfgs[0].dim_system)
        strobes = run_trajectory(rho0, cfgs, n_rounds).states
        reference = rk4_round_states(generator_for(cfgs), rho0, tau, n_rounds)
        deviations.append((tau, float(trace_distance(strobes.matrix, reference.matrix).max())))
    return deviations


@dataclass(frozen=True)
class IdentityResiduals:
    """Finite-duration defects of the leading-order entropic identities, one per ``IDENTITY_TAUS`` entry."""

    mutual_info: tuple[float, ...]
    rel_entropy: tuple[float, ...]
    first_law: tuple[float, ...]
    entropy_production: tuple[float, ...]


def entropic_identity_residuals() -> IdentityResiduals:
    """Residuals of the four leading-order identities across :data:`IDENTITY_TAUS`.

    Each ``tau`` strokes :func:`~qcollide.presets.three_level_state` once
    with :func:`~qcollide.presets.three_level_collision`.  Mutual-information
    and ancilla-relative-entropy predictions use the series value of the
    coherence change; the first-law and entropy-production residuals use
    exact ledger entries only.
    """
    rho_system = three_level_state()
    r_mutual, r_rel, r_first, r_sigma = [], [], [], []
    for tau in IDENTITY_TAUS:
        cfg = three_level_collision(tau)
        ledger = collide(rho_system, cfg).ledger
        beta = cfg.ancilla.beta
        c_before, c_after = ancilla_coherence_change_series(
            rho_system, cfg.ancilla, cfg.v_interaction
        )
        d_coherence = c_after - c_before
        r_mutual.append(
            abs(ledger.mutual_info - predicted_mutual_info(beta, ledger.d_free_energy, d_coherence))
        )
        r_rel.append(
            abs(ledger.rel_entropy_ancilla - predicted_rel_entropy(beta, ledger.coherent_work, d_coherence))
        )
        r_first.append(abs(ledger.d_energy - (ledger.coherent_work + ledger.incoherent_heat)))
        r_sigma.append(
            abs(ledger.entropy_production - beta * (ledger.coherent_work - ledger.d_free_energy))
        )
    return IdentityResiduals(
        mutual_info=tuple(r_mutual),
        rel_entropy=tuple(r_rel),
        first_law=tuple(r_first),
        entropy_production=tuple(r_sigma),
    )


def series_instance_residuals(rng: SplitMix64, dim: int) -> dict[str, list[float]]:
    """|exact - series| of the entropy, coherence and relative entropy on one seeded instance.

    The instance is a full-rank ``rho0`` with gapped populations in a random
    basis, two traceless Hermitian directions ``sigma`` and ``mu``, and a
    coherence direction ``chi`` with no diagonal in that basis.  Each family
    holds one residual per amplitude in :data:`SERIES_EPS`.
    """
    probs = random_gapped_probs(rng, dim)
    basis = random_basis(rng, dim)
    rho0 = DensityMatrix((basis * probs) @ dag(basis))
    sigma = random_traceless_hermitian(rng, dim)
    mu = random_traceless_hermitian(rng, dim)
    chi = random_zero_diagonal(rng, basis)
    h_ref = (basis * np.arange(1.0, dim + 1.0)) @ dag(basis)
    out: dict[str, list[float]] = {"entropy": [], "coherence": [], "relative_entropy": []}
    for eps in SERIES_EPS:
        along_sigma = DensityMatrix(rho0.matrix + eps * sigma)
        exact_s = von_neumann_entropy(along_sigma)
        exact_c = relative_entropy_of_coherence(DensityMatrix(rho0.matrix + eps * chi), h_ref)
        exact_kl = relative_entropy(DensityMatrix(rho0.matrix + eps * mu), along_sigma)
        out["entropy"].append(abs(exact_s - entropy_series(PerturbedState(rho0, sigma, eps))))
        out["coherence"].append(abs(exact_c - coherence_series(PerturbedState(rho0, chi, eps))))
        out["relative_entropy"].append(abs(exact_kl - relative_entropy_series(rho0, sigma, mu, eps)))
    return out


def series_halving_ratios(seed: int) -> dict[str, list[float]]:
    """Halving ratios of the series residuals over :data:`SERIES_EPS`, per family.

    One instance of dimension 2, then one of dimension 3, are drawn from
    ``SplitMix64(seed)``.  The coherence family is read at dimension 3 only:
    for a qubit, a phase flip in the instance basis maps ``chi`` to ``-chi``
    and fixes ``rho0``, so the coherence is even in the amplitude and its
    residual falls as ``eps^4`` (ratio 16).
    """
    rng = SplitMix64(seed)
    families: dict[str, list[float]] = {"entropy": [], "coherence": [], "relative_entropy": []}
    for dim in (2, 3):
        residuals = series_instance_residuals(rng, dim)
        for name in ("entropy", "relative_entropy"):
            families[name] += halving_ratios(residuals[name])
        if dim == 3:
            families["coherence"] += halving_ratios(residuals["coherence"])
    return families


def ergotropy_ratio_deviations() -> list[float]:
    """|ergotropy / (T * coherence) - 1| for the qubit fixture at each of :data:`ERGOTROPY_EPS`."""
    deviations = []
    for eps in ERGOTROPY_EPS:
        spec = AncillaSpec(
            h_ancilla=qubit_hamiltonian(1.0),
            beta=DEFAULT_BETA,
            chi=np.array([[0, 1], [1, 0]], dtype=complex),
            lam=eps,
            tau=1.0,
        )
        rho = DensityMatrix(spec.thermal.matrix + eps * spec.chi)
        exact = ergotropy_exact(rho, spec.h_ancilla)
        coherence = coherence_in_basis(rho, spec.basis)
        deviations.append(abs(exact / (coherence / spec.beta) - 1.0))
    return deviations


def two_bath_population_error(gs: Sequence[float], betas: Sequence[float]) -> float:
    """Steady-state excited population of a qubit between two thermal qubit baths, against its rates.

    The baths are resonant-qubit species ``A`` and ``B`` with couplings
    ``gs``, inverse temperatures ``betas`` and no ancilla coherence.  The
    stationary state of their additive generator should hold the excited
    population ``sum gamma^+ / sum (gamma^+ + gamma^-)`` of the jump rates;
    the absolute difference is returned.
    """
    pair = [qubit_collision(g=g, beta=b, lam=0.0, label=label) for g, b, label in zip(gs, betas, "AB")]
    stationary = steady_state(generator_for(pair))
    up = down = 0.0
    for collision, g, beta in zip(pair, gs, betas):
        jump_rates, _ = eigenoperator_dissipator(
            qubit_couplings(g=g), collision.ancilla.h_ancilla, beta, h_system=collision.h_system
        )
        up += jump_rates[0].gamma_plus
        down += jump_rates[0].gamma_minus
    return abs(float(stationary.matrix[0, 0].real) - up / (up + down))


@dataclass(frozen=True, eq=False)
class SuiteSample:
    """Scalars of the randomized suite, as columns with one entry per draw, in draw order."""

    dim_system: np.ndarray
    dim_ancilla: np.ndarray
    tau: np.ndarray
    entropy_production: np.ndarray
    mutual_info: np.ndarray
    rel_entropy_ancilla: np.ndarray
    work_scaled: np.ndarray
    coherent_bound_scaled: np.ndarray


def random_collision_suite(seed: int, count: int, *, eigenoperator: bool = True) -> SuiteSample:
    """Run ``count`` seeded random collisions and return their exact inequalities as columns, in draw order.

    ``work_scaled`` is ``|work| / (||H_S|| + ||H_A||)`` (spectral norms);
    ``coherent_bound_scaled`` is ``(beta W_C + dC) / tau^{3/2}``, the scaled
    slack of the coherent-work bound.  Raises ``ValueError`` when ``count``
    is below 1, before any draw.

    Entry ``k`` is ``collide(*random_collision(rng))`` for the ``k``-th
    draw of ``SplitMix64(seed)``, computed in stacks: every sample is drawn
    first, from one block of the stream
    (:func:`~qcollide.presets.draw_collisions`), then each
    ``(d_S, d_A)`` group is built by one
    :func:`~qcollide.presets.collision_stack` and stroked in one batched
    pass.  A failing gate raises the class and message that the one-sample
    route raises, prefixed by ``"sample <k>: "`` for the first failing
    sample ``k``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    draws = draw_collisions(SplitMix64(seed), count, eigenoperator=eigenoperator)
    groups: dict[tuple[int, int], list[int]] = {}
    for index, draw in enumerate(draws):
        groups.setdefault(draw["dims"], []).append(index)
    columns = np.empty((count, 5))
    failures = []
    for indices in groups.values():
        try:
            columns[indices] = _suite_columns([draws[i] for i in indices])
        except (QCollideError, ValueError) as exc:
            failures.append(_first_failure(draws, indices, exc))
    if failures:
        index, exc = min(failures, key=lambda failure: failure[0])
        raise type(exc)(f"sample {index}: {exc}") from exc
    dims = np.array([draw["dims"] for draw in draws])
    return SuiteSample(*dims.T, np.array([draw["tau"] for draw in draws]), *columns.T)


def _first_failure(draws: list[dict], indices: list[int], error: Exception) -> tuple[int, Exception]:
    """The first sample of a failed group that fails on its own, with its error."""
    for index in indices:
        try:
            _suite_columns([draws[index]])
        except (QCollideError, ValueError) as exc:
            return index, exc
    return indices[0], error


def _suite_columns(draws: list[dict]) -> np.ndarray:
    """``Sigma, I, Srel, work_scaled, coherent_bound_scaled`` of each draw of one ``(d_S, d_A)``.

    One stroke per draw, as :func:`~qcollide.collisions.collide` makes it,
    with stacked ``@``, ``eigh`` and ``eigvalsh``: each unitary comes from a
    batched eigensolve of the joint Hamiltonian, and the joint state
    ``U (rho_S (x) rho_A) U^dag`` is traced down to both outputs.  The gates
    of the one-sample route run on the stacks in its order: those of
    :func:`~qcollide.collisions.build_unitary`, the ``chi`` diagonal check,
    the state gates on ``rho_A``, the Hermiticity gate on the coherent
    generator, the state gates on ``rho_S'`` and ``rho_A'``, the support
    check of ``rho_A'`` where ``rho_A`` has a kernel, and the positivity of
    the dephased populations.
    """
    stack = collision_stack(draws)
    dim_system, dim_ancilla = draws[0]["dims"]
    h_system, h_ancilla, v, chi = stack.h_system, stack.h_ancilla, stack.v_interaction, stack.chi
    tau, beta, lam = stack.tau, stack.beta, stack.lam
    free = kron(h_system, np.eye(dim_ancilla)) + kron(np.eye(dim_system), h_ancilla)
    u = joint_unitaries(free, v, tau, energy_conserving(v, free))
    basis = stack.basis.eigenvectors
    rho_s = stack.rho_system
    rho_a = state_spectra(coherent_preparation(stack.thermal.matrix, chi, basis, lam * np.sqrt(tau)))
    work_operator = commutator(coherent_generator(v, chi, dim_system, dim_ancilla), h_system)

    joint = (u @ kron(rho_s.matrix, rho_a.matrix) @ dag(u)).reshape(-1, dim_system, dim_ancilla, dim_system, dim_ancilla)
    after_s = state_spectra(np.trace(joint, axis1=2, axis2=4))
    after_a = state_spectra(np.trace(joint, axis1=1, axis2=3))
    kernels = rho_a.eigenvalues <= SUPPORT_EIGENVALUE_TOL
    for k in np.flatnonzero(kernels.any(axis=-1)):
        require_support(after_a[k], rho_a.eigenvectors[k][:, kernels[k]])

    s_before, s_ancilla, s_after, s_a_after = (
        shannon_entropy(state.eigenvalues) for state in (rho_s, rho_a, after_s, after_a)
    )
    # Unitary invariance: the joint entropy after the stroke is S(rho_S) + S(rho_A).
    mutual = s_after + s_a_after - s_before - s_ancilla
    rel_ancilla = -s_a_after - _traces(after_a.matrix, log_on_support(rho_a)).real
    work = (
        _traces(h_system, after_s.matrix).real
        - _traces(h_system, rho_s.matrix).real
        + _traces(h_ancilla, after_a.matrix).real
        - _traces(h_ancilla, rho_a.matrix).real
    )
    # W_C = Re(i lam tau tr([G, H_S] rho_S)).
    coherent_work = -(lam * tau * _traces(work_operator, rho_s.matrix).imag)

    def populations(m: np.ndarray) -> np.ndarray:
        return np.diagonal(dag(basis) @ m @ basis, axis1=-2, axis2=-1).real

    d_coherence = coherence_from_populations(populations(after_a.matrix), s_a_after) - coherence_from_populations(
        populations(rho_a.matrix), s_ancilla
    )
    return np.column_stack(
        [
            mutual + rel_ancilla,
            mutual,
            rel_ancilla,
            np.abs(work) / energy_scale(h_system, h_ancilla),
            (beta * coherent_work + d_coherence) / tau**1.5,
        ]
    )


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``tr(a b)`` per matrix of stacks."""
    return (a * b.swapaxes(-1, -2)).sum(axis=(-2, -1))


def free_energy_rate_fd(gen: LindbladGenerator, rho: np.ndarray, beta: float) -> float:
    """Centered finite difference of the free energy along the generator flow.

    One RK4 micro-step of ``+dt`` and one of ``-dt`` from the state matrix
    ``rho``, each one :func:`~qcollide.lindblad.rk4_propagator` matvec with
    ``dt`` = :data:`FREE_ENERGY_FD_DT`, give the two evaluation points;
    independent of the algebraic rate formulas.
    """
    dt = FREE_ENERGY_FD_DT

    def step(sign: float) -> DensityMatrix:
        return DensityMatrix(unvec(rk4_propagator(gen.matrix, sign * dt) @ vec(rho), gen.dim))

    forward = free_energy(step(+1.0), gen.h_system, beta)
    backward = free_energy(step(-1.0), gen.h_system, beta)
    return (forward - backward) / (2.0 * dt)


def second_law_defects(gen: LindbladGenerator, states: Spectrum, beta: float) -> list[float]:
    """|Pi - beta (W_C_rate - F_rate)| at :data:`SECOND_LAW_SAMPLES` evenly spaced trajectory samples.

    ``states`` is the step stack of :func:`~qcollide.lindblad.integrate`.
    The rates of all samples come from one
    :func:`~qcollide.lindblad.rate_columns` call, so its rank gate runs on
    every sample before any finite difference of the free energy.  The
    coherent work rate is the sum of the species' rates in species order.
    """
    stride = max(1, len(states.matrix) // SECOND_LAW_SAMPLES)
    samples = states[stride - 1 :: stride][:SECOND_LAW_SAMPLES]
    m = len(gen.species)
    return [
        abs(row[-1] - beta * (sum(row[:m]) - free_energy_rate_fd(gen, rho, beta)))
        for rho, row in zip(samples.matrix, rate_columns(gen, samples).tolist())
    ]


def modified_second_law_defects() -> list[float]:
    """:func:`second_law_defects` of ``qubit_collision(lam=0.3)``, integrated from the maximally mixed state.

    The flow is :func:`~qcollide.lindblad.integrate` to ``t = 2`` at
    ``dt = 1e-2``, and ``beta`` is the bath's.
    """
    cfg = qubit_collision(lam=0.3)
    gen = generator_for([cfg])
    _, states = integrate(gen, maximally_mixed(cfg.dim_system), 2.0, 1e-2)
    return second_law_defects(gen, states, cfg.ancilla.beta)
