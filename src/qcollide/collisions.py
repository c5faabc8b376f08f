"""Stroboscopic collision dynamics with an exact per-collision ledger.

One collision evolves ``rho_S (x) rho_A`` with the joint unitary generated by
``H_S + H_A + V / sqrt(tau)`` for a duration ``tau``, then traces out either
factor.  With ``rho_A`` fixed per species, both reduced states are linear in
``rho_S``, and so is every ledger entry apart from the entropies: the energy
changes, the coherent work and incoherent heat (``tau`` times the
master-equation rate formulas at the pre-collision state), the cross term
``tr(rho_A' ln rho_A)`` of the ancilla relative entropy and the dephased
populations of ``rho_A'``.  Each config stacks all of them into one matrix,
so a stroke is one matvec on the column-stacked ``vec(rho_S)``; the joint
state is never formed.  What is fixed per config (``<H_A>``, ``S(rho_A)``,
``ln(rho_A)`` and the kernel of ``rho_A``) is computed once, and the support
check of ``rho_A'`` runs only when ``rho_A`` has a kernel.

:func:`run_trajectory` runs one species, or ``m`` species round-robin with
each sub-collision a ``1/m`` share of the round.  With the ancillae fixed,
one round is one linear map on ``vec(rho_S)``, so the round starts are its
:func:`~qcollide.lindblad.powers`; each species' stroke rows are then one
matrix product over all rounds, followed by one stacked gate pass over all
system outputs and one over each species' ancilla outputs.  Its record holds
the round-end states, a slice of the gated system spectra, and two ledgers
of columns over the rounds: each round's :class:`CollisionLedger` and their
running sums, from the stroke rows and the entropies of the gated spectra.
When a gate fails, :func:`~qcollide.states.first_failure` gates prefixes of
the same strokes to raise at the first failing stroke, as one stroke at a
time would.

Sign conventions: ``heat_ancilla > 0`` means the ancilla gained energy, and
the switching work is stored as ``work = d_energy + heat_ancilla``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, UnitaryDefectError
from .lindblad import coherent_generator, powers, unvec, vec
from .linalg import (
    ENERGY_CONSERVING_RTOL,
    Spectrum,
    ancilla_average,
    commutator,
    dag,
    double_commutator,
    expm_unitary,
    kron,
    max_abs_each,
    reduced_superoperator,
    require_hermitian,
)
from .states import (
    AncillaSpec,
    DensityMatrix,
    coherence_from_populations,
    coherence_in_basis,
    first_failure,
    log_on_support,
    require_support,
    shannon_entropy,
    state_spectra,
    support_kernel,
    von_neumann_entropy,
    weakly_coherent_state,
)

UNITARITY_TOL = 1e-10


class CollisionConfig:
    """Ingredients of one system-ancilla collision species.

    ``v_interaction`` is the pre-scaling potential on the joint space (units
    energy * sqrt(time)); the realized joint Hamiltonian divides it by
    ``sqrt(tau)``.  Derived objects (joint unitary, prepared ancilla state)
    are computed lazily and cached, so a config can be reused across many
    collisions at no extra cost; so are ``coherence_before``, the two stroke
    maps ``system_map`` and ``ancilla_map``, the two ledger operators
    ``heat_operator`` and ``work_operator``, the ``stroke_matrix`` that
    stacks them, and the scalars and kernel of the prepared ancilla state.
    The ``H_A`` eigenbasis and the thermal ancilla state are
    ``ancilla.basis`` and ``ancilla.thermal``.
    """

    def __init__(self, h_system, v_interaction, ancilla: AncillaSpec, label: str = "A"):
        self.h_system = require_hermitian(h_system, name="h_system")
        self.v_interaction = require_hermitian(v_interaction, name="v_interaction")
        self.ancilla = ancilla
        self.label = str(label)
        self.dim_system = self.h_system.shape[0]
        self.dim_ancilla = ancilla.dim
        if self.v_interaction.shape[0] != self.dim_system * self.dim_ancilla:
            raise DimensionMismatchError(
                f"interaction dimension {self.v_interaction.shape[0]} is not "
                f"{self.dim_system} x {self.dim_ancilla}"
            )
        if not (math.isfinite(ancilla.beta) and ancilla.beta > 0.0):
            raise ValueError("collisions need a finite positive ancilla beta")
        self.strict_energy_conserving = bool(energy_conserving(self.v_interaction, self.free_hamiltonian))

    @cached_property
    def free_hamiltonian(self) -> np.ndarray:
        """``H_S (x) I + I (x) H_A`` on the joint space."""
        return kron(self.h_system, np.eye(self.dim_ancilla)) + kron(
            np.eye(self.dim_system), self.ancilla.h_ancilla
        )

    @cached_property
    def unitary(self) -> np.ndarray:
        return build_unitary(self)

    @cached_property
    def ancilla_state(self) -> DensityMatrix:
        return weakly_coherent_state(self.ancilla)

    @cached_property
    def coherence_before(self) -> float:
        return coherence_in_basis(self.ancilla_state, self.ancilla.basis)

    @cached_property
    def system_map(self) -> np.ndarray:
        """``d_S^2 x d_S^2`` matrix taking ``vec(rho_S)`` to ``vec(tr_A[U (rho_S x rho_A) U^dag])``."""
        u = self.unitary
        return reduced_superoperator(u, dag(u), self.ancilla_state.matrix, self.dim_system, self.dim_ancilla)

    @cached_property
    def ancilla_map(self) -> np.ndarray:
        """``d_A^2 x d_S^2`` matrix taking ``vec(rho_S)`` to ``vec(tr_S[U (rho_S x rho_A) U^dag])``."""
        d_s, d_a = self.dim_system, self.dim_ancilla
        u4 = self.unitary.reshape(d_s, d_a, d_s, d_a)
        m = np.einsum("iajb,bd,icld->acjl", u4, self.ancilla_state.matrix, u4.conj())
        return m.reshape(d_a * d_a, d_s * d_s, order="F")

    @cached_property
    def heat_operator(self) -> np.ndarray:
        """``K = -(1/2) tr_A([V, [V, H_S x I]] (I x rho_th))``: ``tr(K rho) = tr(H_S D(rho))``."""
        nested = double_commutator(self.v_interaction, kron(self.h_system, np.eye(self.dim_ancilla)))
        return -0.5 * ancilla_average(nested, self.ancilla.thermal.matrix, self.dim_system, self.dim_ancilla)

    @cached_property
    def work_operator(self) -> np.ndarray:
        """``C = [G, H_S]``: the coherent work rate is ``Re(i lam tr(C rho))``."""
        g = coherent_generator(self.v_interaction, self.ancilla.chi, self.dim_system, self.dim_ancilla)
        return commutator(g, self.h_system)

    @cached_property
    def stroke_matrix(self) -> np.ndarray:
        """Every linear quantity of a stroke as rows acting on ``vec(rho_S)``.

        Top to bottom: ``system_map``, ``ancilla_map``, ``d<H_S>``,
        ``<H_A>'``, ``tr(C rho)``, ``tr(K rho)``, ``tr(rho_A' ln rho_A)`` and
        the ``d_A`` populations of ``rho_A'`` in ``ancilla.basis``.  A row
        ``x.reshape(-1)`` dotted with ``vec(rho)`` is ``tr(x rho)``.  An
        interaction too large for these rows to be finite (``V^2`` overflows)
        raises ``ValueError``.
        """
        # Overflow is caught by the finiteness gate below, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            a_map = self.ancilla_map
            h_s = self.h_system.reshape(-1)
            v = self.ancilla.basis.eigenvectors
            # Row k is the trace row of the projector |v_k><v_k|.
            projectors = np.einsum("jk,ik->kji", v, v.conj()).reshape(self.dim_ancilla, -1)
            rows = np.vstack(
                [
                    self.system_map,
                    a_map,
                    h_s @ self.system_map - h_s,
                    self.ancilla.h_ancilla.reshape(-1) @ a_map,
                    self.work_operator.reshape(-1),
                    self.heat_operator.reshape(-1),
                    log_on_support(self.ancilla_state.spectrum).reshape(-1) @ a_map,
                    projectors @ a_map,
                ]
            )
        if not np.isfinite(rows).all():
            raise ValueError(f"stroke matrix of species {self.label!r} has non-finite entries")
        return rows

    @cached_property
    def ancilla_energy(self) -> float:
        """``<H_A>`` of the prepared ancilla state."""
        return self.ancilla_state.expectation(self.ancilla.h_ancilla)

    @cached_property
    def ancilla_entropy(self) -> float:
        """``S(rho_A)`` of the prepared ancilla state."""
        return von_neumann_entropy(self.ancilla_state)

    @cached_property
    def ancilla_kernel(self) -> np.ndarray:
        """Kernel of the prepared ancilla state, as columns; empty when it has full rank."""
        return support_kernel(self.ancilla_state)

    def subdivided(self, parts: int) -> "CollisionConfig":
        """Equivalent species config for one sub-collision of a round of ``parts``.

        Duration shrinks to ``tau / parts`` while the interaction picks up a
        factor ``sqrt(parts)`` and the coherence strength compensates so the
        injected coherence amplitude ``lam * sqrt(tau)`` is unchanged.
        """
        if parts == 1:
            return self
        root = math.sqrt(parts)
        spec = self.ancilla
        sub_spec = AncillaSpec(
            h_ancilla=spec.h_ancilla,
            beta=spec.beta,
            chi=spec.chi,
            lam=spec.lam * root,
            tau=spec.tau / parts,
        )
        return CollisionConfig(self.h_system, root * self.v_interaction, sub_spec, label=self.label)


def energy_conserving(v_interaction, free_hamiltonian) -> np.ndarray:
    """Whether ``[V, H_S + H_A]`` vanishes to ``ENERGY_CONSERVING_RTOL``, per matrix of a stack."""
    defect = max_abs_each(commutator(v_interaction, free_hamiltonian))
    scale = np.maximum(1.0, max_abs_each(v_interaction) * max_abs_each(free_hamiltonian))
    return defect <= ENERGY_CONSERVING_RTOL * scale


def build_unitary(cfg: CollisionConfig) -> np.ndarray:
    """Joint collision unitary ``exp[-i tau (H_S + H_A + V / sqrt(tau))]``."""
    return joint_unitaries(
        cfg.free_hamiltonian, cfg.v_interaction, cfg.ancilla.tau, cfg.strict_energy_conserving
    )


def joint_unitaries(free, v_interaction, tau, strict) -> np.ndarray:
    """:func:`build_unitary` from its ingredients, for one config or for stacks of them.

    ``free`` and ``v_interaction`` are the free Hamiltonian and interaction
    (matrices, or stacks ``(n, D, D)`` decomposed by one batched ``eigh``);
    ``tau`` and the ``strict`` energy-conservation flags have one entry per
    config.  A unitary whose ``max|U^dag U - I|`` exceeds ``UNITARITY_TOL``,
    or for a strict config whose commutator with the free Hamiltonian
    exceeds ``1e-8`` of its scale, raises :class:`UnitaryDefectError` for
    the first such config.
    """
    u = expm_unitary(free + v_interaction / np.sqrt(tau)[..., None, None], tau)
    unitarity = max_abs_each(dag(u) @ u - np.eye(u.shape[-1]))
    failed = unitarity > UNITARITY_TOL
    if np.count_nonzero(failed):
        raise UnitaryDefectError(f"unitary defect {np.ravel(unitarity)[np.argmax(failed)]:.3e} beyond tolerance")
    defect = np.where(strict, max_abs_each(commutator(u, free)), 0.0)
    failed = defect > 1e-8 * np.maximum(1.0, max_abs_each(free))
    if np.count_nonzero(failed):
        raise UnitaryDefectError(f"energy-conserving unitary defect {np.ravel(defect)[np.argmax(failed)]:.3e}")
    return u


@dataclass(frozen=True, eq=False)
class CollisionLedger:
    """Exact thermodynamic record of one collision, or of every round of a run.

    Each entry is a float for one stroke (or one species' total over a run),
    or an array with one entry per round, the way :class:`~qcollide.linalg.Spectrum`
    holds one matrix or a stack.  All entries are additive over strokes.
    ``entropy_production`` is the sum ``mutual_info + rel_entropy_ancilla``
    by construction.
    """

    d_energy: float | np.ndarray
    heat_ancilla: float | np.ndarray
    work: float | np.ndarray
    coherent_work: float | np.ndarray
    incoherent_heat: float | np.ndarray
    entropy_production: float | np.ndarray
    mutual_info: float | np.ndarray
    rel_entropy_ancilla: float | np.ndarray
    coherence_before: float | np.ndarray
    coherence_after: float | np.ndarray
    d_free_energy: float | np.ndarray


def _ledger_columns(cfg: CollisionConfig, rows: np.ndarray, s_before, s_after, s_a_after) -> np.ndarray:
    """Ledgers of strokes of ``cfg`` as rows ``(n, fields)``, in the field order of :class:`CollisionLedger`.

    ``rows`` holds ``stroke_matrix @ vec(rho_S)`` of each stroke, and the
    entropies of ``rho_S``, ``rho_S'`` and ``rho_A'`` have one entry per stroke.
    """
    n_a = cfg.dim_system**2 + cfg.dim_ancilla**2
    d_energy, energy_a_after, _, heat_rate, cross = rows[:, n_a : n_a + 5].real.T
    tau = cfg.ancilla.tau
    heat_ancilla = energy_a_after - cfg.ancilla_energy
    # Unitary invariance: the joint entropy after the stroke is S(rho_S) + S(rho_A).
    mutual = s_after + s_a_after - s_before - cfg.ancilla_entropy
    rel_ancilla = -s_a_after - cross
    columns = dict(
        d_energy=d_energy,
        heat_ancilla=heat_ancilla,
        work=d_energy + heat_ancilla,
        coherent_work=(1j * cfg.ancilla.lam * tau * rows[:, n_a + 2]).real,
        incoherent_heat=tau * heat_rate,
        entropy_production=mutual + rel_ancilla,
        mutual_info=mutual,
        rel_entropy_ancilla=rel_ancilla,
        coherence_before=np.full(len(rows), cfg.coherence_before),
        coherence_after=coherence_from_populations(rows[:, n_a + 5 :].real, s_a_after),
        d_free_energy=d_energy - (s_after - s_before) / cfg.ancilla.beta,
    )
    return np.column_stack([columns[f.name] for f in fields(CollisionLedger)])


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Stroboscopic run of ``n`` rounds.

    ``states`` is the read-only spectrum stack ``(n, d, d)`` of the
    round-end states, as :func:`~qcollide.states.state_spectra` returns it,
    and ``times`` the round ends ``n * tau``.  ``rounds`` and ``cumulative``
    are ledgers of columns over the rounds: each round's ledger and their
    running sums.  ``species_totals`` holds each species' ledger summed over the run.
    """

    states: Spectrum
    times: np.ndarray
    rounds: CollisionLedger
    cumulative: CollisionLedger
    species_totals: dict[str, CollisionLedger]


def run_trajectory(rho0: DensityMatrix, cfgs: list[CollisionConfig], n_steps: int) -> TrajectoryRecord:
    """Run repeated collisions against fresh, identically prepared ancillae.

    One species collides as configured.  ``m`` species are interleaved
    round-robin in config order: each sub-collision lasts ``tau/m`` with the
    interaction rescaled by ``sqrt(m)``, so one recorded step is a full round
    of duration ``tau`` and cumulative columns compare directly with the
    additive continuous-time generator.  The record is that of one stroke
    at a time with its ledgers summed in stroke order, up to round-off.  A
    failing gate raises at the first failing stroke, found by
    :func:`~qcollide.states.first_failure` in the run's own strokes.
    """
    subs = _round_configs(rho0, cfgs, n_steps)
    # Allocated before any product, so that numpy refusing a run too long for memory raises at once.
    starts = np.empty((n_steps, rho0.dim**2), dtype=complex)
    rows = [np.empty((n_steps, len(sub.stroke_matrix)), dtype=complex) for sub in subs]
    # Strokes after one that leaves the state space run before the gates find it;
    # should they overflow, the gates reject them, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        _strokes(rho0, subs, starts, rows)
        systems, ancillas = first_failure(lambda k: _gates(rho0.dim, subs, rows, k), n_steps * len(subs))
        return _record(rho0, cfgs[0].ancilla.tau, subs, rows, systems, ancillas)


def _strokes(rho0, subs, starts, rows) -> None:
    """Fill each species' stroke rows ``(n_steps, len(stroke_matrix))``.

    ``starts`` takes the round starts, the :func:`~qcollide.lindblad.powers`
    of the round map ``S_m[:d^2] ... S_1[:d^2]`` built from the species'
    stroke matrices.  Species ``j`` then strokes every round at once, one
    product of its round inputs with ``S_j^T``, and the system block of its
    rows is the input of species ``j + 1``.
    """
    if len(starts):
        n_s = rho0.dim**2
        round_map = subs[0].stroke_matrix[:n_s]
        for sub in subs[1:]:
            round_map = sub.stroke_matrix[:n_s] @ round_map
        x = powers(round_map, vec(rho0.matrix), starts)
        for sub, r in zip(subs, rows):
            x = np.matmul(x, sub.stroke_matrix.T, out=r)[:, :n_s]


def _gates(dim, subs, rows, k):
    """Gate the first ``k`` strokes of a run; return the spectra of their system and ancilla outputs.

    Stroke ``i`` is species ``i % m`` in round ``i // m``.  The system
    outputs are gated as one stack in stroke order, then each species'
    ancilla outputs as one stack, with the support check where ``rho_A`` has
    a kernel.  When only the last stroke can fail, that is one stroke's
    order: its system, its ancilla, its support.
    """
    m, n_s = len(subs), dim * dim
    systems = state_spectra(unvec(np.stack([r[:, :n_s] for r in rows], axis=1).reshape(-1, n_s)[:k], dim))
    ancillas = []
    for j, (sub, r) in enumerate(zip(subs, rows)):
        spectra = state_spectra(unvec(r[: len(range(j, k, m)), n_s : n_s + sub.dim_ancilla**2], sub.dim_ancilla))
        if sub.ancilla_kernel.shape[1]:
            require_support(spectra, sub.ancilla_kernel)
        ancillas.append(spectra)
    return systems, ancillas


def _record(rho0, tau, subs, rows, systems, ancillas) -> TrajectoryRecord:
    """The record of a gated run, from each species' ledger columns over its strokes.

    Rounds add their species in config order and running sums their strokes
    in order, each from ``0.0``, as a loop of float sums would.
    """
    m, n_steps = len(subs), len(rows[0])
    s_system = shannon_entropy(systems.eigenvalues)
    # A stroke starts from the entropy of the state the previous one left; rho0's
    # is taken only when a stroke reads it.
    s_start = np.concatenate([[von_neumann_entropy(rho0)] if n_steps else [], s_system[:-1]])
    zero = np.zeros(len(fields(CollisionLedger)))
    rounds = zero
    totals = {}
    for j, (sub, r, ancilla) in enumerate(zip(subs, rows, ancillas)):
        ledgers = _ledger_columns(sub, r, s_start[j::m], s_system[j::m], shannon_entropy(ancilla.eigenvalues))
        rounds = rounds + ledgers
        totals[sub.label] = CollisionLedger(*np.add.accumulate(np.vstack([zero, ledgers]))[-1].tolist())
    return TrajectoryRecord(
        states=systems[m - 1 :: m],
        times=np.arange(1, n_steps + 1) * tau,
        rounds=CollisionLedger(*rounds.T),
        # Each round already starts from 0.0, and accumulate adds in order.
        cumulative=CollisionLedger(*np.add.accumulate(rounds).T),
        species_totals=totals,
    )


def _round_configs(rho0: DensityMatrix, cfgs: list[CollisionConfig], n_steps: int) -> list[CollisionConfig]:
    """Validate a run and return the sub-collision config of each species, in round order."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if not cfgs:
        raise ValueError("need at least one collision config")
    tau = cfgs[0].ancilla.tau
    dim = cfgs[0].dim_system
    labels = [cfg.label for cfg in cfgs]
    if len(set(labels)) != len(labels):
        raise ValueError("species labels must be distinct")
    for cfg in cfgs:
        if cfg.dim_system != dim:
            raise DimensionMismatchError("species disagree on the system dimension")
        if abs(cfg.ancilla.tau - tau) > 1e-15 * max(tau, 1.0):
            raise ValueError("species must share the round duration tau")
    if rho0.dim != dim:
        raise DimensionMismatchError("system state dimension differs from config")
    return [cfg.subdivided(len(cfgs)) for cfg in cfgs]
