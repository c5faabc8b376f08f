"""Property tests for the collision stroke built from per-config maps.

The reference throughout is the explicit joint-state route: form
``U (rho_S x rho_A) U^dag`` and take partial traces, evaluate the
incoherent heat through the thermal dissipator and the coherent work through
the commutator with the coherent generator, and take the entropic entries
from the joint and reduced states.  Draws come from the seeded
random-collision sampler in both branches at dimensions (2, 3).  The file
also checks ledger properties over strokes and rounds, counts the
eigensolves and Hermiticity gates that one stroke's states cost, and checks
that ``run_trajectory`` gives the record of a ``collide`` per stroke bit for
bit.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide.cli import POSITIVITY_BOUND
from qcollide.collisions import CollisionLedger, collide, run_trajectory
from qcollide.lindblad import coherent_generator, vec
from qcollide.linalg import commutator, dag, kron, max_abs, partial_trace
from qcollide.presets import maximally_mixed, qubit_collision, qutrit_ancilla_collision, random_collision
from qcollide.rng import SplitMix64
from qcollide import linalg, states
from qcollide.states import (
    DensityMatrix,
    coherence_in_basis,
    free_energy,
    relative_entropy,
    von_neumann_entropy,
)
from qcollide.verify import generator_for
from reference import (
    ENGINE_ORACLE_TOL,
    dissipator_apply,
    mutual_information,
    record_deviations,
    stroke_by_stroke_trajectory,
)

TOL = 1e-12

seeds = st.integers(min_value=0, max_value=2**64 - 1)
stroke_settings = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def explicit_maps(cfg):
    """Both stroke maps built column by column from the joint state of each matrix unit."""
    d_s, d_a = cfg.dim_system, cfg.dim_ancilla
    u, rho_a = cfg.unitary, cfg.ancilla_state.matrix
    system_map = np.empty((d_s * d_s, d_s * d_s), dtype=complex)
    ancilla_map = np.empty((d_a * d_a, d_s * d_s), dtype=complex)
    for k in range(d_s * d_s):
        unit = np.zeros((d_s, d_s), dtype=complex)
        unit[k % d_s, k // d_s] = 1.0
        joint = u @ kron(unit, rho_a) @ dag(u)
        system_map[:, k] = vec(partial_trace(joint, d_s, d_a, "system"))
        ancilla_map[:, k] = vec(partial_trace(joint, d_s, d_a, "ancilla"))
    return system_map, ancilla_map


def draw(seed, eigenoperator):
    return random_collision(SplitMix64(seed), eigenoperator=eigenoperator)


def joint_state_ledger(rho, cfg):
    """The stroke ledger from the joint state ``U (rho_S x rho_A) U^dag`` and its partial traces."""
    d_s, d_a = cfg.dim_system, cfg.dim_ancilla
    u, rho_a, spec = cfg.unitary, cfg.ancilla_state, cfg.ancilla
    joint = DensityMatrix(u @ kron(rho.matrix, rho_a.matrix) @ dag(u))
    rho_s_after = DensityMatrix(partial_trace(joint.matrix, d_s, d_a, "system"))
    rho_a_after = DensityMatrix(partial_trace(joint.matrix, d_s, d_a, "ancilla"))
    h_s = cfg.h_system
    d_energy = rho_s_after.expectation(h_s) - rho.expectation(h_s)
    heat_ancilla = rho_a_after.expectation(spec.h_ancilla) - rho_a.expectation(spec.h_ancilla)
    g = coherent_generator(cfg.v_interaction, spec.chi, d_s, d_a)
    work_rate = (1j * spec.lam * np.trace(commutator(g, h_s) @ rho.matrix)).real
    dissipated = dissipator_apply(cfg.v_interaction, rho.matrix, spec.thermal.matrix, d_s, d_a)
    mutual = mutual_information(joint, d_s, d_a)
    rel_ancilla = relative_entropy(rho_a_after, rho_a)
    return CollisionLedger(
        d_energy=d_energy,
        heat_ancilla=heat_ancilla,
        work=d_energy + heat_ancilla,
        coherent_work=spec.tau * work_rate,
        incoherent_heat=spec.tau * np.trace(h_s @ dissipated).real,
        entropy_production=mutual + rel_ancilla,
        mutual_info=mutual,
        rel_entropy_ancilla=rel_ancilla,
        coherence_before=coherence_in_basis(rho_a, spec.basis),
        coherence_after=coherence_in_basis(rho_a_after, spec.basis),
        d_free_energy=free_energy(rho_s_after, h_s, spec.beta) - free_energy(rho, h_s, spec.beta),
    )


@stroke_settings
@given(seeds, st.booleans())
def test_stroke_maps_match_joint_state_route(seed, eigenoperator):
    _, cfg = draw(seed, eigenoperator)
    system_map, ancilla_map = explicit_maps(cfg)
    assert max_abs(cfg.system_map - system_map) <= TOL
    assert max_abs(cfg.ancilla_map - ancilla_map) <= TOL


@stroke_settings
@given(seeds, st.booleans())
def test_ledger_operators_match_dissipator_and_commutator(seed, eigenoperator):
    rho, cfg = draw(seed, eigenoperator)
    dissipated = dissipator_apply(
        cfg.v_interaction, rho.matrix, cfg.ancilla.thermal.matrix, cfg.dim_system, cfg.dim_ancilla
    )
    heat_rate = np.trace(cfg.h_system @ dissipated).real
    assert abs(np.trace(cfg.heat_operator @ rho.matrix).real - heat_rate) <= TOL
    g = coherent_generator(cfg.v_interaction, cfg.ancilla.chi, cfg.dim_system, cfg.dim_ancilla)
    work_trace = np.trace(commutator(g, cfg.h_system) @ rho.matrix)
    assert abs(np.trace(cfg.work_operator @ rho.matrix) - work_trace) <= TOL


@stroke_settings
@given(seeds, st.booleans())
def test_ledger_matches_joint_state_route(seed, eigenoperator):
    rho, cfg = draw(seed, eigenoperator)
    ledger = collide(rho, cfg).ledger
    reference = joint_state_ledger(rho, cfg)
    for f in fields(ledger):
        assert abs(getattr(ledger, f.name) - getattr(reference, f.name)) <= TOL, f.name


@stroke_settings
@given(seeds, st.booleans())
def test_stroke_outputs_are_states(seed, eigenoperator):
    rho, cfg = draw(seed, eigenoperator)
    out = collide(rho, cfg)
    for state in (out.system, out.ancilla):
        assert abs(np.trace(state.matrix).real - 1.0) <= TOL
        assert state.eigenvalues[0] >= -TOL
    if eigenoperator:
        assert abs(out.ledger.work) <= TOL


@stroke_settings
@given(seeds, st.booleans())
def test_memoized_entropy_matches_fresh_spectrum(seed, eigenoperator):
    rho, cfg = draw(seed, eigenoperator)
    out = collide(rho, cfg)
    for state in (rho, out.system, out.ancilla, cfg.ancilla_state):
        p = np.linalg.eigvalsh(state.matrix)
        p = p[p > 0.0]
        fresh = float(-(p * np.log(p)).sum())
        assert abs(von_neumann_entropy(state) - fresh) <= TOL


def test_entropy_is_computed_once_per_state(monkeypatch):
    calls = []
    original = states.shannon_entropy

    def counting(probs):
        calls.append(1)
        return original(probs)

    monkeypatch.setattr(states, "shannon_entropy", counting)
    rho, cfg = draw(5, False)
    out = collide(rho, cfg)
    calls.clear()
    for state in (rho, out.system, out.ancilla, cfg.ancilla_state):
        first = von_neumann_entropy(state)
        assert state._entropy == first
        assert von_neumann_entropy(state) == first
    assert calls == []


@stroke_settings
@given(seeds, st.booleans())
def test_stroke_entropy_production_is_nonnegative(seed, eigenoperator):
    rho, cfg = draw(seed, eigenoperator)
    assert collide(rho, cfg).ledger.entropy_production >= POSITIVITY_BOUND


@stroke_settings
@given(
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=0.0, max_value=0.15),
    st.floats(min_value=1e-3, max_value=1e-2),
)
def test_round_robin_ledger_is_additive(beta_a, beta_b, lam, tau):
    cfgs = [
        qubit_collision(beta=beta_a, lam=lam, tau=tau, label="A"),
        qutrit_ancilla_collision(beta=beta_b, lam=lam, tau=tau, label="B"),
    ]
    rho0 = maximally_mixed(2)
    record = run_trajectory(rho0, cfgs, 5)
    total = record.cumulative
    a, b = record.species_totals["A"], record.species_totals["B"]
    for f in fields(total):
        assert abs(getattr(a, f.name) + getattr(b, f.name) - getattr(total, f.name)[-1]) <= TOL
    h_s = cfgs[0].h_system
    d_energy = np.trace(h_s @ record.states.matrix[-1]).real - rho0.expectation(h_s)
    assert abs(total.d_energy[-1] - d_energy) <= TOL


def assert_round_states_match_trajectory(rho0, cfgs, n_steps):
    record = run_trajectory(rho0, cfgs, n_steps)
    assert record.states.matrix.shape == (n_steps, rho0.dim, rho0.dim)
    deviations = record_deviations(record, stroke_by_stroke_trajectory(rho0, cfgs, n_steps))
    assert max(deviations.values()) <= ENGINE_ORACLE_TOL


@stroke_settings
@given(seeds, st.booleans(), st.integers(min_value=0, max_value=12))
def test_round_states_match_trajectory_single(seed, eigenoperator, n_steps):
    rho, cfg = draw(seed, eigenoperator)
    assert_round_states_match_trajectory(rho, [cfg], n_steps)


@stroke_settings
@given(
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=0.0, max_value=0.3),
    st.floats(min_value=1e-3, max_value=4e-2),
    st.integers(min_value=0, max_value=12),
)
def test_round_states_match_trajectory_round_robin(beta_a, beta_b, lam, tau, n_steps):
    cfgs = [
        qubit_collision(beta=beta_a, lam=lam, tau=tau, label="A"),
        qutrit_ancilla_collision(g=0.8, beta=beta_b, lam=lam, tau=tau, label="B"),
    ]
    assert_round_states_match_trajectory(maximally_mixed(2), cfgs, n_steps)


def test_ancilla_hamiltonian_is_diagonalized_once(monkeypatch):
    inputs = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        inputs.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    cfg = qutrit_ancilla_collision()
    collide(maximally_mixed(cfg.dim_system), cfg)
    generator_for([cfg])
    h_a = cfg.ancilla.h_ancilla
    assert sum(a.shape == h_a.shape and np.array_equal(a, h_a) for a in inputs) == 1


def test_density_matrix_gates_once(monkeypatch):
    calls = []
    gate = linalg.require_hermitian

    def counting(*args, **kwargs):
        calls.append(1)
        return gate(*args, **kwargs)

    monkeypatch.setattr(linalg, "require_hermitian", counting)
    monkeypatch.setattr(states, "require_hermitian", counting)
    states.DensityMatrix(np.array([[0.6, 0.1j], [-0.1j, 0.4]]))
    assert len(calls) == 1
