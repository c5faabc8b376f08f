"""Property tests for the closed-form generator matrices.

The reference is the column-by-column route: column ``k`` of a superoperator
matrix is the column-stacked image of the ``k``-th matrix unit under the map
written out in operator form (a commutator plus ``reference.dissipator_apply``
for the thermal dissipators, ``J rho J^dag - {J^dag J, rho}/2`` for the jump
dissipators).  Draws come from the seeded random-collision sampler in both
branches; the file also checks the steady state of drawn two-bath generators
and the sub-collision rescaling of round-robin runs.  The RK4 propagator
is checked against stage-by-stage :func:`rk4_step`, and every
:class:`RateLedger` field against the same operator-form maps.
"""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from qcollide.collisions import run_trajectory
from qcollide.lindblad import (
    STEADY_STATE_RESIDUAL_TOL,
    EigenoperatorCoupling,
    eigenoperator_dissipator,
    integrate,
    rates,
    rk4_propagator,
    rk4_step,
    steady_state,
    vec,
)
from qcollide.linalg import commutator, dag, max_abs
from qcollide.presets import (
    maximally_mixed,
    qubit_collision,
    qutrit_ancilla_collision,
    random_basis,
    random_collision,
    random_matrix,
)
from qcollide.rng import SplitMix64
from qcollide.verify import generator_for
from reference import dissipator_apply, random_density_matrix
from test_stroke_properties import TOL, seeds, stroke_settings


def column_by_column(apply_map, dim):
    """Matrix of a linear map on ``dim x dim`` operators, one matrix unit per column."""
    columns = np.empty((dim * dim, dim * dim), dtype=complex)
    for k in range(dim * dim):
        unit = np.zeros((dim, dim), dtype=complex)
        unit[k % dim, k // dim] = 1.0
        columns[:, k] = vec(apply_map(unit))
    return columns


def draw_species(seed, eigenoperator, count):
    """``count`` sampler configs that share the system dimension of the first draw."""
    rng = SplitMix64(seed)
    cfgs = [random_collision(rng, eigenoperator=eigenoperator)[1]]
    while len(cfgs) < count:
        _, cfg = random_collision(rng, eigenoperator=eigenoperator)
        if cfg.dim_system == cfgs[0].dim_system:
            cfgs.append(cfg)
    return cfgs


def thermal_dissipator(cfg):
    return lambda m: dissipator_apply(
        cfg.v_interaction, m, cfg.ancilla.thermal.matrix, cfg.dim_system, cfg.dim_ancilla
    )


@stroke_settings
@given(seeds, st.booleans(), st.integers(min_value=1, max_value=2))
def test_generator_matches_column_by_column(seed, eigenoperator, count):
    cfgs = draw_species(seed, eigenoperator, count)
    gen = generator_for(cfgs)
    dim = gen.dim
    maps = [thermal_dissipator(cfg) for cfg in cfgs]
    for term, d in zip(gen.species, maps):
        assert max_abs(term.dissipator - column_by_column(d, dim)) <= TOL
    reference = column_by_column(
        lambda m: -1j * commutator(gen.h_eff, m) + sum(d(m) for d in maps), dim
    )
    assert max_abs(gen.matrix - reference) <= TOL


@stroke_settings
@given(seeds)
def test_eigenoperator_dissipator_matches_column_by_column(seed):
    # Unit-size ancilla lowering operators on a random harmonic ladder; the
    # system side is any matrix, since no system Hamiltonian is passed to validate.
    rng = SplitMix64(seed)
    dim_system, dim_ancilla = 2 + rng.next_below(2), 2 + rng.next_below(2)
    spacing = rng.uniform(0.6, 1.8)
    basis = random_basis(rng, dim_ancilla)
    h_ancilla = (basis * (spacing * np.arange(dim_ancilla))) @ dag(basis)
    couplings = []
    for step in range(1, dim_ancilla):
        lowering = sum(
            rng.complex_normal() * np.outer(basis[:, i], basis[:, i + step].conj())
            for i in range(dim_ancilla - step)
        )
        jump = random_matrix(rng, dim_system)
        amplitude = rng.uniform(0.3, 1.0) * np.exp(2j * math.pi * rng.uniform())
        couplings.append(
            EigenoperatorCoupling(jump / max_abs(jump), lowering / max_abs(lowering), step * spacing, amplitude)
        )
    jump_rates, matrix = eigenoperator_dissipator(couplings, h_ancilla, rng.uniform(0.2, 2.5))

    def apply_map(rho):
        out = np.zeros_like(rho)
        for c, r in zip(couplings, jump_rates):
            for rate, jump in ((r.gamma_minus, c.lowering_system), (r.gamma_plus, dag(c.lowering_system))):
                jj = dag(jump) @ jump
                out += rate * (jump @ rho @ dag(jump) - 0.5 * (jj @ rho + rho @ jj))
        return out

    reference = column_by_column(apply_map, dim_system)
    assert max_abs(matrix - reference) <= TOL


@stroke_settings
@given(
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=0.3, max_value=1.5),
    st.floats(min_value=0.3, max_value=1.5),
    st.floats(min_value=0.0, max_value=0.3),
)
def test_two_bath_steady_state_is_stationary(beta_a, beta_b, g_a, g_b, lam):
    gen = generator_for([
        qubit_collision(g=g_a, beta=beta_a, lam=lam, label="A"),
        qutrit_ancilla_collision(g=g_b, beta=beta_b, lam=lam, label="B"),
    ])
    rho = steady_state(gen)
    assert max_abs(gen.apply(rho.matrix)) <= STEADY_STATE_RESIDUAL_TOL
    assert abs(np.trace(rho.matrix) - 1.0) <= TOL


@stroke_settings
@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.0, max_value=0.3),
    st.floats(min_value=1e-3, max_value=1e-2),
)
def test_subdivided_keeps_coherence_amplitude_and_round(parts, lam, tau):
    cfg = qutrit_ancilla_collision(lam=lam, tau=tau)
    assert cfg.subdivided(1) is cfg
    sub = cfg.subdivided(parts)
    amplitude = cfg.ancilla.lam * math.sqrt(tau)
    assert abs(sub.ancilla.lam * math.sqrt(sub.ancilla.tau) - amplitude) <= TOL * max(1.0, amplitude)
    assert abs(parts * sub.ancilla.tau - tau) <= TOL * tau
    species = [qutrit_ancilla_collision(lam=lam, tau=tau, label=f"S{k}") for k in range(parts)]
    record = run_trajectory(maximally_mixed(2), species, 1)
    assert record.steps[0].time == tau


@stroke_settings
@given(seeds, st.booleans(), st.integers(min_value=1, max_value=2), st.floats(min_value=0.05, max_value=1.0))
def test_rk4_propagator_matches_rk4_step(seed, eigenoperator, count, fraction):
    gen = generator_for(draw_species(seed, eigenoperator, count))
    h = fraction * 0.1 / gen.norm
    rng = SplitMix64(seed ^ 0x5EED)
    for v in (vec(random_density_matrix(rng, gen.dim).matrix), vec(random_matrix(rng, gen.dim))):
        assert max_abs(rk4_propagator(gen.matrix, h) @ v - rk4_step(gen.matrix, v, h)) <= 1e-13


@stroke_settings
@given(seeds, st.booleans(), st.integers(min_value=1, max_value=2))
def test_integrate_takes_its_remainder_step_with_its_own_propagator(seed, eigenoperator, count):
    gen = generator_for(draw_species(seed, eigenoperator, count))
    assume(gen.norm <= 10.0)  # dt = 0.01 must pass the step-size gate
    rho = random_density_matrix(SplitMix64(seed ^ 0x5EED), gen.dim)
    trajectory = integrate(gen, rho, 0.105, 0.01)
    assert len(trajectory) - 1 == 11
    t, last = trajectory[-1]
    assert abs(t - 0.105) <= TOL
    state = vec(rho.matrix)
    for h in [0.01] * 10 + [0.105 - 10 * 0.01]:
        state = rk4_step(gen.matrix, state, h)
    assert max_abs(vec(last.matrix) - state) <= 1e-13


def operator_form_rates(cfgs, gen, rho):
    """Every :class:`RateLedger` field from the operator-form maps at ``rho``."""
    h_s, m = cfgs[0].h_system, rho.matrix
    images = [thermal_dissipator(cfg)(m) for cfg in cfgs]
    flow = -1j * commutator(gen.h_eff, m) + sum(images)
    heat = [np.trace(h_s @ image).real for image in images]
    work = [
        (1j * term.lam * np.trace(commutator(term.coherent_op, h_s) @ m)).real
        for term in gen.species
    ]
    p, v = np.linalg.eigh(m)
    entropy_rate = -np.trace(flow @ (v * np.log(p)) @ dag(v)).real
    return {
        "energy_rate": np.trace(h_s @ flow).real,
        "coherent_work_rates": work,
        "incoherent_heat_rates": heat,
        "entropy_rate": entropy_rate,
        "entropy_production_rate": entropy_rate - sum(t.beta * q for t, q in zip(gen.species, heat)),
    }


@stroke_settings
@given(seeds, st.booleans(), st.integers(min_value=1, max_value=2))
def test_rates_match_operator_form(seed, eigenoperator, count):
    cfgs = draw_species(seed, eigenoperator, count)
    gen = generator_for(cfgs)
    rho = random_density_matrix(SplitMix64(seed ^ 0x5EED), gen.dim)
    ledger = rates(gen, rho)
    for name, want in operator_form_rates(cfgs, gen, rho).items():
        got = getattr(ledger, name)
        assert np.shape(got) == np.shape(want), name
        assert max_abs(np.subtract(got, want)) <= 1e-12 * max(1.0, max_abs(np.asarray(want))), name
