"""Input checks of the verification studies."""

import math
import os

import numpy as np
import pytest

from qcollide import verify
from qcollide.collisions import run_trajectory
from qcollide.errors import PositivityLostError
from qcollide.lindblad import integrate, rk4_propagator, unvec, vec
from qcollide.presets import (
    DEFAULT_BETA,
    maximally_mixed,
    qubit_collision,
    qutrit_ancilla_collision,
    three_level_collision,
)
from qcollide.states import trace_distance
from qcollide.verify import (
    DEFAULT_DT_TARGET,
    generator_for,
    random_collision_suite,
    rk4_round_states,
    stroboscopic_deviation,
)


def test_deviation_needs_a_species():
    with pytest.raises(ValueError, match="^need at least one collision config$"):
        stroboscopic_deviation(lambda tau: [], (1e-2,), t_final=0.1)


def reference_substeps(gen, tau):
    """RK4 steps per round of the study's reference grid."""
    return max(1, math.ceil(tau / min(DEFAULT_DT_TARGET, 0.09 / gen.norm)))


def test_deviation_starts_from_the_maximally_mixed_state_of_the_species():
    # a qutrit system: the start state is maximally_mixed(3), not the qubit one
    taus, t_final = (2e-3, 1e-3), 4e-3
    want = []
    for tau in taus:
        cfgs = [three_level_collision(tau)]
        n_rounds = round(t_final / tau)
        strobes = run_trajectory(maximally_mixed(3), cfgs, n_rounds).states
        reference = rk4_round_states(generator_for(cfgs), maximally_mixed(3), tau, n_rounds)
        want.append((tau, float(trace_distance(strobes.matrix, reference.matrix).max())))
    assert stroboscopic_deviation(lambda tau: [three_level_collision(tau)], taus, t_final) == want


SWEEP = (4e-2, 1e-2, 2.5e-3)
# The species of the converge and multibath scenarios, as bundled.
SPECIES = {
    "converge": lambda tau: [qutrit_ancilla_collision(lam=0.3, tau=tau)],
    "multibath": lambda tau: [
        qubit_collision(lam=0.3, tau=tau, label="A"),
        qutrit_ancilla_collision(g=0.8, beta=0.5 * DEFAULT_BETA, lam=0.25, tau=tau, label="B"),
    ],
}
# Max |entry| between the round-map states and integrate's steps at round ends:
# both are the same RK4 flow, multiplied out in another order.
ROUND_MAP_TOL = 1e-13


@pytest.mark.parametrize("species", list(SPECIES))
@pytest.mark.parametrize("tau", SWEEP)
def test_round_map_states_are_the_integrated_states_at_round_ends(species, tau):
    cfgs = SPECIES[species](tau)
    gen, rho0 = generator_for(cfgs), maximally_mixed(cfgs[0].dim_system)
    n_rounds, substeps = round(2.0 / tau), reference_substeps(gen, tau)
    _, steps = integrate(gen, rho0, n_rounds * tau, tau / substeps)
    rounds = rk4_round_states(gen, rho0, tau, n_rounds)
    assert rounds.matrix.shape == (n_rounds, *rho0.matrix.shape)
    assert np.abs(rounds.matrix - steps.matrix[substeps - 1 :: substeps]).max() <= ROUND_MAP_TOL


@pytest.mark.parametrize("n_rounds", [1, 2, 3, 7, 8, 9])
def test_round_map_states_are_the_round_map_applied_in_turn(n_rounds):
    cfgs = SPECIES["multibath"](4e-2)
    gen, rho0 = generator_for(cfgs), maximally_mixed(2)
    substeps = reference_substeps(gen, 4e-2)
    round_map = np.linalg.matrix_power(rk4_propagator(gen.matrix, 4e-2 / substeps), substeps)
    state, want = vec(rho0.matrix), []
    for _ in range(n_rounds):
        state = round_map @ state
        want.append(unvec(state, 2))
    got = rk4_round_states(gen, rho0, 4e-2, n_rounds).matrix
    assert got.shape == (n_rounds, 2, 2)
    assert np.abs(got - np.array(want)).max() <= ROUND_MAP_TOL


def test_a_round_map_state_off_the_cone_names_its_round(monkeypatch):
    gen = generator_for(SPECIES["multibath"](4e-2))
    real = verify.rk4_propagator
    # The flow run backwards leaves the cone of states: first at round 18 of 60.
    monkeypatch.setattr(verify, "rk4_propagator", lambda l_matrix, h: real(l_matrix, -h))
    with pytest.raises(PositivityLostError, match=r"^state left the positive cone at t=0\.72: "):
        rk4_round_states(gen, maximally_mixed(2), 4e-2, 60)


def two_species(tau):
    return [
        qubit_collision(lam=0.3, tau=tau, label="A"),
        qutrit_ancilla_collision(g=0.8, beta=0.5, lam=0.25, tau=tau, label="B"),
    ]


# Rounds 8, 4, 2 over t_final 0.08.
SWEEP_TAUS = (1e-2, 2e-2, 4e-2)


def test_the_study_starts_no_process(monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse, raising=False)
    deviations = stroboscopic_deviation(two_species, SWEEP_TAUS, t_final=0.08)
    assert [tau for tau, _ in deviations] == list(SWEEP_TAUS)


# The tau of a stage's call: the strokes take the configs, the reference takes tau.
TAU_OF = {"run_trajectory": lambda args: args[1][0].ancilla.tau, "rk4_round_states": lambda args: args[2]}


def fail_at(monkeypatch, name, index, exc_type):
    """Make ``verify.<name>`` raise at ``SWEEP_TAUS[index]``."""
    real = getattr(verify, name)

    def failing(*args):
        if TAU_OF[name](args) == SWEEP_TAUS[index]:
            raise exc_type(f"{name} failed at tau index {index}")
        return real(*args)

    monkeypatch.setattr(verify, name, failing)


@pytest.mark.parametrize(
    "build_at, stroke_at, reference_at, winner",
    [
        (None, 1, 0, "rk4_round_states"),
        (None, 0, 0, "run_trajectory"),
        (None, 1, 1, "run_trajectory"),
        (None, 0, 1, "run_trajectory"),
        (1, 0, None, "run_trajectory"),
        (1, None, 0, "rk4_round_states"),
        (1, 1, 1, "build"),
        (0, 0, 0, "build"),
        (2, 2, 1, "rk4_round_states"),
    ],
)
def test_the_first_failing_tau_raises_in_stage_order(monkeypatch, build_at, stroke_at, reference_at, winner):
    errors = {"build": NameError, "run_trajectory": ArithmeticError, "rk4_round_states": LookupError}
    for name, index in (("run_trajectory", stroke_at), ("rk4_round_states", reference_at)):
        if index is not None:
            fail_at(monkeypatch, name, index, errors[name])

    def build(tau):
        if build_at is not None and tau == SWEEP_TAUS[build_at]:
            raise errors["build"](f"build failed at tau index {build_at}")
        return two_species(tau)

    with pytest.raises(Exception, match=f"^{winner} failed") as caught:
        stroboscopic_deviation(build, SWEEP_TAUS, t_final=0.08)
    assert type(caught.value) is errors[winner]


@pytest.mark.parametrize("count", [0, -3])
def test_suite_needs_a_sample(monkeypatch, count):
    def refuse(*args, **kwargs):
        raise AssertionError("drew a collision")

    monkeypatch.setattr(verify, "draw_collisions", refuse)
    with pytest.raises(ValueError, match=f"^count must be >= 1, got {count}$"):
        random_collision_suite(1, count)
