import copy
import math
import re
import time
import warnings
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest

from qcollide import collisions
from qcollide.collisions import (
    CollisionConfig,
    build_unitary,
    run_trajectory,
)
from qcollide.errors import DimensionMismatchError, NotPositiveError, SupportViolationError
from qcollide.lindblad import unvec, vec
from qcollide.linalg import commutator, dag, expm_unitary, kron, max_abs
from qcollide.presets import (
    qubit_collision,
    qubit_hamiltonian,
    maximally_mixed,
    qutrit_ancilla_collision,
    three_level_collision,
    SIGMA_X,
)
from qcollide.rng import SplitMix64
from qcollide.presets import random_collision
from qcollide.states import (
    AncillaSpec,
    DensityMatrix,
    thermal_state,
    trace_distance,
    von_neumann_entropy,
)
from qcollide.verify import IDENTITY_TAUS, entropic_identity_residuals, halving_ratios, random_collision_suite
from reference import (
    ENGINE_ORACLE_TOL,
    collide,
    mutual_information,
    raised,
    record_deviations,
    stroke_by_stroke_trajectory,
)

LN3 = math.log(3.0)


class TestCollisionConfig:
    def test_qubit_example_conserves_energy(self):
        assert qubit_collision().strict_energy_conserving

    def test_generic_interaction_does_not(self):
        cfg = qubit_collision()
        spec = cfg.ancilla
        v = kron(SIGMA_X, SIGMA_X) + 0.3 * kron(SIGMA_X, np.eye(2))
        assert not CollisionConfig(cfg.h_system, v, spec).strict_energy_conserving

    def test_three_level_fixture_conserves_energy(self):
        assert three_level_collision(1e-3).strict_energy_conserving

    def test_rejects_infinite_temperature(self):
        spec = AncillaSpec(qubit_hamiltonian(), 0.0, SIGMA_X.copy(), 0.1, 1e-2)
        with pytest.raises(ValueError):
            CollisionConfig(qubit_hamiltonian(), kron(SIGMA_X, SIGMA_X), spec)


class TestBuildUnitary:
    def test_free_evolution_factorizes(self):
        tau = 0.3
        spec = AncillaSpec(qubit_hamiltonian(0.7), LN3, SIGMA_X.copy(), 0.0, tau)
        cfg = CollisionConfig(qubit_hamiltonian(1.3), np.zeros((4, 4)), spec)
        u = build_unitary(cfg)
        want = kron(expm_unitary(qubit_hamiltonian(1.3), tau), expm_unitary(qubit_hamiltonian(0.7), tau))
        assert max_abs(u - want) <= 1e-12

    def test_unitarity_and_commutant(self):
        cfg = qubit_collision(tau=1e-2)
        u = cfg.unitary
        assert max_abs(dag(u) @ u - np.eye(4)) <= 1e-10
        assert max_abs(commutator(u, cfg.free_hamiltonian)) <= 1e-10


def one_stroke(rho, cfg):
    """``collide`` read off the shipped engine: the state and ledger of a one-stroke run."""
    record = run_trajectory(rho, [cfg], 1)
    return SimpleNamespace(system=DensityMatrix(record.states[0].matrix), ledger=record.species_totals[cfg.label])


# Each stroke test runs on the one-state oracle and on the shipped engine.
STROKES = (collide, one_stroke)


class TestCollide:
    def test_no_interaction_is_inert(self):
        # free evolution with a commuting system state and thermal ancillae
        spec = AncillaSpec(qubit_hamiltonian(), LN3, SIGMA_X.copy(), 0.0, 1e-2)
        cfg = CollisionConfig(qubit_hamiltonian(), np.zeros((4, 4)), spec)
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        for stroke in STROKES:
            out = stroke(rho, cfg)
            assert max_abs(out.system.matrix - rho.matrix) <= 1e-12
            for name in (
                "d_energy", "heat_ancilla", "work", "coherent_work", "incoherent_heat",
                "entropy_production", "mutual_info", "rel_entropy_ancilla", "d_free_energy",
            ):
                assert abs(getattr(out.ledger, name)) <= 1e-12

    def test_global_gibbs_fixed_point(self):
        cfg = qubit_collision(lam=0.0, tau=5e-2)
        rho = thermal_state(cfg.h_system, LN3)
        for stroke in STROKES:
            out = stroke(rho, cfg)
            assert abs(out.ledger.heat_ancilla) <= 1e-9
            assert abs(out.ledger.entropy_production) <= 1e-9
            assert trace_distance(out.system, rho) <= 1e-12

    def test_ledger_decomposition(self):
        for stroke in STROKES:
            led = stroke(maximally_mixed(2), qubit_collision(tau=1e-2)).ledger
            assert led.entropy_production == led.mutual_info + led.rel_entropy_ancilla
            assert led.work == led.d_energy + led.heat_ancilla

    def test_joint_entropy_is_unitary_invariant(self):
        cfg = qubit_collision(tau=2e-2)
        rho = DensityMatrix(np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]]))
        u = cfg.unitary
        joint = DensityMatrix(u @ kron(rho.matrix, cfg.ancilla_state.matrix) @ dag(u))
        before = von_neumann_entropy(rho) + von_neumann_entropy(cfg.ancilla_state)
        assert abs(von_neumann_entropy(joint) - before) <= 1e-9
        for stroke in STROKES:
            # the ledger's correlation entry is the joint-state mutual information
            assert abs(mutual_information(joint, 2, 2) - stroke(rho, cfg).ledger.mutual_info) <= 1e-12

    def test_qubit_ledger_within_half_order_envelope(self):
        # finite-duration ledger agrees with the leading-order identities
        tau = 1e-3
        cfg = qubit_collision(tau=tau, lam=0.3)
        beta = cfg.ancilla.beta
        envelope = tau**1.5
        for stroke in STROKES:
            led = stroke(DensityMatrix(0.5 * np.eye(2)), cfg).ledger
            d_coherence = led.coherence_after - led.coherence_before
            assert abs(led.d_energy - (led.coherent_work + led.incoherent_heat)) <= envelope
            assert abs(led.mutual_info - (-beta * led.d_free_energy - d_coherence)) <= envelope
            assert abs(led.rel_entropy_ancilla - (beta * led.coherent_work + d_coherence)) <= envelope
            assert abs(led.entropy_production - beta * (led.coherent_work - led.d_free_energy)) <= envelope

    def test_ancilla_kernel_gates_the_stroke(self):
        # At beta = 40 the thermal ancilla's excited population is 4e-18, so
        # rho_A has a kernel and the support check of rho_A' runs every stroke.
        cfg = qubit_collision(beta=40.0, lam=0.0)
        assert cfg.ancilla_state.eigenvalues[0] < 1e-17
        for stroke in STROKES:
            with pytest.raises(SupportViolationError):
                stroke(DensityMatrix(np.diag([1.0, 0.0])), cfg)
            led = stroke(DensityMatrix(np.diag([0.0, 1.0])), cfg).ledger
            assert math.isfinite(led.rel_entropy_ancilla)


def _rephase_sampler_eigenvectors(monkeypatch):
    """Make the sampler's eigensolver return every eigenvector with a new phase."""
    import qcollide.presets as presets

    plain = presets.hermitian_eig

    def rephased(m, **kwargs):
        spectrum = plain(m, **kwargs)
        phases = np.exp(1j * (0.7 + 1.3 * np.arange(spectrum.dim)))
        return type(spectrum)(spectrum.eigenvalues, spectrum.eigenvectors * phases, spectrum.matrix)

    monkeypatch.setattr(presets, "hermitian_eig", rephased)


def test_overflowing_stroke_matrix_is_rejected_without_warnings():
    # V^2 overflows at g = 1e300, so the heat row would hold inf and NaN.
    cfg = qubit_collision(g=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^stroke matrix of species 'A' has non-finite entries$"):
            cfg.stroke_matrix


class TestRandomCollisionSampler:
    @pytest.mark.parametrize("seed", [1, 7, 2026])
    def test_draw_is_independent_of_eigenvector_phases(self, seed, monkeypatch):
        _, reference = random_collision(SplitMix64(seed), eigenoperator=True)
        _rephase_sampler_eigenvectors(monkeypatch)
        _, cfg = random_collision(SplitMix64(seed), eigenoperator=True)
        assert cfg.ancilla.chi.tobytes() == reference.ancilla.chi.tobytes()
        assert cfg.v_interaction.tobytes() == reference.v_interaction.tobytes()
        assert cfg.ancilla.lam == reference.ancilla.lam


class TestGenericRandomCollisionSampler:
    @pytest.mark.parametrize("seed", [1, 3, 7, 2026])
    def test_draw_is_independent_of_eigenvector_phases(self, seed, monkeypatch):
        # Rephasing and then canonicalizing the H_A basis can move the last bit.
        _, reference = random_collision(SplitMix64(seed), eigenoperator=False)
        _rephase_sampler_eigenvectors(monkeypatch)
        _, cfg = random_collision(SplitMix64(seed), eigenoperator=False)
        assert max_abs(cfg.ancilla.chi - reference.ancilla.chi) <= 1e-12
        assert max_abs(cfg.v_interaction - reference.v_interaction) <= 1e-12
        assert abs(cfg.ancilla.lam - reference.ancilla.lam) <= 1e-12 * reference.ancilla.lam


class TestRandomizedPositivity:
    def test_exact_inequalities_hold(self):
        # generic Hermitian interactions, shifted to zero thermal first moment;
        # sample k is collide(*random_collision(rng)) for the k-th draw of the seed
        start = time.perf_counter()
        samples = random_collision_suite(20260810, 1000, eigenoperator=False)
        assert samples.entropy_production.min() >= -1e-9
        assert samples.mutual_info.min() >= -1e-9
        assert samples.rel_entropy_ancilla.min() >= -1e-9
        assert time.perf_counter() - start < 60.0

    def test_stroke_inequalities_on_generic_draws(self):
        # the one-sample stroke itself, on the first draws of the same seed
        rng = SplitMix64(20260810)
        for _ in range(40):
            rho, cfg = random_collision(rng, eigenoperator=False)
            for stroke in STROKES:
                led = stroke(rho, cfg).ledger
                assert led.entropy_production >= -1e-9
                assert led.mutual_info >= -1e-9
                assert led.rel_entropy_ancilla >= -1e-9


@pytest.fixture(scope="module")
def residuals():
    return entropic_identity_residuals()


class TestPerturbativeScaling:
    def test_first_law_half_order(self, residuals):
        for ratio in halving_ratios(residuals.first_law):
            assert 2.4 <= ratio <= 3.2

    def test_entropy_production_half_order_envelope(self, residuals):
        # The entropy-production defect decays at least as fast as tau^1.5;
        # an exact cancellation makes it second order here, so only the lower
        # edge of the generic window applies.
        for ratio in halving_ratios(residuals.entropy_production):
            assert ratio >= 2.4
        envelope = 3.0 * max(r / t**1.5 for r, t in zip(residuals.entropy_production, IDENTITY_TAUS))
        for r, t in zip(residuals.entropy_production, IDENTITY_TAUS):
            assert r <= envelope * t**1.5


class TestRunTrajectory:
    def test_empty_run(self):
        record = run_trajectory(maximally_mixed(2), [qubit_collision()], 0)
        assert record.states.matrix.shape == (0, 2, 2)
        assert record.times.shape == record.rounds.work.shape == record.cumulative.work.shape == (0,)

    def test_times_and_prefix_sums(self):
        cfg = qubit_collision(tau=1e-2)
        record = run_trajectory(maximally_mixed(2), [cfg], 25)
        assert np.allclose(np.diff(record.times), 1e-2)
        for name in ("entropy_production", "d_energy"):
            totals = list(accumulate(getattr(record.rounds, name).tolist()))
            assert np.abs(np.array(totals) - getattr(record.cumulative, name)).max() <= 1e-12
        assert abs(record.species_totals["A"].d_energy - record.cumulative.d_energy[-1]) <= 1e-12

    def test_relaxation_to_thermal(self):
        # thermal ancillae make the Gibbs state of H_S the exact fixed point
        cfg = qubit_collision(lam=0.0, tau=5e-2)
        record = run_trajectory(DensityMatrix(np.diag([0.9, 0.1])), [cfg], 400)
        target = thermal_state(cfg.h_system, LN3)
        assert trace_distance(record.states.matrix[-1], target.matrix) <= 1e-6

    def test_two_bath_heat_flow(self):
        # hot species feeds energy in, cold species takes it out, entropy grows
        hot = qubit_collision(beta=0.4, lam=0.0, tau=2e-2, label="hot")
        cold = qubit_collision(beta=2.2, g=0.8, lam=0.0, tau=2e-2, label="cold")
        record = run_trajectory(maximally_mixed(2), [hot, cold], 600)
        tail = record.species_totals
        assert tail["hot"].heat_ancilla < 0.0  # hot ancillae lose energy
        assert tail["cold"].heat_ancilla > 0.0
        assert record.cumulative.entropy_production[-1] >= -1e-9


def count_calls(monkeypatch, module, name):
    """Record the first argument of every call of ``module.<name>``, which still runs."""
    real = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def corrupt_strokes(monkeypatch, label, system_factor, ancilla_factor):
    """Scale the system and ancilla rows of the stroke matrix that species ``label`` strokes.

    A run of ``m`` species strokes ``cfg.subdivided(m)``, which is ``cfg``
    itself only for ``m = 1``, so the scaling is patched in there, on a copy
    of each sub-config: every run, of any number of species, strokes the
    scaled rows, and strokes them scaled once.
    """
    real = CollisionConfig.subdivided

    def subdivided(cfg, parts):
        sub = real(cfg, parts)
        if cfg.label != label:
            return sub
        sub = copy.copy(sub)
        n_s, n_a = sub.dim_system**2, sub.dim_ancilla**2
        corrupted = sub.stroke_matrix.copy()
        corrupted[:n_s] *= system_factor
        corrupted[n_s : n_s + n_a] *= ancilla_factor
        sub.__dict__["stroke_matrix"] = corrupted
        return sub

    monkeypatch.setattr(CollisionConfig, "subdivided", subdivided)


BAD_RUNS = {
    "negative n_steps": (lambda: ([qubit_collision()], -1), ValueError, "n_steps must be >= 0"),
    "no species": (lambda: ([], 1), ValueError, "need at least one collision config"),
    "repeated label": (
        lambda: ([qubit_collision(), qubit_collision()], 1),
        ValueError,
        "species labels must be distinct",
    ),
    "system dimensions differ": (
        lambda: ([qubit_collision(), three_level_collision(1e-2, label="B")], 1),
        DimensionMismatchError,
        "species disagree on the system dimension",
    ),
    "taus differ": (
        lambda: ([qubit_collision(tau=1e-2), qubit_collision(tau=2e-2, label="B")], 1),
        ValueError,
        "species must share the round duration tau",
    ),
}

RUNS = [run_trajectory]


class TestStroboscopicStates:
    @pytest.mark.parametrize("run", RUNS)
    @pytest.mark.parametrize("case", sorted(BAD_RUNS))
    def test_schedule_validation(self, run, case):
        make, error, message = BAD_RUNS[case]
        cfgs, n_steps = make()
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run(maximally_mixed(2), cfgs, n_steps)

    @pytest.mark.parametrize("run", RUNS)
    def test_state_dimension_must_match(self, run):
        with pytest.raises(DimensionMismatchError, match="^system state dimension differs from config$"):
            run(maximally_mixed(3), [qubit_collision()], 1)

    @pytest.mark.parametrize("run", RUNS)
    def test_support_violation(self, run):
        # rho_A has a kernel, and the excited system state feeds weight into it.
        cfg = qubit_collision(beta=40.0, lam=0.0)
        rho0 = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(SupportViolationError, match="^first state has weight 1.000e\\+00 outside"):
            run(rho0, [cfg], 3)
        assert raised(run, rho0, [cfg], 3) == raised(stroke_by_stroke_trajectory, rho0, [cfg], 3)

    @pytest.mark.parametrize(
        "system_factor, ancilla_factor",
        [(1.0 + 1e-11, 1.0), (1.0, 1.5), (1.0 + 1e-11, 1.0 + 5.5e-11)],
        # Traces drift by 1e-11 a stroke: the system output fails stroke 11;
        # with the ancilla rows 5.5e-11 high as well, its output fails stroke 6.
        ids=["system trace drift", "ancilla trace", "ancilla fails before the system"],
    )
    def test_failing_stroke_raises_as_in_trajectory(self, system_factor, ancilla_factor, monkeypatch):
        corrupt_strokes(monkeypatch, "A", system_factor, ancilla_factor)
        expected = raised(stroke_by_stroke_trajectory, maximally_mixed(2), [qubit_collision()], 20)
        assert expected is not None and expected[0] is ValueError
        assert raised(run_trajectory, maximally_mixed(2), [qubit_collision()], 20) == expected

    def test_a_stroke_failing_two_gates_raises_its_system_gate_first(self, monkeypatch):
        # Species B's system rows run 1.3e-11 high and its ancilla rows 1.56e-11: both of
        # its outputs leave the trace tolerance at its 8th stroke, the system output first.
        corrupt_strokes(monkeypatch, "B", 1.0 + 1.3e-11, 1.0 + 1.56e-11)

        def trace(fn):
            cfgs = [qubit_collision(label="A"), qubit_collision(beta=0.5, label="B")]
            error, message = raised(fn, maximally_mixed(2), cfgs, 20)
            assert error is ValueError
            return float(re.fullmatch(r"density matrix trace (\S+) is not 1", message).group(1))

        # The stacked strokes and the stroke-by-stroke ones differ at round-off; the
        # ancilla output's trace is 2.6e-12 further off.
        assert abs(trace(run_trajectory) - trace(stroke_by_stroke_trajectory)) <= ENGINE_ORACLE_TOL


REFERENCE_RUNS = {
    "one species": (maximally_mixed(2), lambda: [qubit_collision(lam=0.3)], 40),
    "round robin": (
        DensityMatrix(np.diag([0.8, 0.2])),
        lambda: [qubit_collision(label="A"), qubit_collision(beta=0.5, g=0.7, lam=0.2, label="B")],
        30,
    ),
    "three species": (
        maximally_mixed(2),
        lambda: [
            qubit_collision(lam=0.3, tau=2e-2, label="A"),
            qutrit_ancilla_collision(g=0.8, beta=0.7, lam=0.1, tau=2e-2, label="B"),
            qubit_collision(beta=2.0, tau=2e-2, label="C"),
        ],
        30,
    ),
    # rho_A has a kernel, so every ancilla output passes the support check.
    "support check": (DensityMatrix(np.diag([0.0, 1.0])), lambda: [qubit_collision(beta=40.0, lam=0.0)], 12),
    "no strokes": (maximally_mixed(2), lambda: [qubit_collision(label="A"), qubit_collision(label="B")], 0),
}


class TestTrajectoryMatchesReference:
    @pytest.mark.parametrize("case", sorted(REFERENCE_RUNS))
    def test_record_is_the_stroke_by_stroke_one_to_round_off(self, case):
        rho0, make, n_steps = REFERENCE_RUNS[case]
        expected = stroke_by_stroke_trajectory(rho0, make(), n_steps)
        deviations = record_deviations(run_trajectory(rho0, make(), n_steps), expected)
        assert max(deviations.values()) <= ENGINE_ORACLE_TOL

    def test_long_qubit_demo_run_stays_near_the_stroke_by_stroke_one(self):
        # The qubit-demo species over 1,000 rounds.  Measured: states 1.2e-14, eigenvalues 1.3e-14,
        # round columns 1.8e-14, cumulative columns and totals 9.0e-12 (the rounds' round-off adds up
        # along the running sums).  The bounds are about 3x those.
        make = lambda: [qubit_collision(lam=0.3, tau=1e-2)]
        expected = stroke_by_stroke_trajectory(maximally_mixed(2), make(), 1000)
        deviations = record_deviations(run_trajectory(maximally_mixed(2), make(), 1000), expected)
        assert max(deviations[k] for k in ("states", "eigenvalues", "rounds")) <= 5e-14
        assert max(deviations[k] for k in ("cumulative", "species_totals")) <= 3e-11

    def test_run_without_strokes_takes_no_round_map(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("powers called")

        monkeypatch.setattr(collisions, "powers", refuse)
        cfgs = [qubit_collision(label="A"), qubit_collision(beta=0.5, label="B")]
        record = run_trajectory(maximally_mixed(2), cfgs, 0)
        assert record.states.matrix.shape == (0, 2, 2) and record.rounds.work.shape == (0,)

    def test_passing_run_makes_one_gate_pass_per_stack(self, monkeypatch):
        calls = count_calls(monkeypatch, collisions, "state_spectra")
        cfgs = [qubit_collision(label="A"), qubit_collision(beta=0.5, label="B")]
        assert run_trajectory(maximally_mixed(2), cfgs, 5).states.matrix.shape == (5, 2, 2)
        # One stack of system outputs and one of each species' ancilla outputs.
        assert len(calls) == 3

    def test_unallocatable_run_raises_before_any_gate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("state_spectra called")

        monkeypatch.setattr(collisions, "state_spectra", refuse)
        # numpy refuses the stroke rows of 10^18 strokes before any stroke runs.
        with pytest.raises(ValueError, match="^array is too big"):
            run_trajectory(maximally_mixed(2), [qubit_collision()], 10**18)

    def test_memory_refused_run_raises_before_any_round_map(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("powers called")

        monkeypatch.setattr(collisions, "powers", refuse)
        # The round starts and the stroke rows of 10^15 rounds are allocated, and
        # refused, before the round map is built or applied.
        cfgs = [qubit_collision(label="A"), qubit_collision(beta=0.5, label="B")]
        with pytest.raises(MemoryError, match="^Unable to allocate"):
            run_trajectory(maximally_mixed(2), cfgs, 10**15)

    def test_failing_run_raises_as_the_stroke_by_stroke_one_in_few_gate_passes(self, monkeypatch):
        # A qutrit ancilla, so that the system stacks are the gated stacks of dimension 2.
        corrupt_strokes(monkeypatch, "A", 1.0 + 1e-11, 1.0)
        expected = raised(stroke_by_stroke_trajectory, maximally_mixed(2), [qutrit_ancilla_collision()], 20)
        # The system trace leaves its tolerance at stroke 11.
        assert expected is not None and expected[0] is ValueError
        calls = count_calls(monkeypatch, collisions, "state_spectra")
        assert raised(run_trajectory, maximally_mixed(2), [qutrit_ancilla_collision()], 20) == expected
        passes = [stack for stack in calls if stack.shape[-1] == 2]
        assert len(passes) <= math.ceil(math.log2(20)) + 2

    def test_first_failing_stroke_is_named_from_the_run_itself(self, monkeypatch):
        # Round start 3 leaves the cone, trace kept; round start 7 keeps the cone, trace 1.5.
        # A stacked gate checks every trace first, so it names stroke 7; stroke 3 fails first.
        real = collisions.powers
        patched = []

        def spoiled(matrix, x0, out):
            real(matrix, x0, out)
            out[3] += vec(np.diag([2.0, -2.0]))
            out[7] *= 1.5
            patched.append(out.copy())
            return out

        monkeypatch.setattr(collisions, "powers", spoiled)
        cfg = qubit_collision()
        with pytest.raises(NotPositiveError) as caught:
            run_trajectory(maximally_mixed(2), [cfg], 20)
        stroke_3 = unvec(cfg.stroke_matrix[:4] @ patched[0][3], 2)
        assert raised(DensityMatrix, stroke_3) == (NotPositiveError, str(caught.value))
