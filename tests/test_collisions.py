import math
import re
import time
import warnings

import numpy as np
import pytest

from qcollide import collisions
from qcollide.collisions import (
    CollisionConfig,
    CollisionLedger,
    build_unitary,
    collide,
    run_trajectory,
    stroboscopic_states,
)
from qcollide.errors import DimensionMismatchError, SupportViolationError
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
from reference import mutual_information, raised, record_bits, stroke_by_stroke_trajectory

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


class TestCollide:
    def test_no_interaction_is_inert(self):
        # free evolution with a commuting system state and thermal ancillae
        spec = AncillaSpec(qubit_hamiltonian(), LN3, SIGMA_X.copy(), 0.0, 1e-2)
        cfg = CollisionConfig(qubit_hamiltonian(), np.zeros((4, 4)), spec)
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        out = collide(rho, cfg)
        assert max_abs(out.system.matrix - rho.matrix) <= 1e-12
        for name in (
            "d_energy", "heat_ancilla", "work", "coherent_work", "incoherent_heat",
            "entropy_production", "mutual_info", "rel_entropy_ancilla", "d_free_energy",
        ):
            assert abs(getattr(out.ledger, name)) <= 1e-12

    def test_global_gibbs_fixed_point(self):
        cfg = qubit_collision(lam=0.0, tau=5e-2)
        rho = thermal_state(cfg.h_system, LN3)
        out = collide(rho, cfg)
        assert abs(out.ledger.heat_ancilla) <= 1e-9
        assert abs(out.ledger.entropy_production) <= 1e-9
        assert trace_distance(out.system, rho) <= 1e-12

    def test_ledger_decomposition(self):
        out = collide(maximally_mixed(2), qubit_collision(tau=1e-2))
        led = out.ledger
        assert led.entropy_production == led.mutual_info + led.rel_entropy_ancilla
        assert led.work == led.d_energy + led.heat_ancilla

    def test_joint_entropy_is_unitary_invariant(self):
        cfg = qubit_collision(tau=2e-2)
        rho = DensityMatrix(np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]]))
        out = collide(rho, cfg)
        u = cfg.unitary
        joint = DensityMatrix(u @ kron(rho.matrix, cfg.ancilla_state.matrix) @ dag(u))
        before = von_neumann_entropy(rho) + von_neumann_entropy(cfg.ancilla_state)
        assert abs(von_neumann_entropy(joint) - before) <= 1e-9
        # the ledger's correlation entry is the joint-state mutual information
        assert abs(mutual_information(joint, 2, 2) - out.ledger.mutual_info) <= 1e-12

    def test_qubit_ledger_within_half_order_envelope(self):
        # finite-duration ledger agrees with the leading-order identities
        tau = 1e-3
        cfg = qubit_collision(tau=tau, lam=0.3)
        led = collide(DensityMatrix(0.5 * np.eye(2)), cfg).ledger
        beta = cfg.ancilla.beta
        d_coherence = led.coherence_after - led.coherence_before
        envelope = tau**1.5
        assert abs(led.d_energy - (led.coherent_work + led.incoherent_heat)) <= envelope
        assert abs(led.mutual_info - (-beta * led.d_free_energy - d_coherence)) <= envelope
        assert abs(led.rel_entropy_ancilla - (beta * led.coherent_work + d_coherence)) <= envelope
        assert abs(led.entropy_production - beta * (led.coherent_work - led.d_free_energy)) <= envelope

    def test_ancilla_kernel_gates_the_stroke(self):
        # At beta = 40 the thermal ancilla's excited population is 4e-18, so
        # rho_A has a kernel and the support check of rho_A' runs every stroke.
        cfg = qubit_collision(beta=40.0, lam=0.0)
        assert cfg.ancilla_state.eigenvalues[0] < 1e-17
        with pytest.raises(SupportViolationError):
            collide(DensityMatrix(np.diag([1.0, 0.0])), cfg)
        led = collide(DensityMatrix(np.diag([0.0, 1.0])), cfg).ledger
        assert math.isfinite(led.rel_entropy_ancilla)


def _rephase_sampler_eigenvectors(monkeypatch):
    """Make the sampler's eigensolver return every eigenvector with a new phase."""
    import qcollide.presets as presets

    plain = presets.hermitian_eig

    def rephased(m, **kwargs):
        spectrum = plain(m, **kwargs)
        phases = np.exp(1j * (0.7 + 1.3 * np.arange(spectrum.dim)))
        return type(spectrum)(spectrum.eigenvalues, spectrum.eigenvectors * phases)

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
        assert min(s.entropy_production for s in samples) >= -1e-9
        assert min(s.mutual_info for s in samples) >= -1e-9
        assert min(s.rel_entropy_ancilla for s in samples) >= -1e-9
        assert time.perf_counter() - start < 60.0

    def test_stroke_inequalities_on_generic_draws(self):
        # the one-sample stroke itself, on the first draws of the same seed
        rng = SplitMix64(20260810)
        for _ in range(40):
            rho, cfg = random_collision(rng, eigenoperator=False)
            led = collide(rho, cfg).ledger
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
        assert record.steps == []
        assert record.final_state is None

    def test_times_and_prefix_sums(self):
        cfg = qubit_collision(tau=1e-2)
        record = run_trajectory(maximally_mixed(2), [cfg], 25)
        times = [s.time for s in record.steps]
        assert np.allclose(np.diff(times), 1e-2)
        total = CollisionLedger.zero()
        for step, cum in zip(record.steps, record.cumulative):
            total = total + step.ledger
            assert abs(total.entropy_production - cum.entropy_production) <= 1e-12
            assert abs(total.d_energy - cum.d_energy) <= 1e-12
        assert abs(record.species_totals["A"].d_energy - record.cumulative[-1].d_energy) <= 1e-12

    def test_relaxation_to_thermal(self):
        # thermal ancillae make the Gibbs state of H_S the exact fixed point
        cfg = qubit_collision(lam=0.0, tau=5e-2)
        record = run_trajectory(DensityMatrix(np.diag([0.9, 0.1])), [cfg], 400)
        target = thermal_state(cfg.h_system, LN3)
        assert trace_distance(record.final_state, target) <= 1e-6

    def test_two_bath_heat_flow(self):
        # hot species feeds energy in, cold species takes it out, entropy grows
        hot = qubit_collision(beta=0.4, lam=0.0, tau=2e-2, label="hot")
        cold = qubit_collision(beta=2.2, g=0.8, lam=0.0, tau=2e-2, label="cold")
        record = run_trajectory(maximally_mixed(2), [hot, cold], 600)
        tail = record.species_totals
        assert tail["hot"].heat_ancilla < 0.0  # hot ancillae lose energy
        assert tail["cold"].heat_ancilla > 0.0
        assert record.cumulative[-1].entropy_production >= -1e-9


def with_stroke_matrix(cfg, system_factor, ancilla_factor):
    """``cfg`` with the system and ancilla rows of its stroke matrix scaled."""
    n_s, n_a = cfg.dim_system**2, cfg.dim_ancilla**2
    corrupted = cfg.stroke_matrix.copy()
    corrupted[:n_s] *= system_factor
    corrupted[n_s : n_s + n_a] *= ancilla_factor
    cfg.__dict__["stroke_matrix"] = corrupted
    return cfg


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

RUNS = [run_trajectory, stroboscopic_states]


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

    def test_support_kept_matches_trajectory(self):
        cfg = qubit_collision(beta=40.0, lam=0.0)
        rho0 = DensityMatrix(np.diag([0.0, 1.0]))
        record = run_trajectory(rho0, [cfg], 6)
        rounds = stroboscopic_states(rho0, [cfg], 6)
        assert [s.matrix.tobytes() for s in rounds] == [s.state.matrix.tobytes() for s in record.steps]

    @pytest.mark.parametrize(
        "system_factor, ancilla_factor",
        [(1.0 + 1e-11, 1.0), (1.0, 1.5), (1.0 + 1e-11, 1.0 + 5.5e-11)],
        # Traces drift by 1e-11 a stroke: the system output fails stroke 11;
        # with the ancilla rows 5.5e-11 high as well, its output fails stroke 6.
        ids=["system trace drift", "ancilla trace", "ancilla fails before the system"],
    )
    def test_failing_stroke_raises_as_in_trajectory(self, system_factor, ancilla_factor):
        def run(fn):
            cfg = with_stroke_matrix(qubit_collision(), system_factor, ancilla_factor)
            return raised(fn, maximally_mixed(2), [cfg], 20)

        expected = run(stroke_by_stroke_trajectory)
        assert expected is not None and expected[0] is ValueError
        for fn in RUNS:
            assert run(fn) == expected

    def test_builds_no_ledger(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("collide called")

        monkeypatch.setattr(collisions, "collide", refuse)
        cfgs = [qubit_collision(label="A"), qubit_collision(beta=0.5, label="B")]
        assert len(stroboscopic_states(maximally_mixed(2), cfgs, 5)) == 5


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
    def test_record_is_bit_for_bit_the_stroke_by_stroke_one(self, case):
        rho0, make, n_steps = REFERENCE_RUNS[case]
        expected = stroke_by_stroke_trajectory(rho0, make(), n_steps)
        assert record_bits(run_trajectory(rho0, make(), n_steps)) == record_bits(expected)
        assert [s.matrix.tobytes() for s in stroboscopic_states(rho0, make(), n_steps)] == [
            s.state.matrix.tobytes() for s in expected.steps
        ]

    def test_passing_run_makes_no_collide_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("collide called")

        monkeypatch.setattr(collisions, "collide", refuse)
        cfgs = [qubit_collision(label="A"), qubit_collision(beta=0.5, label="B")]
        assert len(run_trajectory(maximally_mixed(2), cfgs, 5).steps) == 5

    def test_unallocatable_run_raises_at_once_without_collide(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("collide called")

        monkeypatch.setattr(collisions, "collide", refuse)
        # numpy refuses the stroke rows of 10^18 strokes before any stroke runs.
        with pytest.raises(ValueError, match="^array is too big"):
            run_trajectory(maximally_mixed(2), [qubit_collision()], 10**18)

    def test_failing_run_is_replayed_through_collide(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return collide(*args)

        monkeypatch.setattr(collisions, "collide", counting)
        cfg = with_stroke_matrix(qubit_collision(), 1.0 + 1e-11, 1.0)
        with pytest.raises(ValueError, match="^density matrix trace .* is not 1$"):
            run_trajectory(maximally_mixed(2), [cfg], 20)
        # The system trace leaves its tolerance at stroke 11, where the replay stops.
        assert len(calls) == 11
