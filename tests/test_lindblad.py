import math
import warnings

import numpy as np
import pytest

from qcollide.errors import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    EigenoperatorError,
    FirstMomentError,
    RankDeficientError,
    StepSizeError,
)
from qcollide.lindblad import (
    EigenoperatorCoupling,
    build_generator,
    eigenoperator_dissipator,
    eigenoperator_interaction,
    integrate,
    multi_bath_generator,
    rates,
    steady_state,
    unvec,
    vec,
)
from qcollide.linalg import dag, kron, max_abs
from qcollide.presets import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    maximally_mixed,
    qubit_ancilla,
    qubit_collision,
    qubit_couplings,
    qubit_exchange_interaction,
    qubit_hamiltonian,
)
from qcollide.states import AncillaSpec, DensityMatrix, thermal_state, trace_distance

LN3 = math.log(3.0)


def qubit_generator(lam=0.3, beta=LN3, g=1.0, omega=1.0):
    cfg = qubit_collision(omega=omega, g=g, beta=beta, lam=lam)
    return build_generator(cfg.h_system, cfg.ancilla, cfg.v_interaction), cfg


class TestBuildGenerator:
    def test_qubit_drive_operator(self):
        gen, cfg = qubit_generator(g=1.3)
        assert max_abs(gen.species[0].coherent_op - 1.3 * SIGMA_X) <= 1e-12

    def test_zero_lambda_keeps_bare_hamiltonian(self):
        gen, cfg = qubit_generator(lam=0.0)
        assert max_abs(gen.h_eff - cfg.h_system) == 0.0

    def test_first_moment_gate(self):
        spec = qubit_ancilla()
        v = kron(SIGMA_Z, SIGMA_Z)  # tr_A(V rho_th) = sz <sz>_th != 0
        with pytest.raises(FirstMomentError):
            build_generator(qubit_hamiltonian(), spec, v)

    def test_overflowing_dissipator_is_rejected_without_warnings(self):
        # V^2 overflows at g = 1e300, so the thermal dissipator holds inf and NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gen, _ = qubit_generator(g=1e300)
            with pytest.raises(ValueError, match="^Lindblad generator matrix has non-finite entries$"):
                gen.matrix

    def test_dissipator_annihilates_trace(self):
        gen, _ = qubit_generator()
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            image = unvec(gen.dissipator @ vec(m), 2)
            assert abs(np.trace(image)) <= 1e-10 * max(max_abs(m), 1.0)

    def test_generator_preserves_hermiticity(self):
        gen, _ = qubit_generator()
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            lhs = gen.apply(dag(m))
            rhs = dag(gen.apply(m))
            assert max_abs(lhs - rhs) <= 1e-10


class TestEigenoperatorDissipator:
    def test_infinite_temperature_rates(self):
        rates_list, _ = eigenoperator_dissipator(qubit_couplings(), qubit_hamiltonian(), 0.0)
        assert abs(rates_list[0].gamma_plus - rates_list[0].gamma_minus) <= 1e-12

    def test_qubit_detailed_balance(self):
        rates_list, _ = eigenoperator_dissipator(
            qubit_couplings(), qubit_hamiltonian(), LN3, h_system=qubit_hamiltonian()
        )
        ratio = rates_list[0].gamma_plus / rates_list[0].gamma_minus
        assert abs(ratio - 1.0 / 3.0) <= 1e-10
        # direct thermal averages: gamma- = g^2 <s- s+> = g^2 p_ground
        assert abs(rates_list[0].gamma_minus - 0.75) <= 1e-12
        assert abs(rates_list[0].gamma_plus - 0.25) <= 1e-12

    def test_three_level_detailed_balance(self):
        h = np.diag([0.0, 0.9, 1.8]).astype(complex)
        lower = np.zeros((3, 3), dtype=complex)
        lower[0, 1] = 0.7
        lower[1, 2] = 1.1
        two = np.zeros((3, 3), dtype=complex)
        two[0, 2] = 0.5
        couplings = [
            EigenoperatorCoupling(lower, lower, 0.9, 0.8 + 0.2j),
            EigenoperatorCoupling(two, two, 1.8, 0.4),
        ]
        beta = 1.3
        rates_list, _ = eigenoperator_dissipator(couplings, h, beta, h_system=h)
        for jump in rates_list:
            target = math.exp(-beta * jump.frequency)
            assert abs(jump.gamma_plus / jump.gamma_minus - target) <= 1e-10 * target

    def test_rejects_non_eigenoperator(self):
        couplings = [EigenoperatorCoupling(SIGMA_X.copy(), SIGMA_MINUS.copy(), 1.0, 1.0)]
        with pytest.raises(EigenoperatorError):
            eigenoperator_dissipator(couplings, qubit_hamiltonian(), LN3, h_system=qubit_hamiltonian())

    def test_dual_construction_equivalence(self):
        # the double-commutator route and the jump-operator route agree
        gen, cfg = qubit_generator(g=0.9)
        _, dmat = eigenoperator_dissipator(
            qubit_couplings(g=0.9), cfg.ancilla.h_ancilla, LN3, h_system=cfg.h_system
        )
        assert max_abs(gen.species[0].dissipator - dmat) <= 1e-9

    def test_dual_construction_three_level(self):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        lower = np.zeros((3, 3), dtype=complex)
        lower[0, 1] = 1.0
        lower[1, 2] = 0.6
        two = np.zeros((3, 3), dtype=complex)
        two[0, 2] = 0.8
        couplings = [
            EigenoperatorCoupling(lower, lower, 1.0, 1.0),
            EigenoperatorCoupling(two, two, 2.0, 0.5 + 0.1j),
        ]
        v = eigenoperator_interaction(couplings, 3, 3)
        chi = np.zeros((3, 3), dtype=complex)
        chi[0, 1] = chi[1, 0] = 1.0
        spec = AncillaSpec(h_ancilla=h, beta=0.8, chi=chi, lam=0.1, tau=1e-2)
        gen = build_generator(h, spec, v)
        _, dmat = eigenoperator_dissipator(couplings, h, 0.8, h_system=h)
        assert max_abs(gen.species[0].dissipator - dmat) <= 1e-9


class TestIntegrate:
    def test_zero_generator(self):
        spec = AncillaSpec(np.zeros((2, 2)), 1.0, SIGMA_X.copy(), 0.0, 1e-2)
        gen = build_generator(np.zeros((2, 2)), spec, np.zeros((4, 4)))
        rho0 = DensityMatrix(np.array([[0.7, 0.2], [0.2, 0.3]]))
        trajectory = integrate(gen, rho0, 1.0, 0.05)
        assert max_abs(trajectory[-1][1].matrix - rho0.matrix) <= 1e-14

    def test_larmor_phase(self):
        # pure Hamiltonian flow: off-diagonal picks up exp(-i omega t)
        omega = 1.0
        spec = qubit_ancilla(omega=omega, lam=0.0)
        gen = build_generator(qubit_hamiltonian(omega), spec, np.zeros((4, 4)))
        plus = DensityMatrix(0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]))
        trajectory = integrate(gen, plus, 1.0, 5e-3)
        final = trajectory[-1][1].matrix
        want = 0.5 * np.exp(-1j * omega * 1.0)
        assert abs(final[0, 1] - want) <= 1e-8

    def test_amplitude_damping_relaxation(self):
        # closed form: p_e(t) = p_ss + (p_e(0) - p_ss) exp(-(g+ + g-) t)
        gen, cfg = qubit_generator(lam=0.0)
        rho0 = DensityMatrix(np.diag([0.9, 0.1]))
        trajectory = integrate(gen, rho0, 2.0, 2e-3)
        for t, state in trajectory[:: len(trajectory) // 7]:
            want = 0.25 + (0.9 - 0.25) * math.exp(-t)
            assert abs(float(state.matrix[0, 0].real) - want) <= 1e-6

    def test_trace_preserved(self):
        gen, _ = qubit_generator(lam=0.3)
        trajectory = integrate(gen, maximally_mixed(2), 1.0, 1e-2)
        for _, state in trajectory:
            assert abs(float(np.trace(state.matrix).real) - 1.0) <= 1e-8

    def test_step_bound(self):
        gen, _ = qubit_generator()
        with pytest.raises(StepSizeError):
            integrate(gen, maximally_mixed(2), 1.0, 10.0)

    def test_step_bound_uses_the_exact_norm(self):
        # An infinite-temperature bath relaxes the population imbalance at rate 1, which
        # an all-ones power-iteration start never sees: it estimated ||L|| as 0.5.
        spec = qubit_ancilla(beta=0.0, lam=0.0)
        gen = build_generator(np.zeros((2, 2)), spec, qubit_exchange_interaction(1.0))
        assert gen.norm == np.linalg.norm(gen.matrix, 2)
        assert abs(gen.norm - 1.0) <= 1e-12
        with pytest.raises(StepSizeError, match="exceeds stability bound 1.000e-01"):
            integrate(gen, DensityMatrix(np.diag([1.0, 0.0])), 1.5, 0.15)

    def test_state_dimension_must_match_generator(self):
        gen, _ = qubit_generator()
        with pytest.raises(DimensionMismatchError, match="state dimension differs from generator"):
            integrate(gen, maximally_mixed(3), 0.1, 0.01)

    def test_zero_horizon_returns_the_initial_state(self):
        gen, _ = qubit_generator()
        rho = maximally_mixed(2)
        assert integrate(gen, rho, 0.0, 0.01) == [(0.0, rho)]


class TestSteadyState:
    def test_single_thermal_bath(self):
        gen, cfg = qubit_generator(lam=0.0)
        stationary = steady_state(gen)
        assert trace_distance(stationary, thermal_state(cfg.h_system, LN3)) <= 1e-9

    def test_two_bath_rate_equation(self):
        hot = qubit_collision(beta=0.5, g=1.0, lam=0.0, label="hot")
        cold = qubit_collision(beta=2.0, g=0.7, lam=0.0, label="cold")
        gen = multi_bath_generator(
            hot.h_system,
            [(hot.ancilla, hot.v_interaction), (cold.ancilla, cold.v_interaction)],
            labels=["hot", "cold"],
        )
        stationary = steady_state(gen)
        up = down = 0.0
        for g, beta in ((1.0, 0.5), (0.7, 2.0)):
            jumps, _ = eigenoperator_dissipator(qubit_couplings(g=g), qubit_hamiltonian(), beta)
            up += jumps[0].gamma_plus
            down += jumps[0].gamma_minus
        assert abs(float(stationary.matrix[0, 0].real) - up / (up + down)) <= 1e-10

    def test_driven_steady_state_has_coherence(self):
        gen, _ = qubit_generator(lam=0.4)
        stationary = steady_state(gen)
        assert abs(stationary.matrix[0, 1]) > 1e-3
        assert max_abs(gen.apply(stationary.matrix)) <= 1e-9

    def test_degenerate_generator_detected(self):
        # pure free evolution: every diagonal state is stationary
        spec = qubit_ancilla(lam=0.0)
        gen = build_generator(qubit_hamiltonian(), spec, np.zeros((4, 4)))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(gen)


class TestRates:
    def test_stationary_rates(self):
        gen, cfg = qubit_generator(lam=0.4)
        stationary = steady_state(gen)
        ledger = rates(gen, stationary)
        assert abs(ledger.energy_rate) <= 1e-9
        assert ledger.entropy_production_rate >= -1e-9
        want = -sum(
            term.beta * q for term, q in zip(gen.species, ledger.incoherent_heat_rates)
        )
        assert abs(ledger.entropy_production_rate - want) <= 1e-12

    def test_equilibrium_is_silent(self):
        gen, cfg = qubit_generator(lam=0.0)
        thermal = thermal_state(cfg.h_system, LN3)
        ledger = rates(gen, thermal)
        for value in (
            ledger.energy_rate,
            ledger.coherent_work_rate,
            ledger.incoherent_heat_rate,
            ledger.entropy_rate,
            ledger.entropy_production_rate,
        ):
            assert abs(value) <= 1e-9

    def test_first_law_closure_along_flow(self):
        gen, cfg = qubit_generator(lam=0.3)
        trajectory = integrate(gen, maximally_mixed(2), 1.0, 5e-3)
        for _, state in trajectory[::40]:
            ledger = rates(gen, state)
            closure = ledger.coherent_work_rate + ledger.incoherent_heat_rate
            assert abs(ledger.energy_rate - closure) <= 1e-10

    def test_rank_deficient_state_rejected(self):
        gen, cfg = qubit_generator()
        pure = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(RankDeficientError):
            rates(gen, pure)


class TestEntropyProductionRate:
    def test_nonnegative_along_randomized_trajectories(self):
        # thermal-reference dissipators keep the rate nonnegative whatever the
        # coherent drive does (the drive drops out of both dS/dt and Q_inc)
        from qcollide.rng import SplitMix64
        from qcollide.presets import random_collision

        rng = SplitMix64(77)
        checked = 0
        for _ in range(25):
            rho0, cfg = random_collision(rng, eigenoperator=True)
            gen = build_generator(cfg.h_system, cfg.ancilla, cfg.v_interaction)
            dt = min(1e-2, 0.09 / max(gen.norm, 1e-12))
            trajectory = integrate(gen, rho0, 30 * dt, dt)
            for _, state in trajectory[::10]:
                ledger = rates(gen, state)
                assert ledger.entropy_production_rate >= -1e-9
                checked += 1
        assert checked > 50


class TestPositivityGuard:
    def test_anti_dissipative_generator_detected(self):
        # flipping the sign of a valid dissipator drives eigenvalues negative
        gen, _ = qubit_generator(lam=0.0)
        bad_species = type(gen.species[0])(
            label="broken",
            beta=gen.species[0].beta,
            lam=0.0,
            coherent_op=gen.species[0].coherent_op,
            dissipator=-gen.species[0].dissipator,
        )
        from qcollide.lindblad import LindbladGenerator
        from qcollide.errors import PositivityLostError

        bad = LindbladGenerator(gen.h_system, [bad_species])
        nearly_pure = DensityMatrix(np.diag([0.999, 0.001]))
        with pytest.raises(PositivityLostError):
            integrate(bad, nearly_pure, 2.0, 1e-2)

    def test_trace_leak_is_reported_as_drift(self):
        # a dissipator that leaks 5e-8 of trace per unit time drifts by 5e-10
        # in one 1e-2 step: past the state's own trace gate of 1e-10
        gen, _ = qubit_generator(lam=0.0)
        term = gen.species[0]
        leaky = type(term)(
            label="leaky",
            beta=term.beta,
            lam=0.0,
            coherent_op=term.coherent_op,
            dissipator=term.dissipator + 5e-8 * np.eye(4),
        )
        from qcollide.lindblad import LindbladGenerator
        from qcollide.errors import TraceDriftError

        bad = LindbladGenerator(gen.h_system, [leaky])
        with pytest.raises(TraceDriftError, match="at t=0.01$"):
            integrate(bad, maximally_mixed(2), 1.0, 1e-2)

    def test_unrelated_errors_are_not_relabelled(self, monkeypatch):
        # only the state-validation errors mean the state left the cone
        import qcollide.lindblad as lindblad

        gen, _ = qubit_generator(lam=0.0)

        def broken(*args, **kwargs):
            raise TypeError("not a positivity failure")

        monkeypatch.setattr(lindblad, "density_matrices", broken)
        with pytest.raises(TypeError, match="not a positivity failure"):
            integrate(gen, maximally_mixed(2), 0.1, 1e-2)


class TestConvergenceOrders:
    def test_resonant_qubit_converges_at_enhanced_order(self):
        # Parity of the exchange interaction with a two-level ancilla kills
        # every half-order term, so the stroboscopic defect accumulates at
        # first order in tau rather than the generic sqrt(tau).
        from qcollide.verify import loglog_slope, stroboscopic_deviation

        data = stroboscopic_deviation(
            lambda tau: [qubit_collision(lam=0.3, tau=tau)],
            (4e-2, 1e-2, 2.5e-3),
            t_final=2.0,
        )
        slope = loglog_slope([t for t, _ in data], [d for _, d in data])
        assert 0.85 <= slope <= 1.15
        assert data[-1][1] < data[0][1]


class TestMultiBath:
    def test_single_species_matches_build(self):
        cfg = qubit_collision()
        single = build_generator(cfg.h_system, cfg.ancilla, cfg.v_interaction)
        multi = multi_bath_generator(cfg.h_system, [(cfg.ancilla, cfg.v_interaction)], ["A"])
        assert max_abs(single.h_eff - multi.h_eff) == 0.0
        assert max_abs(single.dissipator - multi.dissipator) == 0.0

    def test_two_identical_species_double_dissipator(self):
        cfg = qubit_collision()
        single = build_generator(cfg.h_system, cfg.ancilla, cfg.v_interaction)
        double = multi_bath_generator(
            cfg.h_system,
            [(cfg.ancilla, cfg.v_interaction), (cfg.ancilla, cfg.v_interaction)],
            ["A", "B"],
        )
        assert max_abs(double.dissipator - 2.0 * single.dissipator) <= 1e-12
