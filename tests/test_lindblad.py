import math
import warnings

import numpy as np
import pytest

from qcollide import lindblad
from qcollide.errors import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    EigenoperatorError,
    FirstMomentError,
    PositivityLostError,
    RankDeficientError,
    StepSizeError,
    TraceDriftError,
)
from qcollide.lindblad import (
    EigenoperatorCoupling,
    LindbladGenerator,
    eigenoperator_dissipator,
    eigenoperator_interaction,
    integrate,
    multi_bath_generator,
    powers,
    rate_columns,
    rk4_propagator,
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
    qutrit_ancilla_collision,
)
from qcollide.states import AncillaSpec, DensityMatrix, thermal_state, trace_distance
from qcollide.verify import generator_for
from reference import ENGINE_ORACLE_TOL, raised, step_by_step_integrate

LN3 = math.log(3.0)


def qubit_generator(lam=0.3, beta=LN3, g=1.0, omega=1.0):
    cfg = qubit_collision(omega=omega, g=g, beta=beta, lam=lam)
    return generator_for([cfg]), cfg


def with_dissipator(gen, change):
    """``gen`` with the dissipator of its one species replaced by ``change(dissipator)``."""
    term = gen.species[0]
    broken = type(term)(beta=term.beta, lam=0.0, coherent_op=term.coherent_op, dissipator=change(term.dissipator))
    return LindbladGenerator(gen.h_system, [broken])


# Flipping the sign of a valid dissipator drives eigenvalues negative; one that leaks
# 5e-8 of trace per unit time drifts by 5e-10 in one 1e-2 step, past the state's
# own trace gate of 1e-10.
ANTI_DISSIPATIVE = (lambda d: -d, DensityMatrix(np.diag([0.999, 0.001])), 2.0)
LEAKY = (lambda d: d + 5e-8 * np.eye(4), maximally_mixed(2), 1.0)


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
            multi_bath_generator(qubit_hamiltonian(), [(spec, v)])

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
        gen = multi_bath_generator(h, [(spec, v)])
        _, dmat = eigenoperator_dissipator(couplings, h, 0.8, h_system=h)
        assert max_abs(gen.species[0].dissipator - dmat) <= 1e-9


class TestIntegrate:
    def test_zero_generator(self):
        spec = AncillaSpec(np.zeros((2, 2)), 1.0, SIGMA_X.copy(), 0.0, 1e-2)
        gen = multi_bath_generator(np.zeros((2, 2)), [(spec, np.zeros((4, 4)))])
        rho0 = DensityMatrix(np.array([[0.7, 0.2], [0.2, 0.3]]))
        _, states = integrate(gen, rho0, 1.0, 0.05)
        assert max_abs(states.matrix[-1] - rho0.matrix) <= 1e-14

    def test_larmor_phase(self):
        # pure Hamiltonian flow: off-diagonal picks up exp(-i omega t)
        omega = 1.0
        spec = qubit_ancilla(omega=omega, lam=0.0)
        gen = multi_bath_generator(qubit_hamiltonian(omega), [(spec, np.zeros((4, 4)))])
        plus = DensityMatrix(0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]))
        _, states = integrate(gen, plus, 1.0, 5e-3)
        final = states.matrix[-1]
        want = 0.5 * np.exp(-1j * omega * 1.0)
        assert abs(final[0, 1] - want) <= 1e-8

    def test_amplitude_damping_relaxation(self):
        # closed form: p_e(t) = p_ss + (p_e(0) - p_ss) exp(-(g+ + g-) t)
        gen, cfg = qubit_generator(lam=0.0)
        rho0 = DensityMatrix(np.diag([0.9, 0.1]))
        times, states = integrate(gen, rho0, 2.0, 2e-3)
        stride = len(times) // 7
        for t, state in zip(times[stride - 1 :: stride], states.matrix[stride - 1 :: stride]):
            want = 0.25 + (0.9 - 0.25) * math.exp(-t)
            assert abs(float(state[0, 0].real) - want) <= 1e-6

    def test_trace_preserved(self):
        gen, _ = qubit_generator(lam=0.3)
        _, states = integrate(gen, maximally_mixed(2), 1.0, 1e-2)
        for state in states.matrix:
            assert abs(float(np.trace(state).real) - 1.0) <= 1e-8

    def test_step_bound(self):
        gen, _ = qubit_generator()
        with pytest.raises(StepSizeError):
            integrate(gen, maximally_mixed(2), 1.0, 10.0)

    def test_step_bound_uses_the_exact_norm(self):
        # An infinite-temperature bath relaxes the population imbalance at rate 1, which
        # an all-ones power-iteration start never sees: it estimated ||L|| as 0.5.
        spec = qubit_ancilla(beta=0.0, lam=0.0)
        gen = multi_bath_generator(np.zeros((2, 2)), [(spec, qubit_exchange_interaction(1.0))])
        assert gen.norm == np.linalg.norm(gen.matrix, 2)
        assert abs(gen.norm - 1.0) <= 1e-12
        with pytest.raises(StepSizeError, match="exceeds stability bound 1.000e-01"):
            integrate(gen, DensityMatrix(np.diag([1.0, 0.0])), 1.5, 0.15)

    def test_state_dimension_must_match_generator(self):
        gen, _ = qubit_generator()
        with pytest.raises(DimensionMismatchError, match="state dimension differs from generator"):
            integrate(gen, maximally_mixed(3), 0.1, 0.01)

    def test_zero_horizon_takes_no_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("propagator built")

        gen, _ = qubit_generator()
        monkeypatch.setattr(lindblad, "rk4_propagator", refuse)
        times, states = integrate(gen, maximally_mixed(2), 0.0, 0.01)
        assert times.shape == (0,)
        assert states.matrix.shape == states.eigenvectors.shape == (0, 2, 2)
        assert states.eigenvalues.shape == (0, 2)

    def test_horizon_under_one_step_is_one_remainder_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("powers called")

        gen, _ = qubit_generator(lam=0.3)
        rho0 = DensityMatrix(np.diag([0.9, 0.1]))
        monkeypatch.setattr(lindblad, "powers", refuse)
        times, states = integrate(gen, rho0, 0.004, 0.01)
        assert times.tolist() == [0.004]
        want = unvec(rk4_propagator(gen.matrix, 0.004) @ vec(rho0.matrix), 2)
        assert np.abs(states.matrix[0] - want).max() <= ENGINE_ORACLE_TOL

    @pytest.mark.parametrize(
        "build, rho0, t_final, dt",
        [
            (lambda: qubit_generator(lam=0.3)[0], maximally_mixed(2), 1.0, 1e-2),
            # 10 whole steps and a remainder step of 0.005
            (lambda: qubit_generator(lam=-0.5, beta=0.4)[0], DensityMatrix(np.diag([0.9, 0.1])), 0.105, 0.01),
            (
                lambda: generator_for(
                    [qubit_collision(label="A"), qutrit_ancilla_collision(g=0.8, beta=0.5, lam=0.25, label="B")]
                ),
                DensityMatrix(np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])),
                0.5,
                2e-3,
            ),
        ],
        ids=["qubit", "remainder step", "two species"],
    )
    def test_stack_is_the_step_by_step_loop_to_round_off(self, build, rho0, t_final, dt):
        times, states = integrate(build(), rho0, t_final, dt)
        want_times, want = step_by_step_integrate(build(), rho0, t_final, dt)
        assert times.dtype == np.float64 and times.tobytes() == want_times.tobytes()
        assert states.matrix.shape == states.eigenvectors.shape == want.matrix.shape
        assert np.abs(states.matrix - want.matrix).max() <= ENGINE_ORACLE_TOL
        assert np.abs(states.eigenvalues - want.eigenvalues).max() <= ENGINE_ORACLE_TOL
        for stored in (states.matrix, states.eigenvalues, states.eigenvectors):
            assert not stored.flags.writeable


class TestPowers:
    @pytest.mark.parametrize("n", range(10))
    def test_rows_are_the_map_applied_in_turn(self, n):
        gen, _ = qubit_generator(lam=0.3)
        step = rk4_propagator(gen.matrix, 0.05)
        x0 = vec(np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]))
        want, x = [], x0
        for _ in range(n):
            want.append(x)
            x = step @ x
        out = np.empty((n, 4), dtype=complex)
        assert powers(step, x0, out) is out
        assert np.abs(out - np.reshape(want, (n, 4))).max(initial=0.0) <= ENGINE_ORACLE_TOL

    def test_empty_rows_take_no_product(self):
        # A map that cannot be multiplied: an empty output never reads it.
        out = np.empty((0, 4), dtype=complex)
        assert powers(None, vec(np.eye(2)), out) is out


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
        gen = multi_bath_generator(qubit_hamiltonian(), [(spec, np.zeros((4, 4)))])
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(gen)


class TestRates:
    # One species: each rates row is (work, heat, energy, entropy, entropy production).
    def test_stationary_rates(self):
        gen, cfg = qubit_generator(lam=0.4)
        stationary = steady_state(gen)
        ((_, heat, energy_rate, _, pi),) = rate_columns(gen, stationary.spectrum).tolist()
        assert abs(energy_rate) <= 1e-9
        assert pi >= -1e-9
        assert abs(pi + gen.species[0].beta * heat) <= 1e-12

    def test_equilibrium_is_silent(self):
        gen, cfg = qubit_generator(lam=0.0)
        thermal = thermal_state(cfg.h_system, LN3)
        for value in rate_columns(gen, thermal.spectrum)[0]:
            assert abs(value) <= 1e-9

    def test_first_law_closure_along_flow(self):
        gen, cfg = qubit_generator(lam=0.3)
        _, states = integrate(gen, maximally_mixed(2), 1.0, 5e-3)
        for work, heat, energy_rate, _, _ in rate_columns(gen, states[::40]).tolist():
            assert abs(energy_rate - (work + heat)) <= 1e-10

    def test_rank_deficient_state_rejected(self):
        gen, cfg = qubit_generator()
        pure = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(RankDeficientError):
            rate_columns(gen, pure.spectrum)


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
            gen = generator_for([cfg])
            dt = min(1e-2, 0.09 / max(gen.norm, 1e-12))
            _, states = integrate(gen, rho0, 30 * dt, dt)
            pis = rate_columns(gen, states[::10])[:, -1]
            assert (pis >= -1e-9).all()
            checked += len(pis)
        assert checked > 50


class TestPositivityGuard:
    def test_anti_dissipative_generator_detected(self):
        change, nearly_pure, t_final = ANTI_DISSIPATIVE
        bad = with_dissipator(qubit_generator(lam=0.0)[0], change)
        with pytest.raises(PositivityLostError):
            integrate(bad, nearly_pure, t_final, 1e-2)

    def test_trace_leak_is_reported_as_drift(self):
        change, rho0, t_final = LEAKY
        bad = with_dissipator(qubit_generator(lam=0.0)[0], change)
        with pytest.raises(TraceDriftError, match="at t=0.01$"):
            integrate(bad, rho0, t_final, 1e-2)

    @pytest.mark.parametrize("case, error", [(ANTI_DISSIPATIVE, PositivityLostError), (LEAKY, TraceDriftError)])
    def test_failing_run_raises_as_the_step_by_step_loop(self, case, error):
        change, rho0, t_final = case
        bad = with_dissipator(qubit_generator(lam=0.0)[0], change)
        expected = raised(step_by_step_integrate, bad, rho0, t_final, 1e-2)
        assert expected is not None and expected[0] is error
        assert raised(integrate, bad, rho0, t_final, 1e-2) == expected

    def test_unrelated_errors_are_not_relabelled(self, monkeypatch):
        # only the state-validation errors mean the state left the cone
        import qcollide.lindblad as lindblad

        gen, _ = qubit_generator(lam=0.0)

        def broken(*args, **kwargs):
            raise TypeError("not a positivity failure")

        monkeypatch.setattr(lindblad, "state_spectra", broken)
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
    def test_two_identical_species_double_dissipator(self):
        cfg = qubit_collision()
        single = generator_for([cfg])
        double = multi_bath_generator(
            cfg.h_system,
            [(cfg.ancilla, cfg.v_interaction), (cfg.ancilla, cfg.v_interaction)],
        )
        assert max_abs(double.dissipator - 2.0 * single.dissipator) <= 1e-12
