import math

import numpy as np
import pytest

from qcollide.collisions import collide
from qcollide.errors import (
    DegenerateSpectrumError,
    DiagonalCoherenceError,
    EnergyConservationError,
)
from qcollide.linalg import dag, kron
from qcollide.presets import (
    SIGMA_X,
    qubit_collision,
    qubit_hamiltonian,
    random_basis,
    random_gapped_probs,
    random_traceless_hermitian,
    random_zero_diagonal,
    three_level_collision,
    three_level_state,
)
from qcollide.rng import SplitMix64
from qcollide.series import (
    PerturbedState,
    ancilla_after_series,
    ancilla_coherence_change_series,
    coherence_series,
    coherent_work_ancilla_side,
    entropy_series,
    ergotropy_series,
    predicted_mutual_info,
    predicted_rel_entropy,
    relative_entropy_series,
)
from qcollide.states import (
    AncillaSpec,
    DensityMatrix,
    ergotropy_exact,
    relative_entropy,
    relative_entropy_of_coherence,
    thermal_state,
    von_neumann_entropy,
)
from qcollide.verify import halving_ratios

LN3 = math.log(3.0)
EPS_GRID = (2e-2, 1e-2, 5e-3, 2.5e-3)


def gapped_state(rng, dim):
    probs = random_gapped_probs(rng, dim)
    basis = random_basis(rng, dim)
    return DensityMatrix((basis * probs) @ dag(basis)), basis


def test_infeasible_gap_raises_instead_of_looping():
    # five entries >= 0.05 spaced 0.12 apart would need a total of at least 1.45
    with pytest.raises(ValueError):
        random_gapped_probs(SplitMix64(0), 5)


class TestPerturbedState:
    def test_rejects_traceful_direction(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        with pytest.raises(ValueError):
            PerturbedState(rho0=rho, direction=np.eye(2), epsilon=1e-3)

    def test_rejects_dimension_mismatch(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        with pytest.raises(Exception):
            PerturbedState(rho0=rho, direction=np.zeros((3, 3)), epsilon=1e-3)


class TestEntropySeries:
    def test_zero_direction(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        ps = PerturbedState(rho0=rho, direction=np.zeros((2, 2)), epsilon=0.1)
        assert abs(entropy_series(ps) - von_neumann_entropy(rho)) <= 1e-14

    @pytest.mark.parametrize("dim", [2, 3])
    def test_residual_is_third_order(self, dim):
        rng = SplitMix64(100 + dim)
        rho0, _ = gapped_state(rng, dim)
        sigma = random_traceless_hermitian(rng, dim)
        residuals = [
            abs(
                von_neumann_entropy(DensityMatrix(rho0.matrix + eps * sigma))
                - entropy_series(PerturbedState(rho0=rho0, direction=sigma, epsilon=eps))
            )
            for eps in EPS_GRID
        ]
        for ratio in halving_ratios(residuals):
            assert 6.0 <= ratio <= 10.0

    def test_off_diagonal_direction_reduces_to_coherence(self):
        # first-order term vanishes and the quadratic term is the coherence
        rng = SplitMix64(7)
        rho0, basis = gapped_state(rng, 3)
        chi = random_zero_diagonal(rng, basis)
        ps = PerturbedState(rho0=rho0, direction=chi, epsilon=1e-2)
        assert abs((von_neumann_entropy(rho0) - entropy_series(ps)) - coherence_series(ps)) <= 1e-15

    def test_degenerate_spectrum_rejected(self):
        rho = DensityMatrix(np.eye(2) / 2)
        ps = PerturbedState(rho0=rho, direction=SIGMA_X.copy(), epsilon=1e-3)
        with pytest.raises(DegenerateSpectrumError):
            entropy_series(ps)


class TestCoherenceSeries:
    def test_zero_direction(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert coherence_series(PerturbedState(rho0=rho, direction=np.zeros((2, 2)), epsilon=1.0)) == 0.0

    def test_positive_for_nonzero_direction(self):
        rng = SplitMix64(8)
        rho0, basis = gapped_state(rng, 3)
        chi = random_zero_diagonal(rng, basis)
        assert coherence_series(PerturbedState(rho0=rho0, direction=chi, epsilon=1e-2)) > 0.0

    def test_qubit_envelope(self):
        # two-level case: even-order structure makes the defect fourth order,
        # comfortably inside the cubic envelope
        rho0 = DensityMatrix(np.diag([0.25, 0.75]))
        for eps in (1e-2, 1e-3):
            exact = relative_entropy_of_coherence(
                DensityMatrix(rho0.matrix + eps * SIGMA_X), qubit_hamiltonian()
            )
            series = coherence_series(PerturbedState(rho0=rho0, direction=SIGMA_X.copy(), epsilon=eps))
            assert abs(exact - series) <= eps**3

    def test_qutrit_residual_order(self):
        rng = SplitMix64(9)
        probs = random_gapped_probs(rng, 3)
        rho0 = DensityMatrix(np.diag(probs))
        chi = random_zero_diagonal(rng, np.eye(3, dtype=complex))
        h_ref = np.diag([0.0, 1.0, 2.0])
        residuals = []
        for eps in EPS_GRID:
            exact = relative_entropy_of_coherence(DensityMatrix(rho0.matrix + eps * chi), h_ref)
            series = coherence_series(PerturbedState(rho0=rho0, direction=chi, epsilon=eps))
            residuals.append(abs(exact - series))
        for ratio in halving_ratios(residuals):
            assert 6.0 <= ratio <= 10.0

    def test_diagonal_direction_rejected(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        with pytest.raises(DiagonalCoherenceError):
            coherence_series(PerturbedState(rho0=rho, direction=np.diag([1.0, -1.0]), epsilon=1e-3))


class TestRelativeEntropySeries:
    def test_equal_directions(self):
        rng = SplitMix64(10)
        rho0, _ = gapped_state(rng, 3)
        sigma = random_traceless_hermitian(rng, 3)
        assert relative_entropy_series(rho0, sigma, sigma, 1e-2) == 0.0

    def test_diagonal_chi_square_form(self):
        probs = np.array([0.5, 0.3, 0.2])
        rho0 = DensityMatrix(np.diag(probs))
        mu = np.diag([0.02, -0.01, -0.01])
        sigma = np.zeros((3, 3))
        eps = 1e-2
        want = 0.5 * eps**2 * float((np.diagonal(mu) ** 2 / probs).sum())
        assert abs(relative_entropy_series(rho0, sigma, mu, eps) - want) <= 1e-15

    @pytest.mark.parametrize("dim", [2, 3])
    def test_residual_is_third_order(self, dim):
        rng = SplitMix64(200 + dim)
        rho0, _ = gapped_state(rng, dim)
        sigma = random_traceless_hermitian(rng, dim)
        mu = random_traceless_hermitian(rng, dim)
        residuals = [
            abs(
                relative_entropy(
                    DensityMatrix(rho0.matrix + eps * mu), DensityMatrix(rho0.matrix + eps * sigma)
                )
                - relative_entropy_series(rho0, sigma, mu, eps)
            )
            for eps in EPS_GRID
        ]
        for ratio in halving_ratios(residuals):
            assert 6.0 <= ratio <= 10.0

    def test_nonnegative(self):
        rng = SplitMix64(11)
        rho0, _ = gapped_state(rng, 3)
        for _ in range(20):
            sigma = random_traceless_hermitian(rng, 3)
            mu = random_traceless_hermitian(rng, 3)
            assert relative_entropy_series(rho0, sigma, mu, 1e-2) >= 0.0


class TestAncillaAfterSeries:
    def test_free_collision_keeps_preparation(self):
        spec = AncillaSpec(qubit_hamiltonian(), LN3, SIGMA_X.copy(), 0.2, 1e-2)
        rho_s = DensityMatrix(np.diag([0.5, 0.5]))
        prediction, drive, dissipated = ancilla_after_series(rho_s, spec, np.zeros((4, 4)))
        want = thermal_state(spec.h_ancilla, LN3).matrix + spec.coherence_amplitude * SIGMA_X
        assert np.max(np.abs(prediction - want)) <= 1e-14
        assert np.max(np.abs(drive)) == 0.0
        assert np.max(np.abs(dissipated)) == 0.0

    def test_thermal_preparation_without_anything(self):
        spec = AncillaSpec(qubit_hamiltonian(), LN3, SIGMA_X.copy(), 0.0, 1e-2)
        rho_s = DensityMatrix(np.diag([0.5, 0.5]))
        prediction, _, _ = ancilla_after_series(rho_s, spec, np.zeros((4, 4)))
        assert np.max(np.abs(prediction - thermal_state(spec.h_ancilla, LN3).matrix)) <= 1e-14

    def test_qubit_envelope(self):
        tau = 1e-3
        cfg = qubit_collision(tau=tau, lam=0.3)
        rho_s = DensityMatrix(np.diag([0.5, 0.5]))
        prediction, _, _ = ancilla_after_series(rho_s, cfg.ancilla, cfg.v_interaction)
        exact = collide(rho_s, cfg).ancilla.matrix
        assert np.max(np.abs(exact - prediction)) <= tau**1.5

    def test_three_level_residual_order(self):
        rho_s = three_level_state()
        residuals = []
        taus = (2e-3, 1e-3, 5e-4, 2.5e-4)
        for tau in taus:
            cfg = three_level_collision(tau)
            prediction, _, _ = ancilla_after_series(rho_s, cfg.ancilla, cfg.v_interaction)
            exact = collide(rho_s, cfg).ancilla.matrix
            residuals.append(float(np.max(np.abs(exact - prediction))))
        for ratio in halving_ratios(residuals):
            assert 2.4 <= ratio <= 3.2


class TestPredictions:
    def test_sum_is_the_entropy_production_prediction(self):
        beta, w_c, d_f, d_c = 1.3, 0.002, -0.001, 0.0005
        total = predicted_mutual_info(beta, d_f, d_c) + predicted_rel_entropy(beta, w_c, d_c)
        assert abs(total - beta * (w_c - d_f)) <= 1e-15

    def test_equilibrium_is_silent(self):
        assert predicted_mutual_info(1.0, 0.0, 0.0) == 0.0
        assert predicted_rel_entropy(1.0, 0.0, 0.0) == 0.0

    def test_series_coherence_change_tracks_exact(self):
        # truncation error is cubic in the coherence amplitude lam*sqrt(tau)
        rho_s = three_level_state()
        residuals = []
        for tau in (1e-3, 2.5e-4):
            cfg = three_level_collision(tau)
            before, after = ancilla_coherence_change_series(rho_s, cfg.ancilla, cfg.v_interaction)
            led = collide(rho_s, cfg).ledger
            eps = cfg.ancilla.coherence_amplitude
            assert abs(before - led.coherence_before) <= 3.0 * eps**3
            assert abs(after - led.coherence_after) <= 3.0 * eps**3
            residuals.append(abs(before - led.coherence_before))
        assert residuals[0] / residuals[1] >= 6.0  # one tau-quartering, ideal 8


class TestAncillaSideBookkeeping:
    def test_matches_system_side(self):
        cfg = qubit_collision(tau=1e-2, lam=0.3)
        rho_s = DensityMatrix(np.array([[0.6, 0.1 + 0.05j], [0.1 - 0.05j, 0.4]]))
        w_c, q_inc = coherent_work_ancilla_side(cfg.h_system, cfg.ancilla, rho_s, cfg.v_interaction)
        led = collide(rho_s, cfg).ledger
        assert abs(w_c - led.coherent_work) <= 1e-10
        assert abs(q_inc - led.incoherent_heat) <= 1e-10

    def test_zero_lambda(self):
        cfg = qubit_collision(tau=1e-2, lam=0.0)
        w_c, _ = coherent_work_ancilla_side(
            cfg.h_system, cfg.ancilla, DensityMatrix(0.5 * np.eye(2)), cfg.v_interaction
        )
        assert w_c == 0.0

    def test_free_interaction(self):
        spec = AncillaSpec(qubit_hamiltonian(), LN3, SIGMA_X.copy(), 0.2, 1e-2)
        w_c, q_inc = coherent_work_ancilla_side(
            qubit_hamiltonian(), spec, DensityMatrix(0.5 * np.eye(2)), np.zeros((4, 4))
        )
        assert w_c == 0.0 and q_inc == 0.0

    def test_requires_energy_conservation(self):
        spec = AncillaSpec(qubit_hamiltonian(), LN3, SIGMA_X.copy(), 0.2, 1e-2)
        v = kron(SIGMA_X, SIGMA_X)
        with pytest.raises(EnergyConservationError):
            coherent_work_ancilla_side(qubit_hamiltonian(), spec, DensityMatrix(0.5 * np.eye(2)), v)


class TestErgotropySeries:
    def spec(self, eps):
        return AncillaSpec(qubit_hamiltonian(), LN3, SIGMA_X.copy(), eps, 1.0)

    def test_zero_lambda(self):
        assert ergotropy_series(self.spec(0.0)) == 0.0

    def test_matches_exact_within_cubic_envelope(self):
        eps = 1e-2
        spec = self.spec(eps)
        rho = DensityMatrix(thermal_state(spec.h_ancilla, LN3).matrix + eps * SIGMA_X)
        assert abs(ergotropy_exact(rho, spec.h_ancilla) - ergotropy_series(spec)) <= eps**3

    def test_ratio_deviation_decays(self):
        deviations = []
        for eps in (1e-1, 1e-2, 1e-3):
            spec = self.spec(eps)
            rho = DensityMatrix(thermal_state(spec.h_ancilla, LN3).matrix + eps * SIGMA_X)
            deviations.append(abs(ergotropy_exact(rho, spec.h_ancilla) / ergotropy_series(spec) - 1.0))
        assert deviations[0] > deviations[1] > deviations[2]
