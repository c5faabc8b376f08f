import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide.errors import (
    DiagonalCoherenceError,
    DimensionMismatchError,
    NonHermitianError,
    NotPositiveError,
    SupportViolationError,
)
from qcollide.linalg import dag, kron
from qcollide.presets import SIGMA_X, SIGMA_Z, qubit_hamiltonian
from qcollide.states import (
    AncillaSpec,
    DensityMatrix,
    ergotropy_exact,
    first_failure,
    free_energy,
    relative_entropy,
    relative_entropy_of_coherence,
    require_support,
    state_spectra,
    support_kernel,
    thermal_state,
    trace_distance,
    von_neumann_entropy,
    weakly_coherent_state,
)

from reference import mutual_information
from test_stroke_properties import seeds, stroke_settings

LN2 = math.log(2.0)
LN3 = math.log(3.0)
# -(1/4) ln(1/4) - (3/4) ln(3/4), the Gibbs qubit at beta*Omega = ln 3
ENTROPY_QUARTER = 0.5623351446188083


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T + 0.05 * np.eye(d)
    return DensityMatrix(m / np.trace(m).real)


class TestDensityMatrix:
    def test_validates_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_validates_hermiticity(self):
        m = np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NonHermitianError):
            DensityMatrix(m)

    def test_validates_positivity(self):
        with pytest.raises(NotPositiveError):
            DensityMatrix(np.diag([1.2, -0.2]))

    def test_immutability(self):
        rho = DensityMatrix(0.5 * np.eye(2))
        with pytest.raises(AttributeError):
            rho.matrix = np.eye(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 3.0


def random_state_stack(rng, n, d):
    """``n`` full-rank states of dimension ``d``, each a few ulps off Hermitian so the gate symmetrizes."""
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    m = a @ a.conj().swapaxes(-1, -2) + 0.05 * np.eye(d)
    m /= np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    return m + 1e-14 * rng.normal(size=(n, d, d))


@stroke_settings
@given(seeds, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=20))
def test_stacked_gate_matches_one_state_at_a_time(seed, d, n):
    stack = random_state_stack(np.random.default_rng(seed), n, d)
    stacked = state_spectra(stack)
    assert stacked.matrix.shape == stacked.eigenvectors.shape == (n, d, d)
    assert stacked.eigenvalues.shape == (n, d)
    for k, m in enumerate(stack):
        rho, alone = stacked[k], DensityMatrix(m)
        assert rho.matrix.tobytes() == alone.matrix.tobytes()
        assert rho.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
        assert rho.eigenvectors.tobytes() == alone.spectrum.eigenvectors.tobytes()
        for stored in (rho.matrix, rho.eigenvalues, rho.eigenvectors):
            assert not stored.flags.writeable


SPOILED = {
    "trace": ValueError,
    "negative": NotPositiveError,
    "nan": ValueError,
    "inf": ValueError,
    "non-hermitian": NonHermitianError,
}


def spoil(m, kind):
    """Break one gate of the state ``m`` in place."""
    if kind == "trace":
        m *= 1.5
    elif kind == "negative":
        # a diagonal entry below zero: trace and Hermiticity kept, positivity lost
        m[0, 0] -= 2.0
        m[1, 1] += 2.0
    elif kind == "nan":
        m[0, 1] = np.nan
    elif kind == "inf":
        m[0, 1] = np.inf
    else:
        m[0, 1] += 0.1


@stroke_settings
@given(
    seeds,
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=9),
    st.sampled_from(sorted(SPOILED)),
)
def test_one_bad_state_fails_the_stack_as_it_fails_alone(seed, d, n, position, kind):
    stack = random_state_stack(np.random.default_rng(seed), n, d)
    spoil(stack[position % n], kind)
    with pytest.raises(SPOILED[kind]) as alone:
        DensityMatrix(stack[position % n])
    with pytest.raises(SPOILED[kind]) as stacked:
        state_spectra(stack)
    assert type(alone.value) is SPOILED[kind]
    assert type(stacked.value) is SPOILED[kind]


# The gate stages of a model stack, in order: each names its own first failure,
# so a stacked pass names the first failing item only if it fails the first stage.
STAGE_ERRORS = (ValueError, NotPositiveError)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_first_failure_names_the_first_failing_item_in_few_prefix_probes(data):
    n = data.draw(st.integers(min_value=0, max_value=64))
    stages = data.draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(STAGE_ERRORS))) if n else {}
    probes = []

    def gates(k):
        probes.append(k)
        for error in STAGE_ERRORS:
            failed = [i for i in range(k) if stages.get(i) is error]
            if failed:
                raise error(f"item {failed[0]}")
        return f"{k} items passed"

    if not stages:
        assert first_failure(gates, n) == f"{n} items passed"
        assert probes == [n]
    else:
        first = min(stages)
        with pytest.raises(stages[first], match=f"^item {first}$") as caught:
            first_failure(gates, n)
        assert type(caught.value) is stages[first]
        assert len(probes) <= math.ceil(math.log2(n)) + 2
    assert all(0 <= k <= n for k in probes)


class TestDensityMatrixStack:
    def test_each_matrix_is_gated_against_its_own_scale(self):
        # an asymmetry of 1e-13 is noise next to the state's scale 0.5, but 1e-7
        # of the tiny matrix's own scale 1e-6
        state = np.diag([0.5, 0.5]).astype(complex)
        tiny = 1e-6 * np.array([[1.0, 1e-7], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NonHermitianError):
            state_spectra(np.stack([state, tiny]))

    def test_empty_stack(self):
        empty = state_spectra(np.empty((0, 3, 3)))
        assert empty.matrix.shape == empty.eigenvectors.shape == (0, 3, 3)
        assert empty.eigenvalues.shape == (0, 3)


class TestThermalState:
    def test_infinite_temperature(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = 0.5 * (a + a.conj().T)
        rho = thermal_state(h, 0.0)
        assert np.max(np.abs(rho.matrix - np.eye(4) / 4)) <= 1e-12

    def test_qubit_gibbs_weights(self):
        rho = thermal_state(qubit_hamiltonian(1.0), LN3)
        assert np.max(np.abs(rho.matrix - np.diag([0.25, 0.75]))) <= 1e-12

    def test_zero_temperature_limit(self):
        h = np.diag([0.0, 1.0, 2.5])
        rho = thermal_state(h, 1e3)
        ground = np.zeros((3, 3))
        ground[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - ground)) <= 1e-6

    def test_large_beta_no_overflow(self):
        rho = thermal_state(np.diag([-500.0, 500.0]), 10.0)
        assert abs(float(np.trace(rho.matrix).real) - 1.0) <= 1e-12


class TestWeaklyCoherentState:
    def spec(self, lam, tau, chi=None):
        return AncillaSpec(
            h_ancilla=qubit_hamiltonian(1.0),
            beta=LN3,
            chi=SIGMA_X.copy() if chi is None else chi,
            lam=lam,
            tau=tau,
        )

    def test_zero_lambda_is_thermal(self):
        rho = weakly_coherent_state(self.spec(0.0, 1e-2))
        thermal = thermal_state(qubit_hamiltonian(1.0), LN3)
        assert np.max(np.abs(rho.matrix - thermal.matrix)) == 0.0

    def test_qubit_example_matrix(self):
        # lam*sqrt(tau) = 0.1; positivity by the 2x2 determinant 0.25*0.75 - 0.01 > 0
        rho = weakly_coherent_state(self.spec(0.1, 1.0))
        want = np.array([[0.25, 0.1], [0.1, 0.75]])
        assert np.max(np.abs(rho.matrix - want)) <= 1e-14

    def test_too_much_coherence_fails(self):
        # determinant 0.25*0.75 - 0.36 < 0
        with pytest.raises(NotPositiveError):
            weakly_coherent_state(self.spec(0.6, 1.0))

    def test_diagonal_chi_rejected(self):
        with pytest.raises(DiagonalCoherenceError):
            weakly_coherent_state(self.spec(0.1, 1.0, chi=SIGMA_Z.copy()))

    def test_chi_in_rotated_basis(self):
        # chi written in the same rotated frame as H_A passes the diagonal gate
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(a)
        h_rot = q @ qubit_hamiltonian(1.0) @ dag(q)
        chi_rot = q @ SIGMA_X @ dag(q)
        spec = AncillaSpec(h_ancilla=h_rot, beta=LN3, chi=chi_rot, lam=0.1, tau=1.0)
        rho = weakly_coherent_state(spec)
        back = dag(q) @ rho.matrix @ q
        assert np.max(np.abs(back - np.array([[0.25, 0.1], [0.1, 0.75]]))) <= 1e-12


class TestEntropies:
    def test_pure_state(self):
        assert von_neumann_entropy(DensityMatrix(np.diag([1.0, 0.0]))) == 0.0

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            rho = DensityMatrix(np.eye(d) / d)
            assert abs(von_neumann_entropy(rho) - math.log(d)) <= 1e-12

    def test_hand_evaluated(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert abs(von_neumann_entropy(rho) - ENTROPY_QUARTER) <= 1e-12

    def test_relative_entropy_self(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 3)
        assert abs(relative_entropy(rho, rho)) <= 1e-12

    def test_relative_entropy_classical(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        sigma = DensityMatrix(np.diag([0.5, 0.5]))
        assert abs(relative_entropy(rho, sigma) - LN2) <= 1e-12

    def test_support_violation(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(SupportViolationError):
            relative_entropy(rho, sigma)

    def test_support_gate_on_a_stack_names_its_first_failing_state(self):
        kernel = support_kernel(DensityMatrix(np.diag([1.0, 0.0])))
        # Pure states (sqrt(1 - w), sqrt(w)), each with weight w outside the support of |0><0|.
        weights = [0.0, 0.3, 0.0, 0.7]
        vectors = [np.array([math.sqrt(1.0 - w), math.sqrt(w)]) for w in weights]
        stack = state_spectra(np.array([np.outer(v, v) for v in vectors]))
        with pytest.raises(SupportViolationError, match="^first state has weight 3.000e-01 outside"):
            require_support(stack, kernel)
        for k, w in enumerate(weights):
            if w:
                with pytest.raises(SupportViolationError, match=f"^first state has weight {w:.3e} outside"):
                    require_support(stack[k], kernel)
            else:
                require_support(stack[k], kernel)
        require_support(stack[::2], kernel)

    def test_relative_entropy_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            rho, sigma = random_density(rng, 3), random_density(rng, 3)
            assert relative_entropy(rho, sigma) >= -1e-9


class TestCoherence:
    def test_diagonal_state(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        assert relative_entropy_of_coherence(rho, SIGMA_Z) == 0.0

    def test_plus_state(self):
        plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
        assert abs(relative_entropy_of_coherence(DensityMatrix(plus), SIGMA_Z) - LN2) <= 1e-12

    def test_qubit_closed_form(self):
        m = np.array([[0.25, 0.1], [0.1, 0.75]])
        # 2x2 eigenvalue oracle: p = 1/2 +- sqrt((1/4)^2 + 0.1^2)
        split = math.hypot(0.25, 0.1)
        p = np.array([0.5 - split, 0.5 + split])
        exact = -(p * np.log(p)).sum()
        want = ENTROPY_QUARTER - exact
        got = relative_entropy_of_coherence(DensityMatrix(m), SIGMA_Z)
        assert abs(got - want) <= 1e-12

    def test_nonnegative_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            rho = random_density(rng, 3)
            h = np.diag(rng.normal(size=3))
            assert relative_entropy_of_coherence(rho, h) >= 0.0


class TestMutualInformation:
    def test_product_state(self):
        rng = np.random.default_rng(6)
        joint = DensityMatrix(kron(random_density(rng, 2).matrix, random_density(rng, 3).matrix))
        assert abs(mutual_information(joint, 2, 3)) <= 1e-9

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        rho = DensityMatrix(np.outer(bell, bell.conj()))
        assert abs(mutual_information(rho, 2, 2) - 2 * LN2) <= 1e-10


class TestFreeEnergy:
    def test_thermal_reference(self):
        h = np.diag([0.0, 1.0, 2.0])
        beta = 0.7
        rho = thermal_state(h, beta)
        z = np.exp(-beta * np.diagonal(h)).sum()
        assert abs(free_energy(rho, h, beta) + math.log(z) / beta) <= 1e-12

    def test_pure_eigenstate(self):
        h = np.diag([0.0, 1.3])
        rho = DensityMatrix(np.diag([0.0, 1.0]))
        assert abs(free_energy(rho, h, 2.0) - 1.3) <= 1e-12

    def test_free_energy_identity(self):
        # beta * (F(rho) - F(thermal)) = S(rho || thermal)
        rng = np.random.default_rng(8)
        h = np.diag([0.0, 0.8, 1.9])
        beta = 1.1
        thermal = thermal_state(h, beta)
        for _ in range(20):
            rho = random_density(rng, 3)
            lhs = beta * (free_energy(rho, h, beta) - free_energy(thermal, h, beta))
            assert abs(lhs - relative_entropy(rho, thermal)) <= 1e-9


class TestErgotropy:
    def test_thermal_is_passive(self):
        h = np.diag([0.0, 1.0, 2.3])
        for beta in (0.1, 1.0, 5.0):
            assert ergotropy_exact(thermal_state(h, beta), h) <= 1e-12

    def test_inverted_qubit(self):
        omega = 1.7
        rho = DensityMatrix(np.diag([1.0, 0.0]))  # all population on the excited level
        assert abs(ergotropy_exact(rho, qubit_hamiltonian(omega)) - omega) <= 1e-12

    def test_weakly_coherent_matches_coherence(self):
        # ratio to T * C approaches one as the coherence amplitude shrinks
        h = qubit_hamiltonian(1.0)
        deviations = []
        for eps in (1e-1, 1e-2, 1e-3):
            rho = DensityMatrix(thermal_state(h, LN3).matrix + eps * SIGMA_X)
            ratio = ergotropy_exact(rho, h) / (relative_entropy_of_coherence(rho, h) / LN3)
            deviations.append(abs(ratio - 1.0))
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[1] <= 5e-2


def test_trace_distance_basics():
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    sigma = DensityMatrix(np.diag([0.0, 1.0]))
    assert abs(trace_distance(rho, sigma) - 1.0) <= 1e-12
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_of_stacks_is_that_of_each_pair():
    rng = np.random.default_rng(11)
    rhos = [random_density(rng, 3) for _ in range(6)]
    sigmas = [random_density(rng, 3) for _ in range(6)]
    got = trace_distance(np.array([r.matrix for r in rhos]), np.array([s.matrix for s in sigmas]))
    assert got.tolist() == [trace_distance(r, s) for r, s in zip(rhos, sigmas)]
    with pytest.raises(DimensionMismatchError):
        trace_distance(np.array([r.matrix for r in rhos]), np.array([s.matrix for s in sigmas[:5]]))


class TestDimensionGates:
    def test_relative_entropy_dimension_mismatch(self):
        from qcollide.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            relative_entropy(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3))

    def test_mutual_information_dimension_mismatch(self):
        from qcollide.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            mutual_information(DensityMatrix(np.eye(4) / 4), 3, 2)

    def test_free_energy_needs_positive_beta(self):
        with pytest.raises(ValueError):
            free_energy(DensityMatrix(np.eye(2) / 2), SIGMA_Z, 0.0)
