import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcollide.errors import DimensionMismatchError, NonHermitianError, NonSquareError
from qcollide.linalg import (
    commutator,
    dag,
    double_commutator,
    expm_unitary,
    hermitian_eig,
    kron,
    partial_trace,
    require_hermitian,
)
from qcollide.presets import SIGMA_X, SIGMA_Z
from reference import SIGMA_Y

from test_stroke_properties import TOL, seeds, stroke_settings


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


class TestHermitianEig:
    def test_diagonal_input(self):
        spec = hermitian_eig(np.diag([3.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [1.0, 3.0])
        # eigenvectors are the permuted identity
        assert np.allclose(np.abs(spec.eigenvectors), [[0, 1], [1, 0]])

    def test_sigma_x_spectrum(self):
        spec = hermitian_eig(SIGMA_X)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
    def test_reconstruction_and_orthonormality(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            m = random_hermitian(rng, d)
            spec = hermitian_eig(m)
            rebuilt = (spec.eigenvectors * spec.eigenvalues) @ dag(spec.eigenvectors)
            scale = np.max(np.abs(m))
            assert np.max(np.abs(rebuilt - m)) <= 1e-10 * scale
            gram = dag(spec.eigenvectors) @ spec.eigenvectors
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-12
            assert np.all(np.diff(spec.eigenvalues) >= -1e-15)

    def test_degenerate_spectrum(self):
        spec = hermitian_eig(np.eye(3))
        assert np.allclose(spec.eigenvalues, 1.0)
        assert np.max(np.abs(dag(spec.eigenvectors) @ spec.eigenvectors - np.eye(3))) <= 1e-12

    @pytest.mark.parametrize("d", [4, 6, 9])
    def test_rotated_degenerate_spectrum(self, d):
        # U diag(1,1,2,2,2,3,...) U^dag: degenerate blocks in a generic basis
        rng = np.random.default_rng(100 + d)
        u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        levels = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])[:d]
        m = (u * levels) @ dag(u)
        spec = hermitian_eig(m)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ dag(spec.eigenvectors)
        assert np.max(np.abs(rebuilt - m)) <= 1e-10 * np.max(np.abs(m))
        assert np.max(np.abs(dag(spec.eigenvectors) @ spec.eigenvectors - np.eye(d))) <= 1e-12
        assert np.all(np.diff(spec.eigenvalues) >= -1e-15)
        assert np.max(np.abs(spec.eigenvalues - levels)) <= 1e-12
        again = hermitian_eig(m)
        assert again.eigenvalues.tobytes() == spec.eigenvalues.tobytes()
        assert again.eigenvectors.tobytes() == spec.eigenvectors.tobytes()

    def test_zero_matrix(self):
        spec = hermitian_eig(np.zeros((4, 4)))
        assert np.allclose(spec.eigenvalues, 0.0)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            hermitian_eig(np.zeros((2, 3)))
        # a stack passes only where one is asked for, and a matrix only where a matrix is
        for gate in (require_hermitian, hermitian_eig):
            with pytest.raises(NonSquareError):
                gate(np.zeros((2, 2, 2)))
            with pytest.raises(NonSquareError):
                gate(np.zeros((2, 2)), stack=True)
            with pytest.raises(NonSquareError):
                gate(np.zeros((2, 2, 3)), stack=True)

    def test_stack_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(7)
        stack = np.array([random_hermitian(rng, 3) for _ in range(5)])
        spec = hermitian_eig(stack, stack=True)
        assert spec.dim == 3
        for i, m in enumerate(stack):
            alone = hermitian_eig(m)
            for field in ("matrix", "eigenvalues", "eigenvectors"):
                assert getattr(spec, field)[i].tobytes() == getattr(alone, field).tobytes()

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            require_hermitian(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        for bad in (complex(0.0, np.nan), complex(0.0, np.inf), -np.inf):
            m = np.zeros((2, 2), dtype=complex)
            m[0, 1] = bad
            with pytest.raises(ValueError):
                require_hermitian(m)
        # in a stack too; an infinite scale must fail although |inf - 0| <= rtol * inf
        for bad in (-np.inf, complex(0.0, np.inf), np.nan):
            stack = np.zeros((2, 2, 2), dtype=complex)
            stack[1, 0, 1] = bad
            with pytest.raises(ValueError):
                require_hermitian(stack, stack=True)


class TestExpmUnitary:
    def test_zero_time(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, 3)
        assert np.max(np.abs(expm_unitary(h, 0.0) - np.eye(3))) <= 1e-14

    def test_half_pi_sigma_x(self):
        # closed form: exp(-i theta sx) = cos(theta) I - i sin(theta) sx
        u = expm_unitary(0.5 * np.pi * SIGMA_X, 1.0)
        assert np.max(np.abs(u - (-1j) * SIGMA_X)) <= 1e-10

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_unitarity(self, d):
        rng = np.random.default_rng(d + 10)
        h = random_hermitian(rng, d)
        u = expm_unitary(h, 0.37)
        assert np.max(np.abs(dag(u) @ u - np.eye(d))) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_group_property(self, d):
        rng = np.random.default_rng(d + 20)
        h = random_hermitian(rng, d)
        t, s = rng.uniform(-5, 5, size=2)
        lhs = expm_unitary(h, t) @ expm_unitary(h, s)
        rhs = expm_unitary(h, t + s)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_system_major_convention(self):
        # system-major joint index: diag(a,b) (x) diag(c,d) = diag(ac, ad, bc, bd)
        got = kron(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
        assert np.allclose(np.diagonal(got), [10.0, 14.0, 15.0, 21.0])

    def test_mixed_product(self):
        lhs = kron(SIGMA_Z, np.eye(2)) @ kron(np.eye(2), SIGMA_Z)
        assert np.allclose(lhs, kron(SIGMA_Z, SIGMA_Z))

    def test_trace_factorizes(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 2)
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_np_kron_bit_for_bit_on_matrices_and_stacks(self, seed):
        rng = np.random.default_rng(seed)
        shape_a, shape_b = rng.integers(1, 4, size=2), rng.integers(1, 4, size=2)
        a = rng.normal(size=(4, *shape_a)) + 1j * rng.normal(size=(4, *shape_a))
        b = rng.normal(size=(4, *shape_b)) + 1j * rng.normal(size=(4, *shape_b))
        stacked = kron(a, b)
        for k in range(4):
            want = np.kron(a[k], b[k])
            assert kron(a[k], b[k]).tobytes() == want.tobytes()
            assert stacked[k].tobytes() == want.tobytes()
            assert kron(a[k], b)[k].tobytes() == want.tobytes()

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="non-finite"):
            kron(np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        joint = kron(a, b)
        assert np.max(np.abs(partial_trace(joint, 2, 3, "system") - np.trace(b) * a)) <= 1e-12
        assert np.max(np.abs(partial_trace(joint, 2, 3, "ancilla") - np.trace(a) * b)) <= 1e-12

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        projector = np.outer(bell, bell.conj())
        reduced = partial_trace(projector, 2, 2, "system")
        assert np.max(np.abs(reduced - 0.5 * np.eye(2))) <= 1e-12

    def test_random_psd_reductions(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            m = a @ a.conj().T
            m /= np.trace(m).real
            for keep, d in (("system", 2), ("ancilla", 3)):
                red = partial_trace(m, 2, 3, keep)
                assert abs(np.trace(red) - 1.0) <= 1e-12
                assert np.max(np.abs(red - dag(red))) <= 1e-12
                assert hermitian_eig(red).eigenvalues[0] >= -1e-12
                assert red.shape == (d, d)

    def test_trace_preserved(self):
        rng = np.random.default_rng(13)
        m = random_hermitian(rng, 6)
        assert abs(np.trace(partial_trace(m, 3, 2, "system")) - np.trace(m)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(5), 2, 3, "system")


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


@stroke_settings
@given(seeds, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_partial_trace_is_adjoint_to_kron(seed, d_s, d_a):
    # tr(tr_A[X] B) = tr(X (B x I)) and tr(tr_S[X] B) = tr(X (I x B)) for any X and B.
    rng = np.random.default_rng(seed)
    x = random_complex(rng, d_s * d_a)
    b_s, b_a = random_complex(rng, d_s), random_complex(rng, d_a)
    system_side = np.trace(partial_trace(x, d_s, d_a, "system") @ b_s)
    assert abs(system_side - np.trace(x @ kron(b_s, np.eye(d_a)))) <= TOL
    ancilla_side = np.trace(partial_trace(x, d_s, d_a, "ancilla") @ b_a)
    assert abs(ancilla_side - np.trace(x @ kron(np.eye(d_s), b_a))) <= TOL


class TestCommutators:
    def test_self_commutator(self):
        assert np.max(np.abs(commutator(SIGMA_X, SIGMA_X))) == 0.0

    def test_pauli_algebra(self):
        assert np.max(np.abs(commutator(SIGMA_X, SIGMA_Y) - 2j * SIGMA_Z)) <= 1e-15

    def test_identity_commutes(self):
        rng = np.random.default_rng(17)
        a = random_hermitian(rng, 4)
        assert np.max(np.abs(commutator(a, np.eye(4)))) == 0.0

    def test_double_commutator(self):
        rng = np.random.default_rng(19)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        want = a @ (a @ b - b @ a) - (a @ b - b @ a) @ a
        assert np.max(np.abs(double_commutator(a, b) - want)) <= 1e-13

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(np.eye(2), np.eye(3))
