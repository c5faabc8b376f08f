"""Dense complex matrix algebra sized for small Hermitian problems.

Everything operates on plain ``complex128`` numpy arrays of dimension up to
a few dozen: eigendecompositions sit behind a Hermiticity gate and are
closed-form for ``2 x 2`` matrices and LAPACK ``eigh`` above, matrix
exponentials are spectral, and partial traces are reshape-based.  Every
eigensolver choice of the package is made here, by the matrix dimension.
The joint-index convention is system-major throughout: a product operator
``A (x) B`` places the system index on the slow axis,
``idx = i_system * dim_ancilla + i_ancilla``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError, NonSquareError

# Relative Hermiticity gate applied before any spectral operation.
HERMITICITY_RTOL = 1e-10
# Relative bound on ``[V, H_S + H_A]`` below which an interaction counts as energy conserving.
ENERGY_CONSERVING_RTOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Return ``m`` as a fresh complex128 square matrix, rejecting NaN/Inf."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise NonSquareError(f"expected a 2-d matrix, got shape {a.shape}")
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm."""
    return float(np.abs(a).max()) if a.size else 0.0


def max_abs_each(a: np.ndarray) -> np.ndarray:
    """Entrywise max-norm of each matrix of a stack (a 0-d array for one matrix)."""
    return np.abs(a).max(axis=(-2, -1))


def require_hermitian(m, *, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Gate ``m`` on Hermiticity and return its symmetrized copy.

    ``m`` is one matrix, or with ``stack`` a stack ``(n, d, d)`` of them.
    Each matrix's deviation ``max|M - M^dag|`` must not exceed
    :data:`HERMITICITY_RTOL` times its own ``max|M|``, and every entry must
    be finite.  Matrices passing the gate are symmetrized to
    ``(M + M^dag)/2`` so that downstream spectral code sees exactly Hermitian
    arrays.  A NaN or infinite entry makes its matrix's scale NaN or
    infinite, so the input is scanned for non-finite entries only when a
    scale is not finite.  :class:`NonHermitianError` names the first matrix
    that fails.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 + stack:
        expected = "a stack (n, d, d) of matrices" if stack else "a 2-d matrix"
        raise NonSquareError(f"expected {expected}, got shape {a.shape}")
    if a.shape[-1] != a.shape[-2]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    # An infinite scale would pass the relative test below (inf <= rtol * inf), so
    # only scales below inf count.  count_nonzero stands in for .all() and .any():
    # on a 2x2 matrix their ufunc reduction costs more than the comparison.
    if np.count_nonzero(scale < np.inf) < scale.size and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    a_dag = a.swapaxes(-1, -2).conj()
    deviation = np.abs(a - a_dag).max(axis=(-2, -1), initial=0.0)
    failed = deviation > HERMITICITY_RTOL * scale
    if np.count_nonzero(failed):
        first = np.flatnonzero(failed)[0]
        raise NonHermitianError(
            f"{name} deviates from Hermiticity by {deviation.flat[first]:.3e} (scale {scale.flat[first]:.3e})"
        )
    return 0.5 * (a + a_dag)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    ``eigenvalues`` is ascending and real; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.  ``matrix`` is the exactly
    Hermitian matrix they decompose.  For a stack ``(n, d, d)`` every array
    carries the stack axis first.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def __getitem__(self, index) -> "Spectrum":
        """Spectrum of one matrix (an integer index) or of a sub-stack (a slice) of a stack."""
        return Spectrum(self.eigenvalues[index], self.eigenvectors[index], self.matrix[index])


def hermitian_eig(m, *, name: str = "matrix", stack: bool = False) -> Spectrum:
    """Eigendecomposition of a matrix passing :func:`require_hermitian`.

    A ``2 x 2`` matrix is decomposed in closed form (:func:`hermitian_eigvals`),
    a larger one by LAPACK ``eigh``.  With ``stack``, ``m`` is a stack
    ``(n, d, d)`` decomposed in one pass, elementwise for ``d = 2`` and by one
    batched ``eigh`` above, which runs the same routine on each matrix; either
    way every eigenpair equals that of a single call bit for bit.  The
    spectrum keeps the symmetrized matrix that was decomposed.  Eigenvalues
    are returned ascending.  A ``2 x 2`` multiple of the identity gets the
    identity as its basis; inside the degenerate blocks of a larger matrix
    the basis is whatever LAPACK returns: deterministic on one machine, not
    canonical.
    """
    a = require_hermitian(m, name=name, stack=stack)
    w, v = _eig2(a, vectors=True) if a.shape[-1] == 2 else np.linalg.eigh(a)
    return Spectrum(eigenvalues=w, eigenvectors=v, matrix=a)


def hermitian_eigvals(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix of a stack, with no gate.

    Only the real diagonal and the lower triangle are read, as LAPACK
    ``eigvalsh`` reads them, so ``m`` must already be Hermitian and finite.
    A ``2 x 2`` matrix ``[[a, conj(b)], [b, d]]`` has the eigenvalues
    ``(a + d)/2 -+ hypot((a - d)/2, |b|)``; a larger one goes to ``eigvalsh``.
    """
    a = np.asarray(m)
    return _eig2(a, vectors=False) if a.shape[-1] == 2 else np.linalg.eigvalsh(a)


def _eig2(a: np.ndarray, *, vectors: bool):
    """Closed-form eigenvalues, and with ``vectors`` eigenvectors, of Hermitian ``2 x 2`` matrices.

    One matrix is worked in Python floats and a stack elementwise in numpy,
    by the same sequence of ``+ - * /`` and ``sqrt``: each is correctly
    rounded on both paths, so a stack gets the bits of single calls.  The
    traceless part is first divided by a power of two near its size, which
    is exact: then no square below overflows, and one that underflows is
    below the round-off of the sum it enters.
    """
    stack = a.ndim > 2
    xp = np if stack else math
    if stack:
        p, q, b = a[..., 0, 0].real, a[..., 1, 1].real, a[..., 1, 0]
    else:
        (p, _), (b, q) = a.tolist()
        p, q = p.real, q.real
    mean, half_gap = 0.5 * (p + q), 0.5 * (p - q)
    scale = xp.ldexp(1.0, xp.frexp(abs(half_gap) + abs(b.real) + abs(b.imag))[1] - 1)
    h, br, bi = half_gap / scale, b.real / scale, b.imag / scale
    b2 = br * br + bi * bi
    r = xp.sqrt(h * h + b2)
    w = (mean - r * scale, mean + r * scale)
    w = np.stack(w, axis=-1) if stack else np.array(w)
    if not vectors:
        return w
    # (s, -y) with s = r + |h| >= r never cancels: for h <= 0 it is the
    # eigenvector of the smaller eigenvalue, for h > 0 that of the larger,
    # and (conj(y), s) is the other, so for h > 0 the two columns swap.
    # r = 0 only for a multiple of the identity, whose basis is the identity.
    s = r + abs(h) + (r == 0.0)
    n = xp.sqrt(s * s + b2)
    sign = 1 - 2 * (half_gap > 0.0)
    x, yr, yi = s / n, sign * br / n, sign * bi / n
    if not stack:
        v = np.array([[x, complex(yr, -yi)], [complex(-yr, -yi), x]])
        return w, v[:, ::-1] if half_gap > 0.0 else v
    # The single path's matrices as real and imaginary parts, entry by entry;
    # one np.where per part costs less than selecting whole swapped matrices.
    swap = half_gap > 0.0
    im_diagonal, im_off_diagonal = np.where(swap, -yi, 0.0), np.where(swap, 0.0, -yi)
    parts = (
        np.where(swap, yr, x), im_diagonal, np.where(swap, x, yr), im_off_diagonal,
        np.where(swap, x, -yr), im_off_diagonal, np.where(swap, -yr, x), im_diagonal,
    )
    return w, np.stack(parts, axis=-1).view(complex).reshape(a.shape)


def expm_unitary(h, t) -> np.ndarray:
    """Unitary ``exp(-i t H)`` for Hermitian ``H``, built spectrally.

    ``h`` may be a stack ``(n, d, d)`` with one ``t`` per matrix, decomposed
    in one :func:`hermitian_eig` pass.
    """
    a = np.asarray(h)
    spectrum = hermitian_eig(a, name="generator", stack=a.ndim > 2)
    v = spectrum.eigenvectors
    return (v * np.exp(-1j * np.asarray(t)[..., None] * spectrum.eigenvalues)[..., None, :]) @ dag(v)


def kron(a, b) -> np.ndarray:
    """Kronecker product with the system-major index convention.

    Either factor may be a stack ``(n, d, d)``; stacks pair up matrix by
    matrix, and one matrix pairs with every matrix of a stack.  Each entry is
    the single product ``a_ij b_kl`` that ``np.kron`` forms, so the result
    has its bits.  Raises ``ValueError`` on a non-finite entry.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 2 or b.ndim < 2:
        raise NonSquareError(f"expected matrices, got shapes {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("matrix contains non-finite entries")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def partial_trace(m, dim_system: int, dim_ancilla: int, keep: str) -> np.ndarray:
    """Trace out one tensor factor of a joint-space matrix.

    ``keep`` selects the surviving factor, ``"system"`` or ``"ancilla"``.
    The trace of the result equals the trace of the input.
    """
    a = as_complex_matrix(m)
    if a.shape[0] != dim_system * dim_ancilla:
        raise DimensionMismatchError(
            f"matrix of dimension {a.shape[0]} is not {dim_system} x {dim_ancilla}"
        )
    blocks = a.reshape(dim_system, dim_ancilla, dim_system, dim_ancilla)
    if keep == "system":
        return np.einsum("iaja->ij", blocks)
    if keep == "ancilla":
        return np.einsum("iaib->ab", blocks)
    raise ValueError(f"keep must be 'system' or 'ancilla', got {keep!r}")


def ancilla_average(x, sigma, dim_system: int, dim_ancilla: int) -> np.ndarray:
    """``tr_A[X (I (x) sigma)]`` of a joint-space ``X``, without forming ``I (x) sigma``.

    ``x`` and ``sigma`` may be stacks, paired matrix by matrix.
    """
    x = np.asarray(x, dtype=complex)
    blocks = x.reshape(*x.shape[:-2], dim_system, dim_ancilla, dim_system, dim_ancilla)
    return np.einsum("...iajb,...ba->...ij", blocks, sigma)


def reduced_superoperator(left, right, sigma, dim_system: int, dim_ancilla: int) -> np.ndarray:
    """``d_S^2 x d_S^2`` matrix of ``rho -> tr_A[left (rho (x) sigma) right]`` on ``vec(rho)``.

    ``vec`` stacks columns, so the flat index of entry ``(i, k)`` is
    ``i + k * d_S``.  One contraction over the joint operators; no joint
    state or matrix unit is formed.
    """
    d_s, d_a = dim_system, dim_ancilla
    l4 = np.asarray(left, dtype=complex).reshape(d_s, d_a, d_s, d_a)
    r4 = np.asarray(right, dtype=complex).reshape(d_s, d_a, d_s, d_a)
    m = np.einsum("iajb,bc,lcka->ikjl", l4, sigma, r4)
    return m.reshape(d_s * d_s, d_s * d_s, order="F")


def _conformable(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes {a.shape} and {b.shape} do not conform")


def commutator(a, b) -> np.ndarray:
    """``AB - BA`` of two matrices, or of each pair of two stacks ``(n, d, d)``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    _conformable(a, b)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("matrix contains non-finite entries")
    return a @ b - b @ a


def double_commutator(a, b) -> np.ndarray:
    """Nested commutator ``[A, [A, B]]``."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    _conformable(a, b)
    return commutator(a, commutator(a, b))
