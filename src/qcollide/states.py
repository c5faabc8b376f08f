"""Density matrices, thermal/weakly-coherent ancilla preparations, and the
entropic functionals used by the thermodynamic bookkeeping.

All entropies are in nats.  Eigenvalues of validated states that land in
``[-PSD_TOL, 0)`` are treated as numerical zeros when entropies are taken;
anything below ``-PSD_TOL`` is a hard positivity error rather than noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DiagonalCoherenceError,
    DimensionMismatchError,
    NotPositiveError,
    SupportViolationError,
)
from .linalg import (
    Spectrum,
    dag,
    hermitian_eig,
    require_hermitian,
)

PSD_TOL = 1e-10
TRACE_TOL = 1e-10
# Eigenvalues of sigma below this are outside its support for S(rho || sigma).
SUPPORT_EIGENVALUE_TOL = 1e-12
SUPPORT_WEIGHT_TOL = 1e-9
CHI_DIAGONAL_TOL = 1e-12


class DensityMatrix:
    """Validated density matrix with a cached eigendecomposition.

    Construction gates on Hermiticity, unit trace and positive
    semidefiniteness (eigenvalues above ``-psd_tol``), then stores the
    symmetrized matrix read-only together with its spectrum.  The von Neumann
    entropy is memoized on first use by :func:`von_neumann_entropy`.  A run's
    many states are not wrapped one by one: :func:`state_spectra` runs the
    same gates on a stack in one pass and returns the stack's spectra.
    """

    __slots__ = ("matrix", "spectrum", "_entropy")

    def __init__(self, matrix, *, psd_tol: float = PSD_TOL):
        self._store(_gated(matrix, psd_tol, stack=False))

    @classmethod
    def _wrap(cls, spectrum: Spectrum) -> "DensityMatrix":
        rho = object.__new__(cls)
        rho._store(spectrum)
        return rho

    def _store(self, spectrum: Spectrum) -> None:
        spectrum.matrix.setflags(write=False)
        object.__setattr__(self, "matrix", spectrum.matrix)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "_entropy", None)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues

    def expectation(self, operator) -> float:
        """Real part of ``tr(operator @ rho)``."""
        return float(np.trace(np.asarray(operator) @ self.matrix).real)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def state_spectra(matrices, *, psd_tol: float = PSD_TOL) -> Spectrum:
    """Gate a stack ``(n, d, d)`` of density matrices at once; return their read-only spectra.

    One Hermiticity gate and batched ``eigh`` (:func:`hermitian_eig` on the
    stack) and one check of every trace and smallest eigenvalue serve the
    whole stack, with the messages of :class:`DensityMatrix`.  Batched
    ``eigh`` gives each matrix the bits of a single call: ``spectra[k]`` is
    the spectrum of ``DensityMatrix(matrices[k], psd_tol=psd_tol)``.
    """
    stacked = _gated(matrices, psd_tol, stack=True)
    for array in (stacked.matrix, stacked.eigenvalues, stacked.eigenvectors):
        array.setflags(write=False)
    return stacked


def _gated(a, psd_tol: float, *, stack: bool) -> Spectrum:
    """Spectrum of ``a`` (one matrix, or with ``stack`` a stack) past all three state gates.

    The trace and positivity gates share one count of failures; only when it
    is nonzero do the helpers find and name the first failure, trace first.
    """
    spectrum = hermitian_eig(a, name="density matrix", stack=stack)
    traces = spectrum.matrix.trace(axis1=-2, axis2=-1).real
    smallest = spectrum.eigenvalues[..., 0]
    if np.count_nonzero((np.abs(traces - 1.0) > TRACE_TOL) | (smallest < -psd_tol)):
        _require_unit_trace(traces)
        _require_positive(smallest, psd_tol)
    return spectrum


def _require_unit_trace(traces) -> None:
    off = np.abs(traces - 1.0) > TRACE_TOL
    if off.any():
        trace = float(np.ravel(traces)[np.argmax(off)])
        raise ValueError(f"density matrix trace {trace!r} is not 1")


def _require_positive(smallest, psd_tol: float) -> None:
    below = smallest < -psd_tol
    if below.any():
        raise NotPositiveError(f"density matrix has eigenvalue {np.ravel(smallest)[np.argmax(below)]:.3e}")


@dataclass(frozen=True, eq=False)
class AncillaSpec:
    """Preparation recipe for one environment unit.

    The realized state is ``thermal(h_ancilla, beta) + sqrt(tau) * lam * chi``,
    with ``chi`` Hermitian and free of diagonal elements in the eigenbasis of
    ``h_ancilla``.  ``tau`` is the collision duration the preparation is tied
    to; ``lam`` controls the magnitude of the injected coherence.  All that
    ``(h_ancilla, beta)`` fix is cached here, as ``basis`` and ``thermal``.
    """

    h_ancilla: np.ndarray
    beta: float
    chi: np.ndarray
    lam: float
    tau: float

    def __post_init__(self):
        h = require_hermitian(self.h_ancilla, name="h_ancilla")
        chi = require_hermitian(self.chi, name="chi")
        if h.shape != chi.shape:
            raise DimensionMismatchError("h_ancilla and chi dimensions differ")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and > 0, got {self.tau!r}")
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")
        object.__setattr__(self, "h_ancilla", h)
        object.__setattr__(self, "chi", chi)

    @property
    def dim(self) -> int:
        return self.h_ancilla.shape[0]

    @property
    def coherence_amplitude(self) -> float:
        """The small parameter ``lam * sqrt(tau)`` multiplying ``chi``."""
        return self.lam * math.sqrt(self.tau)

    @cached_property
    def basis(self) -> Spectrum:
        """Eigendecomposition of ``h_ancilla``: the dephasing basis of the coherence."""
        return hermitian_eig(self.h_ancilla, name="h_ancilla")

    @cached_property
    def thermal(self) -> DensityMatrix:
        """Gibbs state of ``h_ancilla`` at ``beta``, built from :attr:`basis`."""
        return DensityMatrix._wrap(gibbs_spectrum(self.basis, self.beta))


def thermal_state(h, beta: float) -> DensityMatrix:
    """Gibbs state ``exp(-beta H) / Z`` built spectrally.

    Eigenvalues are shifted by their minimum before exponentiation so large
    ``beta * H`` cannot overflow.  ``beta = 0`` gives the maximally mixed
    state.
    """
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    return DensityMatrix._wrap(gibbs_spectrum(hermitian_eig(h, name="hamiltonian"), beta))


def gibbs_spectrum(spectrum: Spectrum, beta) -> Spectrum:
    """Ascending spectrum of the Gibbs state of a Hamiltonian spectrum at ``beta``.

    ``spectrum`` may be a stack, with one ``beta`` per matrix.  The
    probabilities are the weights ``exp(-beta (E - E_min))`` over their sum;
    the trace and positivity gates read them, and ``V diag(p) V^dag`` passes
    the Hermiticity gate, so no second eigensolve is needed.
    """
    w = spectrum.eigenvalues
    weights = np.exp(-np.asarray(beta)[..., None] * (w - w[..., :1]))
    probs = weights / weights.sum(axis=-1, keepdims=True)
    # Gibbs weights fall as the energies rise; reverse both to keep them ascending.
    p, v = probs[..., ::-1], spectrum.eigenvectors[..., ::-1]
    if np.any(np.diff(p, axis=-1) < 0.0):
        raise ValueError("spectrum eigenvalues must be ascending")
    _require_unit_trace(p.sum(axis=-1))
    m = require_hermitian((v * p[..., None, :]) @ dag(v), name="density matrix", stack=p.ndim > 1)
    _require_positive(p[..., 0], PSD_TOL)
    return Spectrum(p, v, m)


def weakly_coherent_state(spec: AncillaSpec) -> DensityMatrix:
    """Realize the thermal-plus-coherence preparation of an :class:`AncillaSpec`.

    Fails with :class:`DiagonalCoherenceError` if ``chi`` has diagonal
    elements in the ``h_ancilla`` eigenbasis, and with
    :class:`NotPositiveError` if ``lam * sqrt(tau)`` is too large for the
    state to stay positive at this finite ``tau``.
    """
    return DensityMatrix(
        coherent_preparation(spec.thermal.matrix, spec.chi, spec.basis.eigenvectors, spec.coherence_amplitude)
    )


def coherent_preparation(thermal, chi, basis, amplitude) -> np.ndarray:
    """``thermal + amplitude * chi`` once ``chi`` has passed the diagonal check in ``basis``.

    Takes one preparation, or stacks with one ``amplitude`` per matrix;
    ``basis`` holds the ``h_ancilla`` eigenvectors as columns.
    :class:`DiagonalCoherenceError` names the first ``chi`` that fails.
    """
    chi_energy = dag(basis) @ chi @ basis
    diag_size = np.abs(np.diagonal(chi_energy, axis1=-2, axis2=-1)).max(axis=-1)
    failed = diag_size > CHI_DIAGONAL_TOL
    if np.count_nonzero(failed):
        raise DiagonalCoherenceError(
            f"chi has diagonal weight {np.ravel(diag_size)[np.argmax(failed)]:.3e} in the ancilla energy basis"
        )
    return thermal + np.asarray(amplitude)[..., None, None] * chi


def shannon_entropy(probs: np.ndarray) -> np.ndarray:
    """``-sum p ln p`` of a probability vector, or of each row of a stack of them.

    Raises :class:`NotPositiveError` for the first vector with an entry
    below ``-PSD_TOL``.
    """
    p = np.asarray(probs, dtype=float)
    below = p.min(axis=-1) < -PSD_TOL
    if np.count_nonzero(below):
        raise NotPositiveError(f"probability {np.ravel(p.min(axis=-1))[np.argmax(below)]:.3e} below tolerance")
    # Entries in [-PSD_TOL, 0] are numerical zeros and, as 1 ln 1, add zero.
    kept = np.where(p > 0.0, p, 1.0)
    return -(kept * np.log(kept)).sum(axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """``-sum p ln p`` over the eigenvalues, with ``0 ln 0 = 0``; computed once per state."""
    if rho._entropy is None:
        object.__setattr__(rho, "_entropy", float(shannon_entropy(rho.eigenvalues)))
    return rho._entropy


def log_on_support(spectrum: Spectrum) -> np.ndarray:
    """``ln(sigma)`` restricted to the support of a state (or each of a stack) with this spectrum."""
    w = spectrum.eigenvalues
    # Outside the support the logarithm is taken as ln 1, so those eigenvectors drop out.
    logs = np.log(np.where(w > SUPPORT_EIGENVALUE_TOL, w, 1.0))
    v = spectrum.eigenvectors
    return (v * logs[..., None, :]) @ dag(v)


def support_kernel(sigma: DensityMatrix) -> np.ndarray:
    """Eigenvectors of ``sigma`` outside its support, as columns; none for a full-rank state."""
    return sigma.spectrum.eigenvectors[:, sigma.eigenvalues <= SUPPORT_EIGENVALUE_TOL]


def require_support(spectrum: Spectrum, kernel: np.ndarray) -> None:
    """Raise :class:`SupportViolationError` when a state puts weight on ``kernel``.

    ``spectrum`` is that of one state or of a stack, each state held against
    ``kernel``, orthonormal columns as :func:`support_kernel` returns them.
    The weight is measured per eigenvector with eigenvalue above tolerance.
    """
    carried = spectrum.eigenvalues > SUPPORT_EIGENVALUE_TOL
    overlaps = (np.abs(dag(kernel) @ spectrum.eigenvectors) ** 2).sum(axis=-2)
    worst = np.where(carried, overlaps, 0.0).max(axis=-1, initial=0.0)
    failed = worst > SUPPORT_WEIGHT_TOL
    if np.count_nonzero(failed):
        raise SupportViolationError(
            f"first state has weight {np.ravel(worst)[np.argmax(failed)]:.3e} outside the support of the second"
        )


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy ``tr(rho ln rho) - tr(rho ln sigma)``.

    Raises :class:`SupportViolationError` (instead of returning infinity)
    when an eigenvector of ``rho`` with weight above tolerance leaks outside
    the support of ``sigma``.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError("states have different dimensions")
    kernel = support_kernel(sigma)
    if kernel.shape[1]:
        require_support(rho.spectrum, kernel)
    cross = float(np.trace(rho.matrix @ log_on_support(sigma.spectrum)).real)
    return -von_neumann_entropy(rho) - cross


def relative_entropy_of_coherence(rho: DensityMatrix, h_reference) -> float:
    """Coherence of ``rho`` relative to the eigenbasis of ``h_reference``.

    Inside degenerate blocks of ``h_reference`` the dephasing basis is the one
    LAPACK ``eigh`` returns: deterministic on one machine, not canonical.
    """
    return coherence_in_basis(rho, hermitian_eig(h_reference, name="h_reference"))


def coherence_in_basis(rho: DensityMatrix, basis: Spectrum) -> float:
    """``S(dephased rho) - S(rho)`` with off-diagonals zeroed in ``basis``."""
    if basis.dim != rho.dim:
        raise DimensionMismatchError("reference Hamiltonian dimension differs from state")
    populations = np.diagonal(dag(basis.eigenvectors) @ rho.matrix @ basis.eigenvectors).real
    return float(coherence_from_populations(populations, von_neumann_entropy(rho)))


def coherence_from_populations(populations: np.ndarray, entropy) -> np.ndarray:
    """``S(diag(populations)) - entropy`` for the dephased ``populations`` of a state of that entropy.

    Takes one state's populations, or a stack of them with one entropy each.
    """
    value = shannon_entropy(populations) - entropy
    # The dephased state majorizes rho, so the true value is >= 0; tiny
    # negatives are cancellation noise.
    return np.maximum(value, 0.0)


def free_energy(rho: DensityMatrix, h, beta: float) -> float:
    """Non-equilibrium free energy ``<H> - S(rho)/beta``."""
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")
    return rho.expectation(h) - von_neumann_entropy(rho) / beta


def ergotropy_exact(rho: DensityMatrix, h) -> float:
    """Maximum unitarily extractable work from ``rho`` under Hamiltonian ``h``.

    The passive competitor pairs the populations of ``rho`` sorted descending
    with the energies sorted ascending.
    """
    spectrum = hermitian_eig(h, name="hamiltonian")
    if spectrum.dim != rho.dim:
        raise DimensionMismatchError("hamiltonian dimension differs from state")
    populations_desc = rho.eigenvalues[::-1]
    passive_energy = float(np.dot(populations_desc, spectrum.eigenvalues))
    value = rho.expectation(h) - passive_energy
    return value if value > 0.0 else 0.0


def trace_distance(rho, sigma):
    """``(1/2) || rho - sigma ||_1`` from the eigenvalues of the difference.

    ``rho`` and ``sigma`` are two states, or two stacks ``(n, d, d)`` of the
    matrices of states, paired matrix by matrix into an array of ``n``
    distances.  Stored state matrices are exactly symmetrized and finite, so
    the difference needs no Hermiticity gate and no eigenvectors.
    """
    a = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    b = sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma)
    if a.shape != b.shape:
        raise DimensionMismatchError("states have different dimensions")
    distances = 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)
    return float(distances) if distances.ndim == 0 else distances
