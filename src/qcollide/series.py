"""Second-order perturbative series for entropies, coherence, relative
entropy, the post-collision ancilla state, and ergotropy.

This module is the independent cross-check of the exact machinery: it never
calls the collision engine or the generator builder, only the shared dense
linear algebra, and rebuilds every quantity directly from the Hamiltonians,
``beta``, ``chi``, ``V``, ``lam`` and ``tau``.

Degenerate unperturbed spectra: the symmetric weight
``ln(p_i/p_j) / (p_i - p_j)`` has the analytic limit ``1/p_i`` and is
substituted when a gap closes; the asymmetric single-log sums have no such
limit and raise instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DiagonalCoherenceError,
    DimensionMismatchError,
    EnergyConservationError,
)
from .linalg import (
    ENERGY_CONSERVING_RTOL,
    commutator,
    dag,
    double_commutator,
    hermitian_eig,
    kron,
    max_abs,
    partial_trace,
    require_hermitian,
)
from .states import AncillaSpec, DensityMatrix

GAP_TOL = 1e-8
TRACELESS_TOL = 1e-12
ZERO_DIAGONAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PerturbedState:
    """Full-rank reference state plus a traceless Hermitian direction."""

    rho0: DensityMatrix
    direction: np.ndarray
    epsilon: float

    def __post_init__(self):
        d = require_hermitian(self.direction, name="perturbation direction")
        if d.shape[0] != self.rho0.dim:
            raise DimensionMismatchError("direction dimension differs from rho0")
        if abs(float(np.trace(d).real)) > TRACELESS_TOL:
            raise ValueError("perturbation direction must be traceless")
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        object.__setattr__(self, "direction", d)


def _in_eigenbasis(ps: PerturbedState) -> tuple[np.ndarray, np.ndarray]:
    spectrum = ps.rho0.spectrum
    v = spectrum.eigenvectors
    return spectrum.eigenvalues, dag(v) @ ps.direction @ v


def _require_gaps(p: np.ndarray) -> None:
    gaps = np.abs(p[:, None] - p[None, :])
    np.fill_diagonal(gaps, np.inf)
    smallest = float(gaps.min())
    if smallest < GAP_TOL:
        raise DegenerateSpectrumError(f"spectral gap {smallest:.3e} below tolerance")


def _symmetric_weights(p: np.ndarray) -> np.ndarray:
    """``ln(p_i/p_j)/(p_i - p_j)`` with the degenerate limit ``1/p_i``."""
    diff = p[:, None] - p[None, :]
    logs = np.log(p)[:, None] - np.log(p)[None, :]
    weights = np.empty_like(diff)
    close = np.abs(diff) < GAP_TOL
    weights[~close] = logs[~close] / diff[~close]
    weights[close] = 1.0 / np.broadcast_to(p[:, None], diff.shape)[close]
    return weights


def entropy_series(ps: PerturbedState) -> float:
    """Von Neumann entropy of ``rho0 + eps * direction`` through second order.

    The population part contributes at first and second order, the
    coherences only at second order.  Requires a non-degenerate ``rho0``.
    """
    p, sigma = _in_eigenbasis(ps)
    _require_gaps(p)
    eps = ps.epsilon
    s0 = float(-(p * np.log(p)).sum())
    diag = np.diagonal(sigma).real
    first = float((diag * np.log(p)).sum())
    second_pop = float((diag**2 / (2.0 * p)).sum())
    gaps = p[:, None] - p[None, :]
    np.fill_diagonal(gaps, 1.0)
    ratio = np.abs(sigma) ** 2 / gaps
    np.fill_diagonal(ratio, 0.0)
    second_coh = float((ratio * np.log(p)[:, None]).sum())
    return s0 - eps * first - eps * eps * (second_pop + second_coh)


def coherence_series(ps: PerturbedState) -> float:
    """Relative entropy of coherence of ``rho0 + eps * direction``.

    Valid for a strictly off-diagonal direction (in the ``rho0`` eigenbasis);
    each ordered pair contributes ``|sigma_ij|^2 ln(p_i/p_j)/(p_i - p_j)/2``,
    a manifestly non-negative weight.
    """
    p, sigma = _in_eigenbasis(ps)
    diag_size = float(np.max(np.abs(np.diagonal(sigma))))
    if diag_size > ZERO_DIAGONAL_TOL:
        raise DiagonalCoherenceError(
            f"direction has diagonal weight {diag_size:.3e} in the rho0 eigenbasis"
        )
    weights = _symmetric_weights(p)
    np.fill_diagonal(weights, 0.0)
    total = float((np.abs(sigma) ** 2 * weights).sum())
    return 0.5 * ps.epsilon**2 * total


def relative_entropy_series(
    rho0: DensityMatrix, sigma, mu, epsilon: float
) -> float:
    """Relative entropy between ``rho0 + eps*mu`` and ``rho0 + eps*sigma``.

    Second order in ``epsilon``: a classical chi-square term from the
    population mismatch plus the symmetrically weighted coherence mismatch.
    """
    base = PerturbedState(rho0=rho0, direction=sigma, epsilon=epsilon)
    other = PerturbedState(rho0=rho0, direction=mu, epsilon=epsilon)
    p, sigma_e = _in_eigenbasis(base)
    _, mu_e = _in_eigenbasis(other)
    delta = mu_e - sigma_e
    diag = np.diagonal(delta).real
    classical = float((diag**2 / p).sum())
    weights = _symmetric_weights(p)
    np.fill_diagonal(weights, 0.0)
    coherent = float((np.abs(delta) ** 2 * weights).sum())
    return 0.5 * epsilon**2 * (classical + coherent)


def _thermal_matrix(h: np.ndarray, beta: float) -> np.ndarray:
    spectrum = hermitian_eig(h, name="h_ancilla")
    weights = np.exp(-beta * (spectrum.eigenvalues - spectrum.eigenvalues[0]))
    probs = weights / weights.sum()
    v = spectrum.eigenvectors
    return (v * probs) @ dag(v)


def ancilla_drive(v_interaction, rho_system: DensityMatrix, dim_ancilla: int) -> np.ndarray:
    """System-averaged interaction ``tr_S( V (rho_S (x) I) )`` on the ancilla."""
    dim_system = rho_system.dim
    lifted = np.asarray(v_interaction, dtype=complex) @ kron(rho_system.matrix, np.eye(dim_ancilla))
    return partial_trace(lifted, dim_system, dim_ancilla, "ancilla")


def ancilla_dissipator(
    v_interaction, rho_system: DensityMatrix, rho_thermal: np.ndarray
) -> np.ndarray:
    """Ancilla-side dissipator ``-(1/2) tr_S [V, [V, rho_S (x) rho_th]]``."""
    dim_ancilla = rho_thermal.shape[0]
    joint = kron(rho_system.matrix, rho_thermal)
    nested = double_commutator(v_interaction, joint)
    return -0.5 * partial_trace(nested, rho_system.dim, dim_ancilla, "ancilla")


def ancilla_after_series(
    rho_system: DensityMatrix, spec: AncillaSpec, v_interaction
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Post-collision ancilla state through order ``tau``.

    Returns ``(prediction, drive, dissipated)``: the predicted state
    ``rho_th + sqrt(tau) (lam chi - i [G_A, rho_th])
    + tau (-i lam [G_A, chi] + D_A(rho_th))``, the system-averaged interaction
    ``G_A``, and the ancilla-side dissipator image ``D_A(rho_th)``.
    """
    v = require_hermitian(v_interaction, name="v_interaction")
    rho_th = _thermal_matrix(spec.h_ancilla, spec.beta)
    drive = ancilla_drive(v, rho_system, spec.dim)
    dissipated = ancilla_dissipator(v, rho_system, rho_th)
    root_tau = math.sqrt(spec.tau)
    prediction = (
        rho_th
        + root_tau * (spec.lam * spec.chi - 1j * commutator(drive, rho_th))
        + spec.tau * (-1j * spec.lam * commutator(drive, spec.chi) + dissipated)
    )
    prediction = 0.5 * (prediction + dag(prediction))
    return prediction, drive, dissipated


def predicted_mutual_info(beta: float, d_free_energy: float, d_coherence: float) -> float:
    """Leading-order mutual information, ``-beta dF - dC``."""
    return -beta * d_free_energy - d_coherence


def predicted_rel_entropy(beta: float, coherent_work: float, d_coherence: float) -> float:
    """Leading-order ancilla relative entropy, ``beta W_C + dC``."""
    return beta * coherent_work + d_coherence


def coherent_work_ancilla_side(
    h_system, spec: AncillaSpec, rho_system: DensityMatrix, v_interaction
) -> tuple[float, float]:
    """Coherent work and incoherent heat evaluated from the ancilla side.

    Under strict energy conservation (``[V, H_S + H_A] = 0``) these are
    operator identities with the system-side ledger values:
    ``W_C = -i lam tau <[G_A, H_A]>_chi`` and
    ``Q_inc = -tau tr(H_A D_A(rho_th))``.  The usual vanishing thermal first
    moment of ``V`` is assumed, as everywhere in the generator recipe.
    """
    h_s = require_hermitian(h_system, name="h_system")
    v = require_hermitian(v_interaction, name="v_interaction")
    h_a = spec.h_ancilla
    free = kron(h_s, np.eye(spec.dim)) + kron(np.eye(h_s.shape[0]), h_a)
    defect = max_abs(commutator(v, free))
    scale = max(1.0, max_abs(v) * max_abs(free))
    if defect > ENERGY_CONSERVING_RTOL * scale:
        raise EnergyConservationError(
            f"[V, H_S + H_A] has weight {defect:.3e}; ancilla-side bookkeeping needs it to vanish"
        )
    rho_th = _thermal_matrix(h_a, spec.beta)
    drive = ancilla_drive(v, rho_system, spec.dim)
    z = np.trace(commutator(drive, h_a) @ spec.chi)
    coherent_work = float((-1j * spec.lam * spec.tau * z).real)
    dissipated = ancilla_dissipator(v, rho_system, rho_th)
    incoherent_heat = -spec.tau * float(np.trace(h_a @ dissipated).real)
    return coherent_work, incoherent_heat


def ancilla_coherence_change_series(
    rho_system: DensityMatrix, spec: AncillaSpec, v_interaction
) -> tuple[float, float]:
    """Series values of the ancilla coherence before and after one collision.

    The before value is the quadratic coherence of the prepared state; the
    after value applies the same quadratic form to the off-diagonal part (in
    the thermal eigenbasis) of the predicted post-collision state.  Used as
    the series-mode source of the coherence change in the leading-order
    entropic identities.
    """
    rho_th = DensityMatrix(_thermal_matrix(spec.h_ancilla, spec.beta))
    before = coherence_series(
        PerturbedState(rho0=rho_th, direction=spec.chi, epsilon=spec.coherence_amplitude)
    )
    prediction, _, _ = ancilla_after_series(rho_system, spec, v_interaction)
    basis = rho_th.spectrum.eigenvectors
    delta = dag(basis) @ (prediction - rho_th.matrix) @ basis
    off = delta - np.diag(np.diagonal(delta))
    off = basis @ off @ dag(basis)
    off = 0.5 * (off + dag(off))
    root_tau = math.sqrt(spec.tau)
    after = coherence_series(
        PerturbedState(rho0=rho_th, direction=off / root_tau, epsilon=root_tau)
    )
    return before, after


def ergotropy_series(spec: AncillaSpec) -> float:
    """Ergotropy of the weakly coherent ancilla state, ``T * C`` at second order.

    Uses the coherence series of the thermal reference perturbed along
    ``chi`` with amplitude ``lam * sqrt(tau)``; requires ``beta > 0`` and
    non-degenerate thermal populations.
    """
    if not (math.isfinite(spec.beta) and spec.beta > 0.0):
        raise ValueError("ergotropy series needs beta > 0")
    rho_th = DensityMatrix(_thermal_matrix(spec.h_ancilla, spec.beta))
    _require_gaps(rho_th.eigenvalues)
    ps = PerturbedState(rho0=rho_th, direction=spec.chi, epsilon=spec.coherence_amplitude)
    return coherence_series(ps) / spec.beta
