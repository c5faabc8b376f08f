"""Canonical fixtures and randomized instance samplers.

The resonant-qubit fixture (exchange interaction plus a transverse coherence
injection) is the workhorse example: its interaction commutes with the free
Hamiltonian, the dissipator is amplitude damping, and the effective drive is
``g * sigma_x``.  The randomized samplers draw small collision instances with
either an eigenoperator-form interaction (built on matched harmonic ladders,
hence strictly energy conserving) or a generic Hermitian interaction shifted
to have no thermal first moment.
"""

from __future__ import annotations

import math

import numpy as np

from .collisions import CollisionConfig
from .lindblad import EigenoperatorCoupling, eigenoperator_interaction, thermal_first_moment
from .linalg import dag, hermitian_eig, kron, max_abs
from .rng import SplitMix64
from .states import AncillaSpec, DensityMatrix, thermal_state

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

DEFAULT_BETA = math.log(3.0)


def qubit_hamiltonian(omega: float = 1.0) -> np.ndarray:
    """``(omega/2) sigma_z``; level 0 is the excited state."""
    return 0.5 * omega * SIGMA_Z


def qubit_exchange_interaction(g: float = 1.0) -> np.ndarray:
    """Excitation-exchange coupling ``g (s+ (x) s- + s- (x) s+)``."""
    return g * (kron(SIGMA_PLUS, SIGMA_MINUS) + kron(SIGMA_MINUS, SIGMA_PLUS))


def qubit_ancilla(
    omega: float = 1.0,
    beta: float = DEFAULT_BETA,
    lam: float = 0.3,
    tau: float = 1e-2,
    chi: np.ndarray | None = None,
) -> AncillaSpec:
    return AncillaSpec(
        h_ancilla=qubit_hamiltonian(omega),
        beta=beta,
        chi=SIGMA_X.copy() if chi is None else chi,
        lam=lam,
        tau=tau,
    )


def qubit_collision(
    omega: float = 1.0,
    g: float = 1.0,
    beta: float = DEFAULT_BETA,
    lam: float = 0.3,
    tau: float = 1e-2,
    label: str = "A",
) -> CollisionConfig:
    """Resonant-qubit collision species with transverse ancilla coherence."""
    return CollisionConfig(
        h_system=qubit_hamiltonian(omega),
        v_interaction=qubit_exchange_interaction(g),
        ancilla=qubit_ancilla(omega=omega, beta=beta, lam=lam, tau=tau),
        label=label,
    )


def qubit_couplings(omega: float = 1.0, g: float = 1.0) -> list[EigenoperatorCoupling]:
    """The single jump channel of the resonant-qubit fixture."""
    return [
        EigenoperatorCoupling(
            lowering_system=SIGMA_MINUS.copy(),
            lowering_ancilla=SIGMA_MINUS.copy(),
            frequency=omega,
            amplitude=g,
        )
    ]


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def qutrit_ancilla_collision(
    omega: float = 1.0,
    g: float = 1.0,
    beta: float = DEFAULT_BETA,
    lam: float = 0.3,
    tau: float = 1e-2,
    label: str = "A",
) -> CollisionConfig:
    """Qubit system colliding with three-level ancillae carrying mixed-frequency coherence.

    The interaction exchanges single quanta with the ancilla ladder, while
    ``chi`` injects coherence on both the one- and two-quantum off-diagonals.
    Unlike the resonant-qubit fixture, no parity selection rule kills the
    half-order terms of the short-time expansion, so stroboscopic-vs-generator
    defects show the generic ``sqrt(tau)`` accumulation.
    """
    h_system = qubit_hamiltonian(omega)
    h_ancilla = omega * np.diag([0.0, 1.0, 2.0]).astype(complex)
    lower = np.zeros((3, 3), dtype=complex)
    lower[0, 1] = 1.0
    lower[1, 2] = 1.0
    v = g * (kron(SIGMA_PLUS, lower) + kron(SIGMA_MINUS, dag(lower)))
    chi = np.zeros((3, 3), dtype=complex)
    chi[0, 1] = chi[1, 0] = 1.0
    chi[0, 2] = chi[2, 0] = 1.0
    chi /= math.sqrt(2.0)  # unit spectral norm keeps the positivity margin
    spec = AncillaSpec(h_ancilla=h_ancilla, beta=beta, chi=chi, lam=lam, tau=tau)
    return CollisionConfig(h_system, v, spec, label=label)


def three_level_collision(
    tau: float,
    lam: float = 1.2,
    beta: float = DEFAULT_BETA,
    label: str = "A",
) -> CollisionConfig:
    """Two-channel three-level fixture with generic half-order coefficients.

    System and ancilla share a harmonic ladder; jump channels couple at one
    and two quanta, and ``chi`` populates every off-diagonal with assorted
    phases.  No matrix element of the short-time expansion is killed by a
    selection rule, which makes this the reference instance for
    order-of-convergence checks of the finite-duration corrections.
    """
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    lower_one_s = np.zeros((3, 3), dtype=complex)
    lower_one_s[0, 1] = 1.0
    lower_one_s[1, 2] = 0.8
    lower_one_a = np.zeros((3, 3), dtype=complex)
    lower_one_a[0, 1] = 1.0
    lower_one_a[1, 2] = 0.6
    lower_two = np.zeros((3, 3), dtype=complex)
    lower_two[0, 2] = 1.0
    v = kron(dag(lower_one_s), lower_one_a) + 0.7 * np.exp(0.3j) * kron(dag(lower_two), lower_two)
    v = v + dag(v)
    chi = np.zeros((3, 3), dtype=complex)
    chi[0, 1] = np.exp(0.4j)
    chi[1, 0] = np.conj(chi[0, 1])
    chi[0, 2] = chi[2, 0] = 0.8
    chi[1, 2] = chi[2, 1] = 0.7
    chi /= np.max(np.abs(hermitian_eig(chi).eigenvalues))
    spec = AncillaSpec(h_ancilla=h, beta=beta, chi=chi, lam=lam, tau=tau)
    return CollisionConfig(h, v, spec, label=label)


def three_level_state() -> DensityMatrix:
    """Full-rank qutrit state with coherences on every off-diagonal."""
    m = np.array(
        [
            [0.45, 0.12 + 0.06j, 0.05 + 0.02j],
            [0.12 - 0.06j, 0.33, 0.04 + 0.05j],
            [0.05 - 0.02j, 0.04 - 0.05j, 0.22],
        ],
        dtype=complex,
    )
    return DensityMatrix(m)


def random_matrix(rng: SplitMix64, dim: int) -> np.ndarray:
    a = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            a[i, j] = rng.complex_normal()
    return a


def random_hermitian(rng: SplitMix64, dim: int, scale: float = 1.0) -> np.ndarray:
    a = random_matrix(rng, dim)
    h = 0.5 * (a + dag(a))
    top = max_abs(h)
    return (scale / top) * h if top > 0 else h


def random_basis(rng: SplitMix64, dim: int) -> np.ndarray:
    """Haar-ish random unitary with a deterministic phase convention."""
    q, r = np.linalg.qr(random_matrix(rng, dim))
    phases = np.diagonal(r).copy()
    phases = phases / np.abs(phases)
    return q * phases.conj()


def random_density_matrix(rng: SplitMix64, dim: int, floor: float = 0.08) -> DensityMatrix:
    """Full-rank random state: a Wishart draw mixed with the identity."""
    a = random_matrix(rng, dim)
    w = a @ dag(a)
    w = w / float(np.trace(w).real)
    mixed = (1.0 - floor * dim) * w + floor * np.eye(dim)
    return DensityMatrix(mixed)


def random_traceless_hermitian(rng: SplitMix64, dim: int) -> np.ndarray:
    """Hermitian direction with zero trace and unit max-norm."""
    h = random_hermitian(rng, dim)
    h = h - (np.trace(h) / dim) * np.eye(dim)
    top = max_abs(h)
    return h / top if top > 0 else h


def random_gapped_probs(rng: SplitMix64, dim: int, min_gap: float = 0.1) -> np.ndarray:
    """Probability vector with all pairwise gaps at least ``min_gap``.

    Raises ``ValueError`` when no vector with entries >= 0.05 has such gaps.
    """
    # Sorted entries >= 0.05 spaced min_gap apart sum to at least this.
    if dim * 0.05 + min_gap * dim * (dim - 1) / 2 >= 1.0:
        raise ValueError(f"no {dim}-level probability vector has all gaps >= {min_gap}")
    while True:
        draws = np.array([rng.uniform(0.05, 1.0) for _ in range(dim)])
        probs = draws / draws.sum()
        gaps = np.abs(probs[:, None] - probs[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() >= min_gap and probs.min() >= 0.05:
            return probs


def random_zero_diagonal(rng: SplitMix64, basis: np.ndarray) -> np.ndarray:
    """Hermitian matrix with no diagonal weight in the given eigenbasis."""
    dim = basis.shape[0]
    x = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(i + 1, dim):
            x[i, j] = rng.complex_normal()
            x[j, i] = x[i, j].conjugate()
    top = max_abs(x)
    if top > 0:
        x = x / top
    return basis @ x @ dag(basis)


def _ladder_hamiltonian(rng: SplitMix64, dim: int, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Equally spaced spectrum in a random basis; returns (H, basis)."""
    basis = random_basis(rng, dim)
    energies = spacing * np.arange(dim) + rng.uniform(-0.3, 0.3)
    return (basis * energies) @ dag(basis), basis


def _ladder_lowering(rng: SplitMix64, basis: np.ndarray, step: int) -> np.ndarray:
    """Random combination of ``|e_i><e_{i+step}|`` terms: lowers by step*spacing."""
    dim = basis.shape[0]
    op = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - step):
        op += rng.complex_normal() * np.outer(basis[:, i], basis[:, i + step].conj())
    top = max_abs(op)
    return op / top if top > 0 else op


def _canonical_phases(basis: np.ndarray) -> np.ndarray:
    """Rephase each column so its largest-modulus entry is real and positive."""
    pivots = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    return basis * (pivots.conj() / np.abs(pivots))


def random_collision(
    rng: SplitMix64, *, eigenoperator: bool = True, dims: tuple[int, ...] = (2, 3)
) -> tuple[DensityMatrix, CollisionConfig]:
    """Draw one random collision instance (initial system state plus config).

    With ``eigenoperator=True`` the interaction is built from matched
    lowering operators on common harmonic ladders, which makes it strictly
    energy conserving and free of a thermal first moment.  Otherwise the
    interaction is a generic Hermitian matrix with the first moment shifted
    away.  The coherence strength is drawn inside the positivity margin of
    the prepared ancilla state.
    """
    dim_system = dims[rng.next_below(len(dims))]
    dim_ancilla = dims[rng.next_below(len(dims))]
    beta = rng.uniform(0.2, 2.5)
    tau = 10.0 ** rng.uniform(-4.0, -1.0)

    if eigenoperator:
        spacing = rng.uniform(0.6, 1.8)
        h_system, basis_s = _ladder_hamiltonian(rng, dim_system, spacing)
        h_ancilla, basis_a = _ladder_hamiltonian(rng, dim_ancilla, spacing)
        thermal = thermal_state(h_ancilla, beta)
        couplings = []
        for step in range(1, min(dim_system, dim_ancilla)):
            amplitude = rng.uniform(0.3, 1.0) * np.exp(2j * math.pi * rng.uniform())
            couplings.append(
                EigenoperatorCoupling(
                    lowering_system=_ladder_lowering(rng, basis_s, step),
                    lowering_ancilla=_ladder_lowering(rng, basis_a, step),
                    frequency=step * spacing,
                    amplitude=amplitude,
                )
            )
        v = eigenoperator_interaction(couplings, dim_system, dim_ancilla)
        v *= rng.uniform(0.4, 1.0) / max(max_abs(v), 1e-12)
    else:
        h_system = random_hermitian(rng, dim_system, scale=rng.uniform(0.5, 1.5))
        h_ancilla = random_hermitian(rng, dim_ancilla, scale=rng.uniform(0.5, 1.5))
        basis_a = _canonical_phases(hermitian_eig(h_ancilla).eigenvectors)
        thermal = thermal_state(h_ancilla, beta)
        v = random_hermitian(rng, dim_system * dim_ancilla, scale=rng.uniform(0.4, 1.0))
        # Remove the thermal first moment so the generator recipe applies.
        moment = thermal_first_moment(v, thermal.matrix, dim_system, dim_ancilla)
        v = v - kron(moment, np.eye(dim_ancilla))
        v = 0.5 * (v + dag(v))

    chi = random_zero_diagonal(rng, basis_a)
    chi_norm = float(np.max(np.abs(hermitian_eig(chi).eigenvalues))) if max_abs(chi) > 0 else 1.0
    lam_cap = 0.7 * float(thermal.eigenvalues[0]) / (math.sqrt(tau) * max(chi_norm, 1e-12))
    lam = lam_cap * rng.uniform(0.2, 1.0)

    spec = AncillaSpec(h_ancilla=h_ancilla, beta=beta, chi=chi, lam=lam, tau=tau)
    cfg = CollisionConfig(h_system, v, spec)
    rho_system = random_density_matrix(rng, dim_system)
    return rho_system, cfg
