"""Canonical fixtures and randomized instance samplers.

The resonant-qubit fixture (exchange interaction plus a transverse coherence
injection) is the workhorse example: its interaction commutes with the free
Hamiltonian, the dissipator is amplitude damping, and the effective drive is
``g * sigma_x``.  The randomized sampler draws small collision instances with
either an eigenoperator-form interaction (built on matched harmonic ladders,
hence strictly energy conserving) or a generic Hermitian interaction shifted
to have no thermal first moment.

The sampler has two stages.  :func:`draw_collisions` takes every random
number of many instances from the SplitMix64 stream and does no linear
algebra; :func:`collision_stack` builds the instances of many draws of one
``(d_S, d_A)`` as stacked arrays, with stacked ``qr``, ``eigh`` and ``@``,
which give each matrix the bits of a single call.  :func:`random_collision`
is the one-instance case of both.

A draw reads a fixed number of outputs once its two ``dims`` outputs are
known: one per uniform and a Box-Muller pair per complex normal.  So the
draws scan only the ``dims`` outputs with scalar mixes
(:meth:`~qcollide.rng.SplitMix64.peek`), read the whole stretch of the
counter-based stream as one :meth:`~qcollide.rng.SplitMix64.block`, turn it
into uniforms and complex normals as arrays, and slice each draw's fields
out of those in stream order.  The series instances read their complex
normals through the same block and Box-Muller transform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .collisions import CollisionConfig
from .lindblad import EigenoperatorCoupling, eigenoperator_interaction, thermal_first_moment
from .linalg import Spectrum, dag, hermitian_eig, kron, max_abs, max_abs_each, require_hermitian
from .rng import SplitMix64, _complex_normals, _unit
from .states import AncillaSpec, DensityMatrix, gibbs_spectrum, state_spectra

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

DEFAULT_BETA = math.log(3.0)
# System and ancilla dimensions of the random sampler, each drawn uniformly.
RANDOM_DIMS = (2, 3)
# Smallest pairwise gap of the populations drawn by random_gapped_probs.
MIN_POPULATION_GAP = 0.12


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
) -> AncillaSpec:
    """Qubit ancilla of the resonant-qubit fixture, with coherence direction ``sigma_x``."""
    return AncillaSpec(h_ancilla=qubit_hamiltonian(omega), beta=beta, chi=SIGMA_X.copy(), lam=lam, tau=tau)


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


def qubit_couplings(g: float = 1.0) -> list[EigenoperatorCoupling]:
    """The single jump channel of the resonant-qubit fixture at unit frequency."""
    return [
        EigenoperatorCoupling(
            lowering_system=SIGMA_MINUS.copy(),
            lowering_ancilla=SIGMA_MINUS.copy(),
            frequency=1.0,
            amplitude=g,
        )
    ]


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def qutrit_ancilla_collision(
    g: float = 1.0,
    beta: float = DEFAULT_BETA,
    lam: float = 0.3,
    tau: float = 1e-2,
    label: str = "A",
) -> CollisionConfig:
    """Qubit system colliding with three-level ancillae carrying mixed-frequency coherence.

    System and ancilla ladders have unit spacing.  The interaction exchanges
    single quanta with the ancilla ladder, while ``chi`` injects coherence on
    both the one- and two-quantum off-diagonals.
    Unlike the resonant-qubit fixture, no parity selection rule kills the
    half-order terms of the short-time expansion, so stroboscopic-vs-generator
    defects show the generic ``sqrt(tau)`` accumulation.
    """
    h_system = qubit_hamiltonian()
    h_ancilla = np.diag([0.0, 1.0, 2.0]).astype(complex)
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


def three_level_collision(tau: float, label: str = "A") -> CollisionConfig:
    """Two-channel three-level fixture with generic half-order coefficients.

    System and ancilla share a harmonic ladder; jump channels couple at one
    and two quanta, and ``chi`` populates every off-diagonal with assorted
    phases.  No matrix element of the short-time expansion is killed by a
    selection rule, which makes this the reference instance for
    order-of-convergence checks of the finite-duration corrections.  The
    coherence strength is ``1.2`` and the ancilla's inverse temperature
    :data:`DEFAULT_BETA`.
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
    spec = AncillaSpec(h_ancilla=h, beta=DEFAULT_BETA, chi=chi, lam=1.2, tau=tau)
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


def _normals(rng: SplitMix64, count: int) -> np.ndarray:
    """The next ``count`` complex normals of the stream, one Box-Muller pair of outputs each."""
    return _complex_normals(rng.block(2 * count))


def _unit_max(a: np.ndarray) -> np.ndarray:
    """Each matrix of ``a`` divided by its max-norm; a zero matrix stays zero."""
    top = max_abs_each(a)
    return a / np.where(top > 0.0, top, 1.0)[..., None, None]


def _hermitian_part(a: np.ndarray, scale) -> np.ndarray:
    """Hermitian part of each matrix of ``a``, scaled to max-norm ``scale``; a zero part stays zero."""
    h = 0.5 * (a + dag(a))
    top = max_abs_each(h)
    return (scale / np.where(top > 0.0, top, 1.0))[..., None, None] * h


def _rephased_q(a: np.ndarray) -> np.ndarray:
    """``Q`` of the QR decomposition of each matrix, rephased so that ``R`` has a positive diagonal."""
    q, r = np.linalg.qr(a)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases)).conj()[..., None, :]


def _zero_diagonal(upper: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Hermitian matrix with this upper triangle (row by row) and no diagonal, unit max-norm, in ``basis``."""
    dim = basis.shape[-1]
    x = np.zeros((*upper.shape[:-1], dim, dim), dtype=complex)
    rows, cols = np.triu_indices(dim, 1)
    x[..., rows, cols] = upper
    x[..., cols, rows] = upper.conj()
    return basis @ _unit_max(x) @ dag(basis)


def random_matrix(rng: SplitMix64, dim: int) -> np.ndarray:
    return _normals(rng, dim * dim).reshape(dim, dim)


def random_hermitian(rng: SplitMix64, dim: int) -> np.ndarray:
    """Hermitian part of a complex-normal matrix, scaled to unit max-norm."""
    return _hermitian_part(random_matrix(rng, dim), 1.0)


def random_basis(rng: SplitMix64, dim: int) -> np.ndarray:
    """Haar-ish random unitary with a deterministic phase convention."""
    return _rephased_q(random_matrix(rng, dim))


def _mixed_wishart(a: np.ndarray, floor: float) -> np.ndarray:
    """``(1 - floor d) W + floor I`` for the unit-trace Wishart matrix ``W`` of each ``a``."""
    dim = a.shape[-1]
    w = a @ dag(a)
    w = w / np.trace(w, axis1=-2, axis2=-1).real[..., None, None]
    return (1.0 - floor * dim) * w + floor * np.eye(dim)


def random_traceless_hermitian(rng: SplitMix64, dim: int) -> np.ndarray:
    """Hermitian direction with zero trace and unit max-norm."""
    h = random_hermitian(rng, dim)
    h = h - (np.trace(h) / dim) * np.eye(dim)
    top = max_abs(h)
    return h / top if top > 0 else h


def random_gapped_probs(rng: SplitMix64, dim: int) -> np.ndarray:
    """Probability vector with all pairwise gaps at least :data:`MIN_POPULATION_GAP`.

    Raises ``ValueError`` when no vector with entries >= 0.05 has such gaps.
    """
    min_gap = MIN_POPULATION_GAP
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
    return _zero_diagonal(_normals(rng, dim * (dim - 1) // 2), basis)


# Kind of each output of a draw: a dims output, a uniform, or one half of a Box-Muller pair.
_DIMS, _UNIFORM, _NORMAL = 0, 1, 2


class _Layout:
    """Stands in for :class:`_Fields` to record the kind of each output one draw reads."""

    def __init__(self):
        self.kinds = [_DIMS, _DIMS]

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        self.kinds.append(_UNIFORM)
        return low

    def normals(self, count: int) -> np.ndarray:
        self.kinds += [_NORMAL] * (2 * count)
        return np.zeros(count, dtype=complex)


class _Fields:
    """The uniforms and complex normals of a stretch of the stream, read in stream order."""

    def __init__(self, uniforms: list[float], normals: np.ndarray):
        self._uniforms = iter(uniforms)
        self._normals = normals
        self._read = 0

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """The next uniform in ``[low, high)``, as :meth:`~qcollide.rng.SplitMix64.uniform` makes it."""
        return low + (high - low) * next(self._uniforms)

    def normals(self, count: int) -> np.ndarray:
        start, self._read = self._read, self._read + count
        return self._normals[start : self._read]


def _draw_fields(source: _Fields | _Layout, *, dims: tuple[int, int], eigenoperator: bool) -> dict:
    """The fields of one draw that follow its ``dims`` outputs, read from ``source`` in stream order."""
    dim_system, dim_ancilla = dims
    draw = {
        "dims": dims,
        "beta": source.uniform(0.2, 2.5),
        "tau": 10.0 ** source.uniform(-4.0, -1.0),
    }
    if eigenoperator:
        draw["spacing"] = source.uniform(0.6, 1.8)
        for side, dim in (("system", dim_system), ("ancilla", dim_ancilla)):
            draw[f"basis_{side}"] = source.normals(dim * dim)
            draw[f"offset_{side}"] = source.uniform(-0.3, 0.3)
        # Per coupling: amplitude modulus and phase, then the system and ancilla ladder weights.
        draw["couplings"] = [
            (
                source.uniform(0.3, 1.0),
                source.uniform(),
                source.normals(dim_system - step),
                source.normals(dim_ancilla - step),
            )
            for step in range(1, min(dim_system, dim_ancilla))
        ]
        draw["v_scale"] = source.uniform(0.4, 1.0)
    else:
        for key, dim, low, high in (
            ("h_system", dim_system, 0.5, 1.5),
            ("h_ancilla", dim_ancilla, 0.5, 1.5),
            ("v", dim_system * dim_ancilla, 0.4, 1.0),
        ):
            draw[f"{key}_scale"] = source.uniform(low, high)
            draw[key] = source.normals(dim * dim)
    draw["chi"] = source.normals(dim_ancilla * (dim_ancilla - 1) // 2)
    draw["lam"] = source.uniform(0.2, 1.0)
    draw["rho_system"] = source.normals(dim_system * dim_system)
    return draw


@functools.cache
def _layout(dims: tuple[int, int], eigenoperator: bool) -> bytes:
    """The kind of each output of one draw of these dims, one byte each."""
    layout = _Layout()
    _draw_fields(layout, dims=dims, eigenoperator=eigenoperator)
    return bytes(layout.kinds)


def draw_collisions(rng: SplitMix64, count: int, *, eigenoperator: bool = True) -> list[dict]:
    """Every random number of ``count`` :func:`random_collision` instances, in stream order.

    No draw depends on a linear-algebra result, so a whole suite can be
    drawn before any matrix is built.  Each draw is a dict of scalars and
    arrays of complex normals, keyed by what :func:`collision_stack` builds
    from them; ``"dims"`` is ``(d_S, d_A)``, each the entry of
    :data:`RANDOM_DIMS` at one output modulo ``len(RANDOM_DIMS)``, and
    ``"spacing"`` is present exactly for the eigenoperator branch.  The draws
    are those of reading the stream one scalar at a time, bit for bit, and
    leave ``rng`` where that would: the ``dims`` outputs fix each draw's
    length, so the draws scan them alone, then read the whole stretch as one
    block.
    """
    dims, layouts, length = [], [], 0
    for _ in range(count):
        pair = tuple(RANDOM_DIMS[rng.peek(length + k) % len(RANDOM_DIMS)] for k in (0, 1))
        layout = _layout(pair, eigenoperator)
        dims.append(pair)
        layouts.append(layout)
        length += len(layout)
    z = rng.block(length)
    kinds = np.frombuffer(b"".join(layouts), dtype=np.uint8)
    fields = _Fields(_unit(z[kinds == _UNIFORM]).tolist(), _complex_normals(z[kinds == _NORMAL]))
    return [_draw_fields(fields, dims=pair, eigenoperator=eigenoperator) for pair in dims]


@dataclass(frozen=True, eq=False)
class CollisionStack:
    """Random collision instances of one ``(d_S, d_A)`` as stacked arrays, stack axis first.

    The matrices and scalars are those that each instance's
    :class:`~qcollide.collisions.CollisionConfig` and
    :class:`~qcollide.states.AncillaSpec` store, past their gates.  ``basis``
    is the eigendecomposition of ``h_ancilla``, ``thermal`` the spectrum of
    its Gibbs state and ``rho_system`` that of the initial system state.
    """

    h_system: np.ndarray
    v_interaction: np.ndarray
    h_ancilla: np.ndarray
    chi: np.ndarray
    beta: np.ndarray
    lam: np.ndarray
    tau: np.ndarray
    basis: Spectrum
    thermal: Spectrum
    rho_system: Spectrum


def _ladder(basis: np.ndarray, spacing: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Equally spaced spectrum in each random basis."""
    energies = spacing[:, None] * np.arange(basis.shape[-1]) + offset[:, None]
    return (basis * energies[:, None, :]) @ dag(basis)


def _ladder_lowering(weights: np.ndarray, basis: np.ndarray, step: int) -> np.ndarray:
    """Weighted sum of ``|e_i><e_{i+step}|`` in each basis, unit max-norm: lowers by step*spacing."""
    op = np.zeros(basis.shape, dtype=complex)
    for i in range(basis.shape[-1] - step):
        op += weights[:, i, None, None] * (basis[:, :, i, None] * basis[:, None, :, i + step].conj())
    return _unit_max(op)


def _canonical_phases(basis: np.ndarray) -> np.ndarray:
    """Rephase each column so its largest-modulus entry is real and positive."""
    rows = np.argmax(np.abs(basis), axis=-2)[..., None, :]
    pivots = np.take_along_axis(basis, rows, axis=-2)
    return basis * (pivots.conj() / np.abs(pivots))


def collision_stack(draws: list[dict]) -> CollisionStack:
    """Build the instances of draws of one ``(d_S, d_A)`` and one sampler branch, as stacks.

    Stacked ``qr``, ``eigh`` and ``@`` give each matrix the bits of a single
    call, and every other step is elementwise, so instance ``k`` is what
    ``collision_stack([draws[k]])`` builds.  The gates that building one
    instance runs run on the stacks, in its order: the Hermiticity gates on
    ``H_A`` (as ``"hamiltonian"``, or as ``"matrix"`` for a generic
    interaction), on the Gibbs state and on ``chi`` (as ``"matrix"``), those
    of the config on ``h_ancilla``, ``chi``, ``h_system`` and
    ``v_interaction``, then the state gates on the system state.
    """
    dim_system, dim_ancilla = draws[0]["dims"]
    n = len(draws)

    def column(key: str) -> np.ndarray:
        return np.array([draw[key] for draw in draws])

    def square(key: str, dim: int) -> np.ndarray:
        return column(key).reshape(n, dim, dim)

    beta, tau = column("beta"), column("tau")
    if "spacing" in draws[0]:
        spacing = column("spacing")
        basis_system = _rephased_q(square("basis_system", dim_system))
        basis_ancilla = _rephased_q(square("basis_ancilla", dim_ancilla))
        h_system = _ladder(basis_system, spacing, column("offset_system"))
        h_ancilla = _ladder(basis_ancilla, spacing, column("offset_ancilla"))
        spectrum = hermitian_eig(h_ancilla, name="hamiltonian", stack=True)
        thermal = gibbs_spectrum(spectrum, beta)
        couplings = []
        for step, per_draw in enumerate(zip(*(draw["couplings"] for draw in draws)), start=1):
            modulus, phase, weights_system, weights_ancilla = (np.array(x) for x in zip(*per_draw))
            couplings.append(
                EigenoperatorCoupling(
                    lowering_system=_ladder_lowering(weights_system, basis_system, step),
                    lowering_ancilla=_ladder_lowering(weights_ancilla, basis_ancilla, step),
                    frequency=step * spacing,
                    amplitude=modulus * np.exp(2j * math.pi * phase),
                )
            )
        v = eigenoperator_interaction(couplings, dim_system, dim_ancilla)
        v *= (column("v_scale") / np.maximum(max_abs_each(v), 1e-12))[:, None, None]
    else:
        h_system = _hermitian_part(square("h_system", dim_system), column("h_system_scale"))
        h_ancilla = _hermitian_part(square("h_ancilla", dim_ancilla), column("h_ancilla_scale"))
        spectrum = hermitian_eig(h_ancilla, stack=True)
        basis_ancilla = _canonical_phases(spectrum.eigenvectors)
        thermal = gibbs_spectrum(spectrum, beta)
        v = _hermitian_part(square("v", dim_system * dim_ancilla), column("v_scale"))
        # Remove the thermal first moment so the generator recipe applies.
        moment = thermal_first_moment(v, thermal.matrix, dim_system, dim_ancilla)
        v = v - kron(moment, np.eye(dim_ancilla))
        v = 0.5 * (v + dag(v))

    chi = _zero_diagonal(column("chi"), basis_ancilla)
    chi_norm = np.where(max_abs_each(chi) > 0.0, np.abs(hermitian_eig(chi, stack=True).eigenvalues).max(axis=-1), 1.0)
    # The coherence strength stays inside the positivity margin of the prepared ancilla state.
    lam_cap = 0.7 * thermal.eigenvalues[:, 0] / (np.sqrt(tau) * np.maximum(chi_norm, 1e-12))
    lam = lam_cap * column("lam")
    h_ancilla = require_hermitian(h_ancilla, name="h_ancilla", stack=True)
    chi = require_hermitian(chi, name="chi", stack=True)
    h_system = require_hermitian(h_system, name="h_system", stack=True)
    v = require_hermitian(v, name="v_interaction", stack=True)

    rho_system = state_spectra(_mixed_wishart(square("rho_system", dim_system), 0.08))
    return CollisionStack(
        h_system=h_system,
        v_interaction=v,
        h_ancilla=h_ancilla,
        chi=chi,
        beta=beta,
        lam=lam,
        tau=tau,
        basis=spectrum,
        thermal=thermal,
        rho_system=rho_system,
    )


def random_collision(rng: SplitMix64, *, eigenoperator: bool = True) -> tuple[DensityMatrix, CollisionConfig]:
    """Draw one random collision instance (initial system state plus config).

    With ``eigenoperator=True`` the interaction is built from matched
    lowering operators on common harmonic ladders, which makes it strictly
    energy conserving and free of a thermal first moment.  Otherwise the
    interaction is a generic Hermitian matrix with the first moment shifted
    away.  The coherence strength is drawn inside the positivity margin of
    the prepared ancilla state.  This is the one-instance case of
    :func:`draw_collisions` and :func:`collision_stack`; the initial state
    wraps the spectrum that the stack's state gates produced.
    """
    stack = collision_stack(draw_collisions(rng, 1, eigenoperator=eigenoperator))
    spec = AncillaSpec(
        h_ancilla=stack.h_ancilla[0],
        beta=float(stack.beta[0]),
        chi=stack.chi[0],
        lam=float(stack.lam[0]),
        tau=float(stack.tau[0]),
    )
    return DensityMatrix._wrap(stack.rho_system[0]), CollisionConfig(stack.h_system[0], stack.v_interaction[0], spec)
