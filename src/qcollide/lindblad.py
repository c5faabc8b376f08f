"""Continuous-time generator built from the collision ingredients.

The generator acts as ``L(rho) = -i [H_eff, rho] + sum_j D_j(rho)`` with
``H_eff = H_S + sum_j lam_j G_j``.  Every superoperator is a dense
``d^2 x d^2`` matrix on column-stacked density matrices, built once in closed
form: the drift and the jump dissipators from ``vec(A X B) = (B^T (x) A)
vec(X)``, each thermal dissipator from one contraction over ``V`` and
``rho_th`` (:func:`~qcollide.linalg.reduced_superoperator`).  Applying the
generator is one matrix-vector product; steady-state solves and the
spectral norm are plain dense linear algebra.

The same matrices carry the time stepping and the rates.  One classical RK4
step over ``h`` is the fixed matrix ``R(h) = sum_{k<=4} (hL)^k / k!``
(:func:`rk4_propagator`), so the states of :func:`integrate` are powers of
one matrix applied to ``vec(rho0)``.  :func:`powers` forms them by repeated
squaring, as it does the round starts of a collision run, and the step
states are gated in one batched pass into one spectrum stack, as a
collision run's are.  The generator keeps the system Hamiltonian it is
built from, so :func:`rate_columns` needs only the generator and a stack of
states: it reads each species' work and heat rate, and the energy rate, off
rows cached on the generator, since a row ``x.reshape(-1)`` dotted with
``vec(rho)`` is ``tr(x rho)``, in one stacked matvec over all the states,
and gates each state on its rank and its energy closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    EigenoperatorError,
    FirstMomentError,
    PositivityLostError,
    QCollideError,
    RankDeficientError,
    StepSizeError,
    TraceDriftError,
)
from .linalg import (
    Spectrum,
    ancilla_average,
    commutator,
    dag,
    kron,
    max_abs,
    reduced_superoperator,
    require_hermitian,
)
from .states import TRACE_TOL, AncillaSpec, DensityMatrix, state_spectra, thermal_state

FIRST_MOMENT_TOL = 1e-9
EIGENOPERATOR_TOL = 1e-9
DETAILED_BALANCE_RTOL = 1e-10
INTEGRATOR_PSD_TOL = 1e-6
STEADY_STATE_RESIDUAL_TOL = 1e-9
RANK_EIGENVALUE_TOL = 1e-13


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(matrix, dtype=complex).reshape(-1, order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`, of one vector or of each vector along the last axis of a stack."""
    v = np.asarray(vector, dtype=complex)
    return v.reshape(*v.shape[:-1], dim, dim).swapaxes(-1, -2)


def coherent_generator(v_interaction, chi, dim_system: int, dim_ancilla: int) -> np.ndarray:
    """Effective driving operator ``tr_A( V (I (x) chi) )`` on the system.

    Hermitian whenever ``V`` and ``chi`` are; the output is symmetrized after
    passing that gate.  ``V`` and ``chi`` may be stacks, paired matrix by
    matrix.
    """
    g = ancilla_average(v_interaction, chi, dim_system, dim_ancilla)
    return require_hermitian(g, name="coherent generator", stack=g.ndim > 2)


def thermal_first_moment(v_interaction, rho_thermal, dim_system: int, dim_ancilla: int) -> np.ndarray:
    """``tr_A( V (I (x) rho_th) )``; must vanish for the dissipator recipe."""
    return ancilla_average(v_interaction, rho_thermal, dim_system, dim_ancilla)


@dataclass(frozen=True, eq=False)
class SpeciesTerm:
    """Per-environment-species piece of the generator."""

    label: str
    beta: float
    lam: float
    coherent_op: np.ndarray
    dissipator: np.ndarray


class LindbladGenerator:
    """Dense master-equation generator with per-species bookkeeping.

    Built from the system Hamiltonian ``H_S``, which it keeps gated as
    :attr:`h_system`, and the species terms; the effective Hamiltonian is
    ``H_S + sum_j lam_j G_j``, exactly Hermitian as a real-weighted sum of
    symmetrized matrices.
    """

    def __init__(self, h_system, species: list[SpeciesTerm]):
        self.h_system = require_hermitian(h_system, name="h_system")
        if not species:
            raise ValueError("generator needs at least one species term")
        self.species = list(species)
        self.h_eff = self.h_system + sum(term.lam * term.coherent_op for term in self.species)
        self.dim = self.h_system.shape[0]
        expected = self.dim * self.dim
        for term in self.species:
            if term.dissipator.shape != (expected, expected):
                raise DimensionMismatchError("dissipator dimension mismatch")
        self.dissipator = sum(term.dissipator for term in self.species)

    def apply(self, rho_matrix: np.ndarray) -> np.ndarray:
        """``-i [H_eff, rho] + D(rho)``, through :attr:`matrix`."""
        return unvec(self.matrix @ vec(rho_matrix), self.dim)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Full generator as a matrix on column-stacked states.

        Raises ``ValueError`` when an entry is not finite, as when an
        interaction so large that ``V^2`` overflows feeds a dissipator.
        """
        eye = np.eye(self.dim)
        m = -1j * (kron(eye, self.h_eff) - kron(self.h_eff.T, eye)) + self.dissipator
        if not np.isfinite(m).all():
            raise ValueError("Lindblad generator matrix has non-finite entries")
        return m

    @cached_property
    def norm(self) -> float:
        """Spectral norm ``||L||_2`` of :attr:`matrix`, its largest singular value."""
        return float(np.linalg.norm(self.matrix, 2))

    @cached_property
    def rate_rows(self) -> np.ndarray:
        """Rows that map ``vec(rho)`` to the work, heat and energy rates of :func:`rate_columns`.

        One row per species for the coherent work ``i lam_j tr([G_j, H_S] rho)``,
        then one per species for the heat ``tr(H_S D_j(rho))``, then the energy
        rate ``tr(H_S L(rho))``.
        """
        h_s = self.h_system
        h_row = h_s.reshape(-1)
        return np.array(
            [1j * t.lam * commutator(t.coherent_op, h_s).reshape(-1) for t in self.species]
            + [h_row @ t.dissipator for t in self.species]
            + [h_row @ self.matrix]
        )


def multi_bath_generator(
    h_system, species: list[tuple[AncillaSpec, np.ndarray]], labels: list[str]
) -> LindbladGenerator:
    """Additive generator for several independent ancilla species.

    Raises :class:`FirstMomentError` if an interaction has a thermal first moment.
    """
    if not species:
        raise ValueError("need at least one species")
    if len(labels) != len(species):
        raise ValueError("labels length does not match species")
    h_s = require_hermitian(h_system, name="h_system")
    terms = [_species_term(h_s, spec, v, label) for (spec, v), label in zip(species, labels)]
    return LindbladGenerator(h_s, terms)


def _species_term(h_s: np.ndarray, spec: AncillaSpec, v_interaction, label: str) -> SpeciesTerm:
    """Coherent drive and thermal dissipator of one species on the system of ``h_s``."""
    v = require_hermitian(v_interaction, name="v_interaction")
    dim_system = h_s.shape[0]
    dim_ancilla = spec.dim
    if v.shape[0] != dim_system * dim_ancilla:
        raise DimensionMismatchError("interaction does not live on the joint space")
    rho_th = spec.thermal.matrix
    moment = thermal_first_moment(v, rho_th, dim_system, dim_ancilla)
    if max_abs(moment) > FIRST_MOMENT_TOL:
        raise FirstMomentError(
            f"tr_A(V rho_th) has weight {max_abs(moment):.3e}; shift V to remove it"
        )
    g = coherent_generator(v, spec.chi, dim_system, dim_ancilla)

    def term(left, right):
        return reduced_superoperator(left, right, rho_th, dim_system, dim_ancilla)

    # [V, [V, X]] = V^2 X + X V^2 - 2 V X V with X = rho (x) rho_th.  Should V^2
    # overflow, the generator's finiteness gate rejects it, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        v2, eye = v @ v, np.eye(v.shape[0])
        dissipator = -0.5 * (term(v2, eye) + term(eye, v2) - 2.0 * term(v, v))
    return SpeciesTerm(label=label, beta=spec.beta, lam=spec.lam, coherent_op=g, dissipator=dissipator)


@dataclass(frozen=True, eq=False)
class EigenoperatorCoupling:
    """One ``g L^dag (x) A + h.c.`` coupling between matched lowering operators.

    ``lowering_system`` and ``lowering_ancilla`` must lower their respective
    Hamiltonians by the same Bohr frequency.
    """

    lowering_system: np.ndarray
    lowering_ancilla: np.ndarray
    frequency: float
    amplitude: complex

    def validate(self, h_system=None, h_ancilla=None) -> None:
        for h, op, side in (
            (h_system, self.lowering_system, "system"),
            (h_ancilla, self.lowering_ancilla, "ancilla"),
        ):
            if h is None:
                continue
            h = np.asarray(h, dtype=complex)
            defect = commutator(h, op) + self.frequency * np.asarray(op, dtype=complex)
            scale = max(1.0, max_abs(h) * max_abs(np.asarray(op)))
            if max_abs(defect) > EIGENOPERATOR_TOL * scale:
                raise EigenoperatorError(
                    f"{side} operator is not an eigenoperator at frequency {self.frequency}"
                )


def eigenoperator_interaction(couplings: list[EigenoperatorCoupling], dim_system: int, dim_ancilla: int) -> np.ndarray:
    """Interaction ``sum_k g_k L_k^dag (x) A_k + h.c.`` on the joint space.

    The lowering operators of the couplings may be stacks ``(n, d, d)``,
    with one amplitude per matrix; the result is then a stack.
    """
    v = np.zeros((dim_system * dim_ancilla,) * 2, dtype=complex)
    for c in couplings:
        lowering_system = np.asarray(c.lowering_system, dtype=complex)
        term = np.asarray(c.amplitude)[..., None, None] * kron(dag(lowering_system), c.lowering_ancilla)
        v = v + (term + dag(term))
    return v


@dataclass(frozen=True)
class JumpRates:
    """Downward/upward rates of one jump channel."""

    frequency: float
    gamma_minus: float
    gamma_plus: float


def eigenoperator_dissipator(
    couplings: list[EigenoperatorCoupling],
    h_ancilla,
    beta: float,
    h_system=None,
) -> tuple[list[JumpRates], np.ndarray]:
    """Thermal jump dissipator ``sum_k gamma_k^- D[L_k] + gamma_k^+ D[L_k^dag]``.

    Rates are thermal averages ``gamma^- = |g|^2 <A A^dag>``,
    ``gamma^+ = |g|^2 <A^dag A>`` and are verified to satisfy detailed balance
    ``gamma^+ / gamma^- = exp(-beta omega)`` to ``1e-10`` relative.
    """
    if not couplings:
        raise ValueError("need at least one coupling")
    rho_th = thermal_state(h_ancilla, beta).matrix
    dim_system = np.asarray(couplings[0].lowering_system).shape[0]
    rates: list[JumpRates] = []
    eye = np.eye(dim_system)
    matrix = np.zeros((dim_system * dim_system,) * 2, dtype=complex)
    for c in couplings:
        c.validate(h_system=h_system, h_ancilla=h_ancilla)
        a_op = np.asarray(c.lowering_ancilla, dtype=complex)
        l_op = np.asarray(c.lowering_system, dtype=complex)
        if l_op.shape[0] != dim_system:
            raise DimensionMismatchError("couplings act on different system dimensions")
        weight = abs(c.amplitude) ** 2
        gamma_minus = weight * float(np.trace(a_op @ dag(a_op) @ rho_th).real)
        gamma_plus = weight * float(np.trace(dag(a_op) @ a_op @ rho_th).real)
        target = math.exp(-beta * c.frequency)
        if gamma_minus <= 0.0:
            if gamma_plus > 0.0:
                raise EigenoperatorError("vanishing downward rate with nonzero upward rate")
        elif abs(gamma_plus / gamma_minus - target) > DETAILED_BALANCE_RTOL * target:
            raise EigenoperatorError(
                f"rates {gamma_plus:.6e}/{gamma_minus:.6e} break detailed balance "
                f"at frequency {c.frequency}"
            )
        rates.append(JumpRates(frequency=c.frequency, gamma_minus=gamma_minus, gamma_plus=gamma_plus))
        # vec(A X B) = (B^T (x) A) vec(X) turns D[J] into Kronecker products.
        for rate, jump in ((gamma_minus, l_op), (gamma_plus, dag(l_op))):
            jj = dag(jump) @ jump
            matrix += rate * (kron(jump.conj(), jump) - 0.5 * (kron(eye, jj) + kron(jj.T, eye)))
    return rates, matrix


def rk4_propagator(l_matrix: np.ndarray, h: float) -> np.ndarray:
    """Matrix ``I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24`` of one classical RK4 step over ``h``."""
    hl = h * l_matrix
    eye = np.eye(l_matrix.shape[0])
    # Horner form: I + hL (I + hL/2 (I + hL/3 (I + hL/4))).
    r = eye + hl / 4.0
    for k in (3.0, 2.0, 1.0):
        r = eye + (hl @ r) / k
    return r


def powers(matrix: np.ndarray, x0: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the rows ``(M^k x0)^T``, ``k = 0..len(out)-1``, by doubling; return it.

    Row ``k + len`` is row ``k`` times the jump ``(M^T)^len``, so
    ``len(out)`` rows take about ``2 log2(len(out))`` matrix products, the
    jump squared only while rows remain.  An empty ``out`` takes none.
    """
    if len(out):
        out[0] = x0
        done, jump = 1, matrix.T
        while done < len(out):
            k = min(done, len(out) - done)
            np.matmul(out[:k], jump, out=out[done : done + k])
            done += k
            if done < len(out):
                jump = jump @ jump
    return out


def integrate(
    gen: LindbladGenerator, rho0: DensityMatrix, t_final: float, dt: float
) -> tuple[np.ndarray, Spectrum]:
    """Fixed-step RK4 integration of the master equation.

    The step must satisfy ``dt <= 0.1 / ||L||``, with the exact spectral norm
    :attr:`LindbladGenerator.norm`.  The whole ``dt`` steps are the
    :func:`powers` of ``R(dt)`` (:func:`rk4_propagator`) from its first
    step, and a remainder step is one more matvec with its own propagator.
    The raw step matrices are then gated together by one
    :func:`~qcollide.states.state_spectra` call, with positivity loosened
    to ``-1e-6``, since a coarse but admissible step can push eigenvalues
    slightly negative.  The trace is never renormalized.  When the stack
    fails its gate, the steps are gated one at a time to find the first that
    fails: with its trace off 1 by more than the state's own trace tolerance
    it raises :class:`TraceDriftError`, otherwise :class:`PositivityLostError`.
    Returns the end time of each step and the read-only spectrum stack of
    the states there; like a trajectory record, neither holds ``rho0``.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be finite and >= 0, got {t_final!r}")
    if rho0.dim != gen.dim:
        raise DimensionMismatchError("state dimension differs from generator")
    if gen.norm > 0.0 and dt > 0.1 / gen.norm:
        raise StepSizeError(f"dt={dt} exceeds stability bound {0.1 / gen.norm:.3e}")

    n_whole = int(math.floor(t_final / dt + 1e-9))
    remainder = t_final - n_whole * dt
    steps = [dt] * n_whole
    if remainder > 1e-12 * max(t_final, 1.0):
        steps.append(remainder)
    # The sums of a loop that adds the steps in order, from 0.0.
    times = np.add.accumulate(steps, dtype=float)
    raw = np.empty((len(steps), gen.dim**2), dtype=complex)
    state = vec(rho0.matrix)
    # Steps after one that leaves the cone are computed before the gate finds it;
    # should they overflow, the gate rejects them, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        if n_whole:
            step = rk4_propagator(gen.matrix, dt)
            state = powers(step, step @ state, raw[:n_whole])[-1]
        if len(steps) > n_whole:
            np.matmul(rk4_propagator(gen.matrix, remainder), state, out=raw[-1])
        matrices = unvec(raw, gen.dim)
        try:
            return times, state_spectra(matrices, psd_tol=INTEGRATOR_PSD_TOL)
        except (QCollideError, ValueError):
            for t, rho in zip(times.tolist(), matrices):
                _gate_step(t, rho)
            raise


def _gate_step(t: float, rho: np.ndarray) -> None:
    """Gate one step's matrix, naming a failure as trace drift or lost positivity at ``t``."""
    try:
        DensityMatrix(rho, psd_tol=INTEGRATOR_PSD_TOL)
    except (QCollideError, ValueError) as exc:
        drift = abs(float(rho.trace().real) - 1.0)
        if drift > TRACE_TOL:
            raise TraceDriftError(f"trace drifted by {drift:.3e} at t={t}") from exc
        raise PositivityLostError(f"state left the positive cone at t={t}: {exc}") from exc


def steady_state(gen: LindbladGenerator) -> DensityMatrix:
    """Solve ``L(rho) = 0`` with unit trace as a dense linear system.

    The first row of the generator matrix (the equation for the (0, 0)
    entry, which is linearly dependent through trace annihilation) is
    replaced by the vectorized trace constraint.  Uniqueness is asserted by a
    rank check of the constrained system.
    """
    if gen.dim > 16:
        raise DimensionMismatchError("steady-state solve supports dimension <= 16")
    size = gen.dim * gen.dim
    constrained = gen.matrix.copy()
    trace_row = np.zeros(size, dtype=complex)
    trace_row[:: gen.dim + 1] = 1.0
    constrained[0, :] = trace_row
    rhs = np.zeros(size, dtype=complex)
    rhs[0] = 1.0
    if np.linalg.matrix_rank(constrained) < size:
        raise DegenerateSteadyStateError("steady state is not unique (rank-deficient system)")
    solution = np.linalg.solve(constrained, rhs)
    rho = unvec(solution, gen.dim)
    rho = 0.5 * (rho + dag(rho))
    residual = max_abs(gen.apply(rho))
    if residual > STEADY_STATE_RESIDUAL_TOL:
        raise DegenerateSteadyStateError(f"steady-state residual {residual:.3e} too large")
    return DensityMatrix(rho)


def rate_columns(gen: LindbladGenerator, states: Spectrum) -> np.ndarray:
    """Energy, work, heat and entropy rates of the generator at each of ``states``, as rows ``(n, 2m + 3)``.

    ``states`` is the spectrum of one state or a stack of ``n``.  Each row
    holds the ``m`` species' coherent work rates, their heat rates, the
    energy rate, the entropy rate and the entropy production rate.  One
    stacked matvec with :attr:`LindbladGenerator.rate_rows` gives the work,
    heat and energy rates; the entropy rate is ``-tr(L(rho) ln rho)`` from
    one more, valid because the generator annihilates the trace, with
    ``ln(rho)`` from each state's stored spectrum.  Each state is gated on
    its rank, since rank-deficient states are reported as errors rather than
    regularized, and then on the closure of its energy rate against the work
    and heat rates; the first state that fails raises, its rank gate first.
    """
    if states.dim != gen.dim:
        raise DimensionMismatchError("state dimension differs from generator")
    d, n = gen.dim, len(gen.species)
    w = states.eigenvalues.reshape(-1, d)
    v = states.eigenvectors.reshape(-1, d, d)
    # A stack of column vectors vec(rho): matmul then takes each state's matvec, bit for bit.
    s = states.matrix.reshape(-1, d, d).swapaxes(1, 2).reshape(-1, d * d, 1)
    # ln(rho) of a rank-deficient state is not finite; its rank gate rejects it below.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_rho = (v * np.log(w)[:, None, :]) @ dag(v)
        entropy_rate = -np.matmul(log_rho.reshape(-1, 1, d * d), np.matmul(gen.matrix, s))[:, 0, 0].real
    values = np.matmul(gen.rate_rows, s)[..., 0].real
    work, heat, energy_rate = values[:, :n], values[:, n : 2 * n], values[:, 2 * n]
    # Column sums in the order of a sum over one state's rates.
    closure = np.abs(energy_rate - (sum(work.T) + sum(heat.T)))
    scale = np.maximum(np.maximum(1.0, np.abs(energy_rate)), sum(np.abs(work).T) + sum(np.abs(heat).T))
    rank_deficient = w[:, 0] < RANK_EIGENVALUE_TOL
    failed = rank_deficient | (closure > 1e-10 * scale)
    if np.count_nonzero(failed):
        i = np.argmax(failed)
        if rank_deficient[i]:
            raise RankDeficientError(f"eigenvalue {w[i, 0]:.3e} too small for ln(rho)")
        raise ValueError(
            f"energy rate {float(energy_rate[i])!r} does not close against work+heat (defect {closure[i]:.3e})"
        )
    pi = entropy_rate - sum(term.beta * q for term, q in zip(gen.species, heat.T))
    return np.column_stack([work, heat, energy_rate, entropy_rate, pi])
