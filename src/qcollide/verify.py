"""Verification studies shared by the CLI scenarios and the test suite.

Each study pits two independent computational routes against each other
(stroboscopic vs integrated dynamics, exact functionals vs perturbative
series, randomized exact inequalities) and reduces the comparison to a few
scalars: max distances, fitted log-log slopes, halving ratios, suite minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .collisions import CollisionConfig, collide, stroboscopic_states
from .lindblad import LindbladGenerator, integrate, multi_bath_generator, rates, rk4_step
from .rng import SplitMix64
from .presets import random_collision
from .series import (
    ancilla_coherence_change_series,
    predicted_mutual_info,
    predicted_rel_entropy,
)
from .states import DensityMatrix, free_energy, trace_distance

DEFAULT_DT_TARGET = 2e-3


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


def halving_ratios(values: Sequence[float]) -> list[float]:
    """Successive decay factors of a residual sequence."""
    return [values[i] / values[i + 1] for i in range(len(values) - 1)]


def h_scale(cfg: CollisionConfig) -> float:
    """``||H_S|| + ||H_A||`` in spectral norms, the energy scale of a species."""
    return float(
        np.max(np.abs(np.linalg.eigvalsh(cfg.h_system)))
        + np.max(np.abs(np.linalg.eigvalsh(cfg.ancilla.h_ancilla)))
    )


def generator_for(cfgs: Sequence[CollisionConfig]) -> LindbladGenerator:
    """Additive continuous-time generator matching a set of collision species."""
    return multi_bath_generator(
        cfgs[0].h_system,
        [(cfg.ancilla, cfg.v_interaction) for cfg in cfgs],
        labels=[cfg.label for cfg in cfgs],
    )


def stroboscopic_deviation(
    build_cfgs: Callable[[float], list[CollisionConfig]],
    rho0: DensityMatrix,
    taus: Sequence[float],
    t_final: float,
    dt_target: float = DEFAULT_DT_TARGET,
) -> list[tuple[float, float]]:
    """Max-over-time trace distance between collisions and the integrated flow.

    For each ``tau`` the stroboscopic trajectory (round-robin over the built
    species) is compared at every multiple of ``tau`` against an RK4
    reference on a commensurate grid.  Every ``tau`` runs to the same horizon
    ``t_final``: raises ``ValueError`` when ``t_final`` is shorter than one
    round of some ``tau``, or not a whole number of its rounds (relative
    tolerance ``1e-9``).
    """
    rounds = []
    for tau in taus:
        n_rounds = round(t_final / tau)
        if n_rounds < 1:
            raise ValueError(f"t_final={t_final!r} is shorter than one round of tau={tau!r}")
        if abs(t_final / tau - n_rounds) > 1e-9 * n_rounds:
            raise ValueError(f"t_final={t_final!r} is not a whole number of rounds of tau={tau!r}")
        rounds.append(n_rounds)
    results = []
    for tau, n_rounds in zip(taus, rounds):
        cfgs = list(build_cfgs(tau))
        schedule = "single" if len(cfgs) == 1 else "round-robin"
        strobes = stroboscopic_states(rho0, cfgs, n_rounds, schedule=schedule)
        gen = generator_for(cfgs)
        cap = 0.09 / max(gen.norm_estimate, 1e-12)
        substeps = max(1, math.ceil(tau / min(dt_target, cap)))
        reference = integrate(gen, rho0, n_rounds * tau, tau / substeps)
        worst = max(
            trace_distance(state, reference[(k + 1) * substeps][1]) for k, state in enumerate(strobes)
        )
        results.append((tau, worst))
    return results


@dataclass(frozen=True)
class IdentityResiduals:
    """Finite-duration defects of the leading-order entropic identities."""

    taus: tuple[float, ...]
    mutual_info: tuple[float, ...]
    rel_entropy: tuple[float, ...]
    first_law: tuple[float, ...]
    entropy_production: tuple[float, ...]


def entropic_identity_residuals(
    build_cfg: Callable[[float], CollisionConfig],
    rho_system: DensityMatrix,
    taus: Sequence[float],
) -> IdentityResiduals:
    """Residuals of the four leading-order identities across a ``tau`` grid.

    Mutual-information and ancilla-relative-entropy predictions use the
    series value of the coherence change; the first-law and
    entropy-production residuals use exact ledger entries only.
    """
    r_mutual, r_rel, r_first, r_sigma = [], [], [], []
    for tau in taus:
        cfg = build_cfg(tau)
        ledger = collide(rho_system, cfg).ledger
        beta = cfg.ancilla.beta
        c_before, c_after = ancilla_coherence_change_series(
            rho_system, cfg.ancilla, cfg.v_interaction
        )
        d_coherence = c_after - c_before
        r_mutual.append(
            abs(ledger.mutual_info - predicted_mutual_info(beta, ledger.d_free_energy, d_coherence))
        )
        r_rel.append(
            abs(ledger.rel_entropy_ancilla - predicted_rel_entropy(beta, ledger.coherent_work, d_coherence))
        )
        r_first.append(abs(ledger.d_energy - (ledger.coherent_work + ledger.incoherent_heat)))
        r_sigma.append(
            abs(ledger.entropy_production - beta * (ledger.coherent_work - ledger.d_free_energy))
        )
    return IdentityResiduals(
        taus=tuple(taus),
        mutual_info=tuple(r_mutual),
        rel_entropy=tuple(r_rel),
        first_law=tuple(r_first),
        entropy_production=tuple(r_sigma),
    )


@dataclass(frozen=True)
class SuiteSample:
    """Scalars extracted from one randomized collision."""

    index: int
    dim_system: int
    dim_ancilla: int
    tau: float
    entropy_production: float
    mutual_info: float
    rel_entropy_ancilla: float
    work_scaled: float
    coherent_bound_scaled: float


@dataclass(frozen=True)
class SuiteSummary:
    """Extremes of the randomized collision suite."""

    count: int
    min_entropy_production: float
    min_mutual_info: float
    min_rel_entropy: float
    max_abs_work_scaled: float
    min_coherent_bound_scaled: float


def random_collision_suite(
    seed: int,
    count: int,
    *,
    eigenoperator: bool = True,
    dims: tuple[int, ...] = (2, 3),
) -> tuple[SuiteSummary, list[SuiteSample]]:
    """Run ``count`` seeded random collisions and collect the exact inequalities.

    ``work_scaled`` is ``|work| / (||H_S|| + ||H_A||)`` (spectral norms);
    ``coherent_bound_scaled`` is ``(beta W_C + dC) / tau^{3/2}``, the scaled
    slack of the coherent-work bound.  Raises ``ValueError`` when ``count``
    is below 1, before any draw.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    rng = SplitMix64(seed)
    samples: list[SuiteSample] = []
    for index in range(count):
        rho_system, cfg = random_collision(rng, eigenoperator=eigenoperator, dims=dims)
        ledger = collide(rho_system, cfg).ledger
        d_coherence = ledger.coherence_after - ledger.coherence_before
        bound_slack = cfg.ancilla.beta * ledger.coherent_work + d_coherence
        samples.append(
            SuiteSample(
                index=index,
                dim_system=cfg.dim_system,
                dim_ancilla=cfg.dim_ancilla,
                tau=cfg.ancilla.tau,
                entropy_production=ledger.entropy_production,
                mutual_info=ledger.mutual_info,
                rel_entropy_ancilla=ledger.rel_entropy_ancilla,
                work_scaled=abs(ledger.work) / h_scale(cfg),
                coherent_bound_scaled=bound_slack / cfg.ancilla.tau**1.5,
            )
        )
    summary = SuiteSummary(
        count=count,
        min_entropy_production=min(s.entropy_production for s in samples),
        min_mutual_info=min(s.mutual_info for s in samples),
        min_rel_entropy=min(s.rel_entropy_ancilla for s in samples),
        max_abs_work_scaled=max(s.work_scaled for s in samples),
        min_coherent_bound_scaled=min(s.coherent_bound_scaled for s in samples),
    )
    return summary, samples


def free_energy_rate_fd(
    gen: LindbladGenerator,
    rho: DensityMatrix,
    h_system,
    beta: float,
    dt: float = 1e-5,
) -> float:
    """Centered finite difference of the free energy along the generator flow.

    One RK4 micro-step of ``+dt`` and one of ``-dt`` from ``rho`` give the
    two evaluation points; independent of the algebraic rate formulas.
    """

    def step(sign: float) -> DensityMatrix:
        moved = rk4_step(gen.matrix, rho.matrix.reshape(-1, order="F"), sign * dt)
        return DensityMatrix(moved.reshape((gen.dim, gen.dim), order="F"))

    forward = free_energy(step(+1.0), h_system, beta)
    backward = free_energy(step(-1.0), h_system, beta)
    return (forward - backward) / (2.0 * dt)


def second_law_defects(
    gen: LindbladGenerator,
    trajectory: Sequence[tuple[float, DensityMatrix]],
    h_system,
    beta: float,
    sample_count: int = 20,
    fd_dt: float = 1e-5,
) -> list[float]:
    """|Pi - beta (W_C_rate - F_rate)| at evenly spaced trajectory samples."""
    stride = max(1, (len(trajectory) - 1) // sample_count)
    picks = list(range(stride, len(trajectory), stride))[:sample_count]
    defects = []
    for k in picks:
        _, rho = trajectory[k]
        ledger = rates(gen, rho, h_system)
        f_rate = free_energy_rate_fd(gen, rho, h_system, beta, dt=fd_dt)
        defects.append(
            abs(ledger.entropy_production_rate - beta * (ledger.coherent_work_rate - f_rate))
        )
    return defects
