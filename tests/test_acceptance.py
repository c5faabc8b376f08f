"""Acceptance suite: every criterion as one test, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Expensive artifacts (the 1000-instance randomized suite, the
residual-order study) are computed once and shared.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qcollide.collisions import collide
from qcollide.lindblad import (
    EigenoperatorCoupling,
    build_generator,
    eigenoperator_dissipator,
    integrate,
)
from qcollide.linalg import max_abs
from qcollide.presets import (
    SIGMA_X,
    maximally_mixed,
    qubit_collision,
    qubit_couplings,
    qubit_hamiltonian,
    qutrit_ancilla_collision,
    three_level_collision,
    three_level_state,
)
from qcollide.rng import SplitMix64
from qcollide.verify import (
    IDENTITY_TAUS,
    entropic_identity_residuals,
    ergotropy_ratio_deviations,
    generator_for,
    halving_ratios,
    loglog_slope,
    random_collision_suite,
    second_law_defects,
    series_halving_ratios,
    stroboscopic_deviation,
    two_bath_population_error,
)

LN3 = math.log(3.0)
SUITE_SEED = 42
SUITE_SIZE = 1000
SLOPE_TAUS = (4e-2, 1e-2, 2.5e-3)


def report(number, name, passed, detail):
    state = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {state} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="module")
def random_suite():
    start = time.perf_counter()
    samples = random_collision_suite(SUITE_SEED, SUITE_SIZE, eigenoperator=True)
    return samples, time.perf_counter() - start


@pytest.fixture(scope="module")
def identity_residuals():
    return entropic_identity_residuals()


def test_01_entropy_production_positivity(random_suite):
    samples, elapsed = random_suite
    min_sigma = min(s.entropy_production for s in samples)
    min_mutual = min(s.mutual_info for s in samples)
    min_rel = min(s.rel_entropy_ancilla for s in samples)
    worst = min(min_sigma, min_mutual, min_rel)
    passed = worst >= -1e-9 and elapsed < 30.0
    report(
        1,
        "entropy-production-positivity",
        passed,
        f"min Sigma={min_sigma:.3e}, min I={min_mutual:.3e}, "
        f"min Srel={min_rel:.3e}, runtime={elapsed:.1f}s over {len(samples)} collisions",
    )


def test_02_strict_energy_conservation(random_suite):
    samples, _ = random_suite
    max_work = max(s.work_scaled for s in samples)
    passed = max_work <= 1e-9
    report(
        2,
        "strict-energy-conservation",
        passed,
        f"max |W|/(||H_S||+||H_A||)={max_work:.3e} over {len(samples)} collisions",
    )


def test_03_detailed_balance():
    jumps, _ = eigenoperator_dissipator(
        qubit_couplings(), qubit_hamiltonian(), LN3, h_system=qubit_hamiltonian()
    )
    qubit_error = abs(jumps[0].gamma_plus / jumps[0].gamma_minus - 1.0 / 3.0)
    worst = qubit_error / (1.0 / 3.0)
    rng = SplitMix64(7)
    for _ in range(10):
        spacing = 0.5 + rng.uniform()
        beta = 0.3 + 2.0 * rng.uniform()
        h = np.diag([0.0, spacing, 2.0 * spacing]).astype(complex)
        one = np.zeros((3, 3), dtype=complex)
        one[0, 1] = rng.complex_normal()
        one[1, 2] = rng.complex_normal()
        two = np.zeros((3, 3), dtype=complex)
        two[0, 2] = rng.complex_normal()
        couplings = [
            EigenoperatorCoupling(one, one, spacing, rng.complex_normal()),
            EigenoperatorCoupling(two, two, 2.0 * spacing, rng.complex_normal()),
        ]
        jumps, _ = eigenoperator_dissipator(couplings, h, beta, h_system=h)
        for jump in jumps:
            target = math.exp(-beta * jump.frequency)
            worst = max(worst, abs(jump.gamma_plus / jump.gamma_minus - target) / target)
    passed = worst <= 1e-10
    report(3, "detailed-balance", passed, f"worst relative deviation={worst:.3e}")


def test_04_qubit_example_structure():
    g = 1.0
    cfg = qubit_collision(g=g)
    gen = build_generator(cfg.h_system, cfg.ancilla, cfg.v_interaction)
    drive_error = max_abs(gen.species[0].coherent_op - g * SIGMA_X)
    _, damping = eigenoperator_dissipator(
        qubit_couplings(g=g), cfg.ancilla.h_ancilla, LN3, h_system=cfg.h_system
    )
    dissipator_error = max_abs(gen.species[0].dissipator - damping)
    passed = drive_error <= 1e-12 and dissipator_error <= 1e-9
    report(
        4,
        "qubit-example-structure",
        passed,
        f"|G - g sx|={drive_error:.3e}, |D - amplitude damping|={dissipator_error:.3e}",
    )


def test_05_continuous_time_limit():
    start = time.perf_counter()
    data = stroboscopic_deviation(
        lambda tau: [qutrit_ancilla_collision(lam=0.3, tau=tau)],
        SLOPE_TAUS,
        t_final=2.0,
    )
    elapsed = time.perf_counter() - start
    slope = loglog_slope([t for t, _ in data], [d for _, d in data])
    passed = 0.4 <= slope <= 0.7 and elapsed < 10.0
    report(
        5,
        "continuous-time-limit",
        passed,
        f"slope={slope:.3f} over taus={SLOPE_TAUS}, runtime={elapsed:.1f}s",
    )


def test_06_perturbative_entropic_identities(identity_residuals):
    ratios_i = halving_ratios(identity_residuals.mutual_info)
    ratios_s = halving_ratios(identity_residuals.rel_entropy)
    in_window = all(2.4 <= r <= 3.2 for r in ratios_i + ratios_s)
    report(
        6,
        "perturbative-entropic-identities",
        in_window,
        f"mutual-info ratios={[f'{r:.2f}' for r in ratios_i]}, "
        f"rel-entropy ratios={[f'{r:.2f}' for r in ratios_s]} (ideal 2.83)",
    )


def test_07_coherence_bound(random_suite, identity_residuals):
    samples, _ = random_suite
    min_rel = min(s.rel_entropy_ancilla for s in samples)
    exact_ok = min_rel >= -1e-9
    # K from the tau-halving fit of the relative-entropy identity residuals
    k_fit = 3.0 * max(
        r / t**1.5 for r, t in zip(identity_residuals.rel_entropy, IDENTITY_TAUS)
    )
    worst_slack = math.inf
    for tau in IDENTITY_TAUS:
        cfg = three_level_collision(tau)
        ledger = collide(three_level_state(), cfg).ledger
        slack = cfg.ancilla.beta * ledger.coherent_work + (
            ledger.coherence_after - ledger.coherence_before
        )
        worst_slack = min(worst_slack, slack + k_fit * tau**1.5)
    passed = exact_ok and worst_slack >= 0.0
    report(
        7,
        "coherence-bound",
        passed,
        f"min exact Srel={min_rel:.3e} (>= -1e-9), "
        f"min of beta*W_C + dC + K tau^1.5 = {worst_slack:.3e} with K={k_fit:.3f}",
    )


def test_08_modified_second_law():
    cfg = qubit_collision(lam=0.3)
    gen = generator_for([cfg])
    trajectory = integrate(gen, maximally_mixed(2), 2.0, 1e-2)
    defects = second_law_defects(gen, trajectory, LN3)
    worst = max(defects)
    passed = len(defects) == 20 and worst <= 1e-7
    report(
        8,
        "modified-second-law",
        passed,
        f"max |Pi - beta(dW_C - dF)|={worst:.3e} over {len(defects)} samples",
    )


def test_09_ergotropy_relation():
    deviations = ergotropy_ratio_deviations()
    monotone = deviations[0] > deviations[1] > deviations[2]
    passed = monotone and deviations[1] <= 5e-2
    report(
        9,
        "ergotropy-relation",
        passed,
        f"|ratio - 1| = {[f'{d:.2e}' for d in deviations]} at eps = 1e-1, 1e-2, 1e-3",
    )


def test_10_multi_bath_additivity():
    def build(tau):
        return [
            qubit_collision(beta=LN3, lam=0.3, tau=tau, label="A"),
            qutrit_ancilla_collision(g=0.8, beta=0.5 * LN3, lam=0.25, tau=tau, label="B"),
        ]

    data = stroboscopic_deviation(build, SLOPE_TAUS, t_final=2.0)
    slope = loglog_slope([t for t, _ in data], [d for _, d in data])
    population_error = two_bath_population_error(gs=(1.0, 0.7), betas=(0.5, 2.0))
    passed = 0.4 <= slope <= 0.7 and population_error <= 1e-8
    report(
        10,
        "multi-bath-additivity",
        passed,
        f"round-robin slope={slope:.3f}, steady-state population error={population_error:.3e}",
    )


def test_11_perturbation_series_orders():
    ratios = [r for family in series_halving_ratios(11).values() for r in family]
    passed = all(6.0 <= r <= 10.0 for r in ratios)
    report(
        11,
        "perturbation-series-orders",
        passed,
        f"halving ratios in [{min(ratios):.2f}, {max(ratios):.2f}] (ideal 8)",
    )


def test_12_cli_determinism(tmp_path):
    config = tmp_path / "bound.json"
    config.write_text(
        json.dumps({"scenario": "bound-check", "seed": SUITE_SEED, "n_steps": 150}),
        encoding="utf-8",
    )
    digests = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        result = subprocess.run(
            [sys.executable, "-m", "qcollide", "run", "--config", str(config), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        digests.append(
            ((out / "report.json").read_bytes(), (out / "samples.csv").read_bytes())
        )
    passed = digests[0] == digests[1]
    report(12, "cli-determinism", passed, "report.json and samples.csv byte-identical across runs")
