"""``trajectory.csv`` and the stacked rates behind it, held against the row-by-row route.

The writer takes every round's rates from one :func:`~qcollide.lindblad.rate_columns`
pass and formats each row with one template; ``tests/reference.py`` writes the
same file with one per-state rates evaluation and one ``format`` per value.
The two must agree byte for byte, and on failure raise the same error for the
same first failing step.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qcollide import cli
from qcollide.collisions import run_trajectory
from qcollide.errors import RankDeficientError
from qcollide.lindblad import rate_columns
from qcollide.presets import maximally_mixed, qubit_collision, qutrit_ancilla_collision, random_collision
from qcollide.rng import SplitMix64
from qcollide.states import DensityMatrix, state_spectra
from qcollide.verify import generator_for
from reference import per_state_rates, raised, row_by_row_trajectory_csv, unstacked

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def row_reprs(row) -> list[str]:
    """Every rate of a rates row as its exact ``repr``, signed zeros and NaN included."""
    return [repr(x) for x in np.asarray(row).tolist()]


@pytest.mark.parametrize(
    "doc",
    [
        {"scenario": "qubit-demo", "n_steps": 1000},
        "custom.json",
        {"scenario": "qubit-demo", "lambda": 0.0},
    ],
    ids=["qubit-demo-1000", "custom", "lambda-0"],
)
def test_scenario_csv_is_the_row_by_row_csv(tmp_path, monkeypatch, capsys, doc):
    if isinstance(doc, str):
        doc = json.loads((CONFIG_DIR / doc).read_text(encoding="utf-8"))
    seen = []
    write = cli._write_trajectory_csv

    def capture(path, record, gen):
        seen.append((record, gen))
        write(path, record, gen)

    monkeypatch.setattr(cli, "_write_trajectory_csv", capture)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.run_scenario(cli.load_config(path), tmp_path / "out") == 0
    ((record, gen),) = seen
    row_by_row_trajectory_csv(tmp_path / "rows.csv", record, gen)
    written = (tmp_path / "out" / "trajectory.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert written.count(b"\n") == len(record.times) + 1


@pytest.mark.parametrize(
    "cfgs",
    [
        [qutrit_ancilla_collision()],
        [
            qubit_collision(label="A"),
            qutrit_ancilla_collision(beta=0.5, lam=0.25, label="B"),
            qubit_collision(g=0.7, beta=2.0, lam=-0.4, label="C"),
        ],
    ],
    ids=["qutrit-ancilla", "three-species"],
)
def test_record_csv_is_the_row_by_row_csv(tmp_path, cfgs):
    record = run_trajectory(maximally_mixed(2), cfgs, 300)
    gen = generator_for(cfgs)
    cli._write_trajectory_csv(tmp_path / "stacked.csv", record, gen)
    row_by_row_trajectory_csv(tmp_path / "rows.csv", record, gen)
    assert (tmp_path / "stacked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_row_template_formats_as_format_does():
    values = [0.1, -0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1.7976931348623157e308, 1 / 3]
    values += [1e16, 123456789.0, -2.5e-300, 1e22]
    assert cli._TRAJECTORY_ROW % (7, *values) == ",".join(["7", *(format(x, ".17g") for x in values)])


def test_rates_of_the_qubit_demo_states_are_the_per_state_rates_bit_for_bit():
    cfg = qubit_collision()
    states = run_trajectory(maximally_mixed(2), [cfg], 1000).states
    gen = generator_for([cfg])
    table = rate_columns(gen, states)
    assert table.shape == (1000, 5)
    for row, rho in zip(table, unstacked(states)):
        assert row_reprs(row) == row_reprs(per_state_rates(gen, rho))


def test_stacked_log_and_dot_product_match_the_per_state_route_on_random_draws():
    # Systems of dimension 2 and 3, generic and eigenoperator couplings.
    rng = SplitMix64(7)
    dims = set()
    for k in range(16):
        rho0, cfg = random_collision(rng, eigenoperator=bool(k % 2))
        states = run_trajectory(rho0, [cfg], 30).states
        gen = generator_for([cfg])
        for row, rho in zip(rate_columns(gen, states), unstacked(states)):
            assert row_reprs(row) == row_reprs(per_state_rates(gen, rho))
        dims.add(cfg.dim_system)
    assert dims == {2, 3}


def test_no_states_give_no_rows():
    gen = generator_for([qubit_collision(label="A"), qubit_collision(label="B")])
    assert rate_columns(gen, state_spectra(np.empty((0, 2, 2)))).shape == (0, 7)


def cooling_run():
    """A qubit cooled by pure ground-state ancillae: its small eigenvalue drops below the rank floor at step 46."""
    cfg = qubit_collision(beta=1e3, lam=0.0, tau=0.1)
    record = run_trajectory(DensityMatrix(np.diag([1e-11, 1.0 - 1e-11])), [cfg], 80)
    return record, generator_for([cfg])


def first_failures(gen, states, count=2):
    """Indices and errors of the first ``count`` states that the per-state route rejects."""
    found = []
    for i, rho in enumerate(unstacked(states)):
        error = raised(per_state_rates, gen, rho)
        if error is not None:
            found.append((i, error))
            if len(found) == count:
                break
    return found


def test_rank_deficient_round_end_state_raises_as_the_per_state_route(tmp_path):
    record, gen = cooling_run()
    states = record.states
    (first, error), (_, later) = first_failures(gen, states)
    assert first == 45 and error[0] is RankDeficientError
    # Each failing step names its own eigenvalue, so the message pins the step.
    assert later != error
    assert raised(rate_columns, gen, states) == error
    assert raised(cli._write_trajectory_csv, tmp_path / "stacked.csv", record, gen) == error
    assert raised(row_by_row_trajectory_csv, tmp_path / "rows.csv", record, gen) == error
    assert not (tmp_path / "stacked.csv").exists()


def with_energy_row_offset(gen, delta):
    """``gen`` with ``delta tr(H_S rho)`` added to the energy row of its rates, which breaks their closure."""
    corrupted = gen.rate_rows.copy()
    corrupted[-1] += delta * gen.h_system.reshape(-1)
    gen.__dict__["rate_rows"] = corrupted
    return gen


@pytest.mark.parametrize("step", [1, 37, 120])
def test_failing_closure_raises_as_the_per_state_route_from_the_chosen_step(tmp_path, step):
    cfg = qubit_collision()
    record = run_trajectory(maximally_mixed(2), [cfg], 200)
    states = record.states
    energies = np.abs([rho.expectation(cfg.h_system) for rho in unstacked(states)])
    # |<H_S>| grows along these rounds and every rate stays below 1, so a defect of
    # delta |<H_S>| exceeds the closure tolerance 1e-10 exactly from the chosen step on.
    below = energies[step - 2] if step > 1 else 0.0
    gen = with_energy_row_offset(generator_for([cfg]), 1e-10 / (0.5 * (below + energies[step - 1])))
    failing = [i for i, rho in enumerate(unstacked(states)) if raised(per_state_rates, gen, rho) is not None]
    assert failing == list(range(step - 1, len(record.times)))
    ((_, error),) = first_failures(gen, states, count=1)
    assert error[0] is ValueError and error[1].startswith("energy rate ")
    assert raised(rate_columns, gen, states) == error
    assert raised(cli._write_trajectory_csv, tmp_path / "stacked.csv", record, gen) == error
    assert raised(row_by_row_trajectory_csv, tmp_path / "rows.csv", record, gen) == error


def test_rank_gate_wins_on_a_state_that_fails_both_gates():
    gen = with_energy_row_offset(generator_for([qubit_collision()]), 1.0)
    states = [DensityMatrix(np.diag([0.7, 0.3])), DensityMatrix(np.diag([1.0, 0.0]))]
    # The mixed state fails only the closure, the pure one both gates.
    assert raised(per_state_rates, gen, states[0])[0] is ValueError
    error = raised(per_state_rates, gen, states[1])
    assert error[0] is RankDeficientError
    assert raised(rate_columns, gen, states[1].spectrum) == error
