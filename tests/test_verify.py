"""Input checks of the verification studies."""

import math

import numpy as np
import pytest

from qcollide import verify
from qcollide.collisions import run_trajectory
from qcollide.lindblad import integrate
from qcollide.presets import maximally_mixed, three_level_collision
from qcollide.states import trace_distance
from qcollide.verify import DEFAULT_DT_TARGET, generator_for, random_collision_suite, stroboscopic_deviation


def test_deviation_needs_a_species():
    with pytest.raises(ValueError, match="^need at least one collision config$"):
        stroboscopic_deviation(lambda tau: [], (1e-2,), t_final=0.1)


def test_deviation_starts_from_the_maximally_mixed_state_of_the_species():
    # a qutrit system: the start state is maximally_mixed(3), not the qubit one
    taus, t_final = (2e-3, 1e-3), 4e-3
    want = []
    for tau in taus:
        cfgs = [three_level_collision(tau)]
        n_rounds = round(t_final / tau)
        strobes = run_trajectory(maximally_mixed(3), cfgs, n_rounds).states
        gen = generator_for(cfgs)
        substeps = max(1, math.ceil(tau / min(DEFAULT_DT_TARGET, 0.09 / gen.norm)))
        _, reference = integrate(gen, maximally_mixed(3), n_rounds * tau, tau / substeps)
        # The state at the end of round k + 1 is that of step (k + 1) * substeps.
        distances = trace_distance(
            strobes.matrix, np.array([reference.matrix[(k + 1) * substeps - 1] for k in range(n_rounds)])
        )
        want.append((tau, float(distances.max())))
    assert stroboscopic_deviation(lambda tau: [three_level_collision(tau)], taus, t_final) == want


@pytest.mark.parametrize("count", [0, -3])
def test_suite_needs_a_sample(monkeypatch, count):
    def refuse(*args, **kwargs):
        raise AssertionError("drew a collision")

    monkeypatch.setattr(verify, "draw_collisions", refuse)
    with pytest.raises(ValueError, match=f"^count must be >= 1, got {count}$"):
        random_collision_suite(1, count)
