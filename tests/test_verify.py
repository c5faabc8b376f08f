"""Input checks of the verification studies."""

import pytest

from qcollide import verify
from qcollide.presets import maximally_mixed
from qcollide.verify import random_collision_suite, stroboscopic_deviation


def test_deviation_needs_a_species():
    with pytest.raises(ValueError, match="^need at least one collision config$"):
        stroboscopic_deviation(lambda tau: [], maximally_mixed(2), (1e-2,), t_final=0.1)


@pytest.mark.parametrize("count", [0, -3])
def test_suite_needs_a_sample(monkeypatch, count):
    def refuse(*args, **kwargs):
        raise AssertionError("drew a collision")

    monkeypatch.setattr(verify, "draw_collision", refuse)
    with pytest.raises(ValueError, match=f"^count must be >= 1, got {count}$"):
        random_collision_suite(1, count)
