"""The batched random-collision suite against the one-sample route.

Sample ``k`` of ``random_collision_suite(seed, count)`` is defined as
``collide(*random_collision(rng))`` for the ``k``-th draw of
``SplitMix64(seed)``.  The suite computes it in stacks, one batched pass per
``(d_S, d_A)`` group, so these tests compare every sample with the
one-sample route, check that a group build gives each instance the bits of
building it alone, and check that a bad sample raises what the one-sample
route raises for it, naming the sample.  The draws themselves come from one
block of the stream; they are held bit for bit against the scalar oracle
``reference.scalar_draw``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide import presets
from qcollide.errors import NotPositiveError, SupportViolationError
from qcollide.presets import collision_stack, draw_collisions, random_collision
from qcollide.rng import SplitMix64
from qcollide.states import DensityMatrix
from qcollide.verify import energy_scale, random_collision_suite
from reference import collide, scalar_draw

TOL = 1e-12
COUNT = 12
seeds = st.integers(min_value=0, max_value=2**64 - 1)
suite_settings = settings(derandomize=True, database=None, deadline=None, max_examples=15)


def one_sample_route(seed, count, eigenoperator=True):
    rng = SplitMix64(seed)
    for _ in range(count):
        rho, cfg = random_collision(rng, eigenoperator=eigenoperator)
        yield cfg, collide(rho, cfg).ledger


@suite_settings
@given(seeds, st.booleans())
def test_every_sample_matches_the_one_sample_route(seed, eigenoperator):
    samples = random_collision_suite(seed, COUNT, eigenoperator=eigenoperator)
    assert all(column.shape == (COUNT,) for column in vars(samples).values())
    for k, (cfg, ledger) in enumerate(one_sample_route(seed, COUNT, eigenoperator)):
        tau = cfg.ancilla.tau
        assert (samples.dim_system[k], samples.dim_ancilla[k], samples.tau[k]) == (cfg.dim_system, cfg.dim_ancilla, tau)
        assert abs(samples.entropy_production[k] - ledger.entropy_production) <= TOL
        assert abs(samples.mutual_info[k] - ledger.mutual_info) <= TOL
        assert abs(samples.rel_entropy_ancilla[k] - ledger.rel_entropy_ancilla) <= TOL
        scale = energy_scale(cfg.h_system, cfg.ancilla.h_ancilla)
        assert abs(samples.work_scaled[k] - abs(ledger.work) / scale) <= TOL
        # The column divides the slack by tau^{3/2}; compare the slack itself.
        slack = cfg.ancilla.beta * ledger.coherent_work + ledger.coherence_after - ledger.coherence_before
        assert abs(samples.coherent_bound_scaled[k] * tau**1.5 - slack) <= TOL


@suite_settings
@given(seeds, st.booleans())
def test_group_build_gives_each_instance_its_own_bits(seed, eigenoperator):
    rng = SplitMix64(seed)
    draws = draw_collisions(rng, COUNT, eigenoperator=eigenoperator)
    for dims in {draw["dims"] for draw in draws}:
        group = [draw for draw in draws if draw["dims"] == dims]
        stack = collision_stack(group)
        for k, draw in enumerate(group):
            alone = collision_stack([draw])
            for name in ("h_system", "v_interaction", "h_ancilla", "chi", "beta", "lam", "tau"):
                assert getattr(stack, name)[k].tobytes() == getattr(alone, name)[0].tobytes()
            for name in ("basis", "thermal", "rho_system"):
                ours, theirs = getattr(stack, name), getattr(alone, name)
                assert ours.matrix[k].tobytes() == theirs.matrix[0].tobytes()
                assert ours.eigenvalues[k].tobytes() == theirs.eigenvalues[0].tobytes()


def draw_bits(draw: dict) -> list:
    """Each field of a draw, in order, as comparable bits: a scalar keeps its type, a block of normals is bytes."""

    def bits(value):
        if isinstance(value, float):
            return type(value), np.float64(value).tobytes()
        if isinstance(value, tuple):
            return value
        return np.asarray(value, dtype=complex).tobytes()

    return [
        (key, [tuple(map(bits, c)) for c in value] if key == "couplings" else bits(value))
        for key, value in draw.items()
    ]


@pytest.mark.parametrize("eigenoperator", [True, False], ids=["eigenoperator", "generic"])
def test_draws_are_the_scalar_oracle(eigenoperator):
    for seed in range(1, 41):
        block_rng, scalar_rng = SplitMix64(seed), SplitMix64(seed)
        draws = draw_collisions(block_rng, 250, eigenoperator=eigenoperator)
        for index, draw in enumerate(draws):
            want = scalar_draw(scalar_rng, eigenoperator=eigenoperator)
            assert draw_bits(draw) == draw_bits(want), (seed, index)
        assert block_rng._state == scalar_rng._state, seed


@pytest.mark.parametrize("eigenoperator", [True, False], ids=["eigenoperator", "generic"])
def test_one_draw_is_the_scalar_oracle(eigenoperator):
    block_rng, scalar_rng = SplitMix64(20260810), SplitMix64(20260810)
    for _ in range(30):
        (draw,) = draw_collisions(block_rng, 1, eigenoperator=eigenoperator)
        assert draw_bits(draw) == draw_bits(scalar_draw(scalar_rng, eigenoperator=eigenoperator))
        assert block_rng._state == scalar_rng._state


def test_no_draws_read_nothing():
    rng = SplitMix64(3)
    assert draw_collisions(rng, 0) == []
    assert rng._state == SplitMix64(3)._state


@pytest.mark.parametrize("eigenoperator", [True, False], ids=["eigenoperator", "generic"])
def test_initial_state_is_the_gated_state_of_its_matrix(eigenoperator):
    rng = SplitMix64(11)
    for _ in range(40):
        rho, _ = random_collision(rng, eigenoperator=eigenoperator)
        gated = DensityMatrix(rho.matrix)
        assert rho.matrix.tobytes() == gated.matrix.tobytes()
        assert rho.eigenvalues.tobytes() == gated.eigenvalues.tobytes()
        assert rho.spectrum.eigenvectors.tobytes() == gated.spectrum.eigenvectors.tobytes()


# Seed 2 draws the groups (2,2) at 0, 6, 7, 8; (2,3) at 1, 5; (3,3) at 2, 4, 9, 11;
# (3,2) at 3, 10.  Each bad sample below is the second of its group.
SEED = 2
SECOND_OF_GROUP = {(2, 2): 6, (2, 3): 5, (3, 3): 4, (3, 2): 10}
BAD_DRAWS = {
    # A coherence strength 40 times the cap leaves the prepared rho_A non-positive.
    "non-PSD rho_A": ({"lam": 40.0}, NotPositiveError),
    # At beta = 60 the prepared rho_A has a kernel, and the stroke puts weight on it.
    "rho_A kernel": ({"beta": 60.0}, SupportViolationError),
}


def corrupt(monkeypatch, indices, changes):
    """Make the draws at ``indices`` of ``SplitMix64(SEED)`` bad, for both routes."""
    rng = SplitMix64(SEED)
    draws = draw_collisions(rng, COUNT)
    targets = {draws[i]["tau"] for i in indices}
    original = presets._draw_fields

    def draw(rng, **kwargs):
        out = original(rng, **kwargs)
        if out["tau"] in targets:
            out.update(changes)
        return out

    monkeypatch.setattr(presets, "_draw_fields", draw)


def one_sample_error(error, index):
    rng = SplitMix64(SEED)
    with pytest.raises(error) as raised:
        for _ in range(index + 1):
            collide(*random_collision(rng))
    return raised.value


@pytest.mark.parametrize("kind", list(BAD_DRAWS))
@pytest.mark.parametrize("dims", list(SECOND_OF_GROUP), ids=lambda dims: "x".join(map(str, dims)))
def test_bad_sample_raises_as_the_one_sample_route(monkeypatch, dims, kind):
    changes, error = BAD_DRAWS[kind]
    index = SECOND_OF_GROUP[dims]
    corrupt(monkeypatch, [index], changes)
    expected = one_sample_error(error, index)
    with pytest.raises(error) as raised:
        random_collision_suite(SEED, COUNT)
    assert str(raised.value) == f"sample {index}: {expected}"


def test_first_failing_sample_is_named(monkeypatch):
    # Group (3,2) is built after group (3,3), but its bad sample comes first.
    corrupt(monkeypatch, [4, 3], {"lam": 40.0})
    with pytest.raises(NotPositiveError, match="^sample 3: density matrix has eigenvalue"):
        random_collision_suite(SEED, COUNT)


def test_seed_draws_the_groups_the_bad_sample_tests_assume():
    rng = SplitMix64(SEED)
    assert [draw["dims"] for draw in draw_collisions(rng, COUNT)] == [
        (2, 2), (2, 3), (3, 3), (3, 2), (3, 3), (2, 3), (2, 2), (2, 2), (2, 2), (3, 3), (3, 2), (3, 3)
    ]
