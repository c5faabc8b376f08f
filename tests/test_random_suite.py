"""The batched random-collision suite against the one-sample route.

Sample ``k`` of ``random_collision_suite(seed, count)`` is defined as
``collide(*random_collision(rng))`` for the ``k``-th draw of
``SplitMix64(seed)``.  The suite computes it in stacks, one batched pass per
``(d_S, d_A)`` group, so these tests compare every sample with the
one-sample route, check that a group build gives each instance the bits of
building it alone, and check that a bad sample raises what the one-sample
route raises for it, naming the sample.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide import presets, verify
from qcollide.collisions import collide
from qcollide.errors import NotPositiveError, SupportViolationError
from qcollide.presets import collision_stack, draw_collision, random_collision
from qcollide.rng import SplitMix64
from qcollide.verify import h_scale, random_collision_suite

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
    assert [s.index for s in samples] == list(range(COUNT))
    for sample, (cfg, ledger) in zip(samples, one_sample_route(seed, COUNT, eigenoperator), strict=True):
        tau = cfg.ancilla.tau
        assert (sample.dim_system, sample.dim_ancilla, sample.tau) == (cfg.dim_system, cfg.dim_ancilla, tau)
        assert abs(sample.entropy_production - ledger.entropy_production) <= TOL
        assert abs(sample.mutual_info - ledger.mutual_info) <= TOL
        assert abs(sample.rel_entropy_ancilla - ledger.rel_entropy_ancilla) <= TOL
        assert abs(sample.work_scaled - abs(ledger.work) / h_scale(cfg)) <= TOL
        # The column divides the slack by tau^{3/2}; compare the slack itself.
        slack = cfg.ancilla.beta * ledger.coherent_work + ledger.coherence_after - ledger.coherence_before
        assert abs(sample.coherent_bound_scaled * tau**1.5 - slack) <= TOL


@suite_settings
@given(seeds, st.booleans())
def test_group_build_gives_each_instance_its_own_bits(seed, eigenoperator):
    rng = SplitMix64(seed)
    draws = [draw_collision(rng, eigenoperator=eigenoperator) for _ in range(COUNT)]
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
    draws = [draw_collision(rng) for _ in range(COUNT)]
    targets = {draws[i]["tau"] for i in indices}
    original = presets.draw_collision

    def draw(rng, **kwargs):
        out = original(rng, **kwargs)
        if out["tau"] in targets:
            out.update(changes)
        return out

    monkeypatch.setattr(presets, "draw_collision", draw)
    monkeypatch.setattr(verify, "draw_collision", draw)


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
    assert [draw_collision(rng)["dims"] for _ in range(COUNT)] == [
        (2, 2), (2, 3), (3, 3), (3, 2), (3, 3), (2, 3), (2, 2), (2, 2), (2, 2), (3, 3), (3, 2), (3, 3)
    ]
