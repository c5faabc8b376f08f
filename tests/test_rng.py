"""The counter-based SplitMix64 block against the scalar stream.

``SplitMix64.block(n)`` computes the next ``n`` outputs with numpy ``uint64``
operations, and ``_complex_normals`` turns a block into Box-Muller normals.
Both must give the bits of the scalar route, one ``next_u64`` at a time, and
leave the stream where the scalar route leaves it.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcollide.presets import _normals
from qcollide.rng import SplitMix64, _complex_normals
from reference import scalar_normals

EDGE_SEEDS = (0, 2**63, 2**64 - 1)
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(min_value=0, max_value=2**64 - 1))
lengths = st.integers(min_value=0, max_value=300)
rng_settings = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def test_stream_is_splitmix64():
    # The first outputs of the reference SplitMix64 at seed 0 (Steele, Lea and Flood; Vigna's splitmix64.c).
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == want
    assert SplitMix64(0).block(3).tolist() == want


@rng_settings
@given(seeds, lengths, st.integers(min_value=0, max_value=5))
@example(0, 300, 0)
@example(2**63, 0, 1)
@example(2**64 - 1, 1, 2)
def test_block_is_the_scalar_stream(seed, n, lead):
    block_rng, scalar_rng = SplitMix64(seed), SplitMix64(seed)
    for _ in range(lead):
        assert block_rng.next_u64() == scalar_rng.next_u64()
    block = block_rng.block(n)
    assert block.dtype == np.uint64 and block.shape == (n,)
    assert block.tolist() == [scalar_rng.next_u64() for _ in range(n)]
    assert block_rng._state == scalar_rng._state
    assert [block_rng.next_u64() for _ in range(3)] == [scalar_rng.next_u64() for _ in range(3)]


@rng_settings
@given(seeds, lengths)
def test_peek_reads_ahead_without_moving(seed, k):
    rng = SplitMix64(seed)
    ahead = rng.peek(k)
    assert rng._state == SplitMix64(seed)._state
    assert ahead == int(rng.block(k + 1)[-1])


@rng_settings
@given(seeds, st.integers(min_value=0, max_value=150))
def test_normals_are_the_scalar_box_muller_pairs(seed, count):
    want = np.array(scalar_normals(SplitMix64(seed), count), dtype=complex)
    scalar_rng = SplitMix64(seed)
    scalar = np.array([scalar_rng.complex_normal() for _ in range(count)], dtype=complex)
    assert scalar.tobytes() == want.tobytes()
    assert _complex_normals(SplitMix64(seed).block(2 * count)).tobytes() == want.tobytes()
    block_rng = SplitMix64(seed)
    assert _normals(block_rng, count).tobytes() == want.tobytes()
    assert block_rng.next_u64() == scalar_rng.next_u64()
