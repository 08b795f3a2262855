"""Property tests for the collective schedules and accumulation rule.

The test-side in-memory executors (`collective_refs.ring_allreduce_local`,
`recursive_doubling_local`) are the references the schedule interpreter
is held against elsewhere; here hypothesis holds *them* against the naive
element-wise sum across world sizes 2..32 and arbitrary lengths —
including odd, prime, shorter-than-world, and empty vectors.  The test
vectors are integer-valued (`rank_vector`'s contract), so float64 sums
are exact in any association order and every comparison is ``==``,
not approx.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from collective_refs import recursive_doubling_local, ring_allreduce_local
from repro.collectives import allreduce_oracle, chunk_range, rank_vector


@settings(max_examples=60, deadline=None)
@given(world=st.integers(2, 32), length=st.integers(0, 67),
       seed=st.integers(0, 1000))
def test_ring_allreduce_sum(world, length, seed):
    vectors = [rank_vector(r, world, length, seed) for r in range(world)]
    expected = allreduce_oracle(world, length, seed)
    for acc in ring_allreduce_local(vectors):
        assert acc == expected


@settings(max_examples=40, deadline=None)
@given(log_world=st.integers(1, 5), length=st.integers(0, 67),
       seed=st.integers(0, 1000))
def test_recursive_doubling_sum(log_world, length, seed):
    world = 1 << log_world
    vectors = [rank_vector(r, world, length, seed) for r in range(world)]
    expected = allreduce_oracle(world, length, seed)
    for acc in recursive_doubling_local(vectors):
        assert acc == expected


@settings(max_examples=40, deadline=None)
@given(log_world=st.integers(1, 5), length=st.integers(0, 67),
       seed=st.integers(0, 1000))
def test_ring_and_rd_agree_bitwise(log_world, length, seed):
    world = 1 << log_world
    vectors = [rank_vector(r, world, length, seed) for r in range(world)]
    ring = ring_allreduce_local(vectors)
    rd = recursive_doubling_local(vectors)
    assert ring == rd


@settings(max_examples=100, deadline=None)
@given(length=st.integers(0, 500), world=st.integers(1, 64))
def test_chunk_bounds_partition(length, world):
    bounds = [chunk_range(length, world, i) for i in range(world)]
    assert len(bounds) == world
    offset = 0
    for off, cnt in bounds:
        assert off == offset
        assert cnt >= 0
        offset += cnt
    assert offset == length
    # Sizes differ by at most one element (load balance contract).
    counts = [cnt for _off, cnt in bounds]
    assert max(counts) - min(counts) <= 1
