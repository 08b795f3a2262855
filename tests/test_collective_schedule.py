"""The collective schedule table, run by a mailbox interpreter.

``repro.collectives.schedule`` is the one description of ring and
recursive-doubling allreduce, broadcast and barrier that both engines
interpret.  Here a few-line interpreter with no simulator executes every
rank's steps over per-link mailboxes and the results are held against
the pure oracle and the test-side references in ``collective_refs``.
The interpreter asserts the table's own consistency on the way: every
message a rank takes is exactly the ``(step, offset, count)`` its
schedule expects, and no message is left over.

The schedule holds its steps as phases; ``TestAgainstReference`` holds it
step for step against ``collective_refs.ref_schedule``, the tuple of
every step built the direct way, and bounds what a 1 024-rank world's
schedules cost to hold.
"""

import random
import tracemalloc
from collections import defaultdict, deque

import pytest

from collective_refs import (recursive_doubling_local, ref_peer_pairs,
                             ref_schedule, ring_allreduce_local)
from repro.collectives import (ALGOS, VARIANTS, allreduce_oracle,
                               combine_into, peer_pairs, rank_vector,
                               schedule)
from repro.errors import ConfigError

SEED = 7
WORLDS = range(1, 34)
POW2_WORLDS = [1, 2, 4, 8, 16, 32]


def interpret(steps_of, vectors, arrival=None):
    """Run every rank's steps over mailboxes; ranks arrive one at a time
    (in ``arrival`` order) whenever no arrived rank can move.

    Returns the final vectors, each rank's arrival tick and the tick it
    passed its last step.
    """
    world = len(steps_of)
    accs = [list(v) for v in vectors]
    boxes = defaultdict(deque)             # (src, dst) -> messages
    at, sent = [0] * world, [False] * world
    waiting, live = list(arrival or range(world)), []
    arrived, finished, tick = {}, {}, 0
    while True:
        moved = False
        for r in live:
            if at[r] == len(steps_of[r]):
                continue
            i, step = at[r], steps_of[r][at[r]]
            if step.send is not None and not sent[r]:
                off, cnt = step.send
                boxes[r, step.send_to].append((i, off, accs[r][off:off + cnt]))
                sent[r] = moved = True
            if step.recv is not None:
                if not boxes[step.recv_from, r]:
                    continue
                got = boxes[step.recv_from, r].popleft()
                assert got[:2] + (len(got[2]),) == (i,) + step.recv, (r, i)
                if step.op == "combine":
                    combine_into(accs[r], got[1], got[2])
                else:
                    accs[r][got[1]:got[1] + len(got[2])] = got[2]
                if step.send is None and step.send_to is not None:
                    boxes[r, step.send_to].append(got)
            at[r], sent[r], moved, tick = at[r] + 1, False, True, tick + 1
            if at[r] == len(steps_of[r]):
                finished[r] = tick
        if not moved:
            if not waiting:
                break
            r = waiting.pop(0)
            live.append(r)
            arrived[r], tick = tick, tick + 1
            if not steps_of[r]:
                finished[r] = tick
    assert all(at[r] == len(steps_of[r]) for r in range(world)), at
    assert not any(boxes.values()), "a message was never received"
    return accs, arrived, finished


def run(algo, variant, world, nelems, root=0, arrival=None):
    steps_of = [schedule(algo, variant, world, r, nelems, root)
                for r in range(world)]
    if algo == "broadcast":
        vectors = [rank_vector(r, world, nelems, SEED) if r == root
                   else [0.0] * nelems for r in range(world)]
    else:
        vectors = [rank_vector(r, world, nelems, SEED)
                   for r in range(world)]
    return vectors, interpret(steps_of, vectors, arrival)


def lengths(world):
    return sorted({0, 1, world - 1, world, 3 * world + 1})


def roots(world):
    return sorted({0, world - 1})


class TestAllreduce:
    @pytest.mark.parametrize("world", WORLDS)
    def test_ring_matches_oracle_and_reference(self, world):
        for nelems in lengths(world):
            for root in roots(world):
                vectors, (accs, _a, _f) = run("allreduce", "ring", world,
                                              nelems, root)
                expected = allreduce_oracle(world, nelems, SEED)
                assert accs == [expected] * world, (world, nelems, root)
                assert accs == ring_allreduce_local(vectors)

    @pytest.mark.parametrize("world", POW2_WORLDS)
    def test_rd_matches_oracle_and_reference(self, world):
        for nelems in lengths(world):
            for root in roots(world):
                vectors, (accs, _a, _f) = run("allreduce", "rd", world,
                                              nelems, root)
                expected = allreduce_oracle(world, nelems, SEED)
                assert accs == [expected] * world, (world, nelems, root)
                assert accs == recursive_doubling_local(vectors)

    def test_step_counts(self):
        for world in (2, 5, 16):
            ring = schedule("allreduce", "ring", world, 1, world)
            assert len(ring) == 2 * (world - 1)
            assert {s.phase for s in ring[:world - 1]} == {"reduce_scatter"}
            assert {s.op for s in ring[world - 1:]} == {"copy"}
        assert len(schedule("allreduce", "rd", 16, 3, 9)) == 4
        assert tuple(schedule("allreduce", "ring", 4, 0, 0)) == ()
        assert tuple(schedule("allreduce", "ring", 1, 0, 9)) == ()


class TestBroadcast:
    @pytest.mark.parametrize("world", WORLDS)
    def test_every_rank_holds_the_roots_vector(self, world):
        for nelems in lengths(world):
            for root in roots(world):
                _v, (accs, _a, _f) = run("broadcast", "ring", world,
                                         nelems, root)
                expected = rank_vector(root, world, nelems, SEED)
                assert accs == [expected] * world, (world, nelems, root)

    def test_rank_before_root_does_not_relay(self):
        last = schedule("broadcast", "ring", 5, 2, 10, root=3)
        assert [(s.send_to, s.send) for s in last] == [(None, None)]
        root = schedule("broadcast", "ring", 5, 3, 10, root=3)
        assert [(s.send_to, s.recv) for s in root] == [(4, None)]


class TestBarrier:
    @pytest.mark.parametrize("world", WORLDS)
    def test_nobody_leaves_before_everybody_arrived(self, world):
        orders = [list(range(world)), list(reversed(range(world)))]
        shuffled = list(range(world))
        random.Random(world).shuffle(shuffled)
        orders.append(shuffled)
        for root in roots(world):
            for order in orders:
                _v, (_accs, arrived, finished) = run(
                    "barrier", "ring", world, 0, root, arrival=order)
                assert sorted(finished) == list(range(world))
                assert min(finished.values()) > max(arrived.values()), \
                    (world, order)

    def test_rank0_starts_the_token(self):
        assert all(s.send == (0, 0)
                   for s in schedule("barrier", "ring", 4, 0, 0))
        assert all(s.send is None
                   for s in schedule("barrier", "ring", 4, 2, 0))


class TestPeerPairs:
    def test_ring_pinned(self):
        assert peer_pairs(2) == [(0, 1)]
        assert peer_pairs(5) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        assert peer_pairs(16) == [(0, 1), (0, 15)] + [
            (r, r + 1) for r in range(1, 15)]

    def test_rd_pinned(self):
        assert peer_pairs(2, "rd") == [(0, 1)]
        # A five-rank rd world is rejected by validate_world before any
        # route install; the pairs are pinned as the schedule gives them.
        assert peer_pairs(5, "rd") == [
            (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6),
            (3, 7), (4, 5), (4, 6)]
        assert peer_pairs(16, "rd") == [
            (0, 1), (0, 2), (0, 4), (0, 8), (1, 3), (1, 5), (1, 9), (2, 3),
            (2, 6), (2, 10), (3, 7), (3, 11), (4, 5), (4, 6), (4, 12),
            (5, 7), (5, 13), (6, 7), (6, 14), (7, 15), (8, 9), (8, 10),
            (8, 12), (9, 11), (9, 13), (10, 11), (10, 14), (11, 15),
            (12, 13), (12, 14), (13, 15), (14, 15)]

    def test_single_rank_has_no_pairs(self):
        assert peer_pairs(1) == []


class TestAgainstReference:
    @pytest.mark.parametrize("world", WORLDS)
    def test_every_schedule_equals_the_tuple_reference(self, world):
        for algo in ALGOS:
            for variant in VARIANTS:
                for root in (range(world) if algo == "broadcast"
                             else roots(world)):
                    for nelems in lengths(world):
                        for rank in range(world):
                            got = schedule(algo, variant, world, rank,
                                           nelems, root)
                            ref = ref_schedule(algo, variant, world, rank,
                                               nelems, root)
                            where = (algo, variant, world, rank, nelems,
                                     root)
                            assert tuple(got) == ref, where
                            assert len(got) == len(ref), where
                            assert [got[i] for i in range(len(ref))] == \
                                list(ref), where
                            if ref:
                                assert got[-1] == ref[-1], where

    def test_out_of_range_index_raises(self):
        steps = schedule("allreduce", "ring", 4, 1, 8)
        with pytest.raises(IndexError):
            steps[len(steps)]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_peer_pairs_equal_brute_force(self, variant):
        for world in range(1, 65):
            assert peer_pairs(world, variant) == \
                ref_peer_pairs(world, variant), world

    def test_a_1024_rank_world_is_small(self):
        """Every rank's ring and rd schedule plus both pair lists, held
        at once: O(1) per rank, where a tuple of 2·(N−1) steps per rank
        would take hundreds of megabytes."""
        world = 1024
        tracemalloc.start()
        try:
            held = [schedule("allreduce", variant, world, rank, world)
                    for variant in VARIANTS for rank in range(world)]
            held += [peer_pairs(world, variant) for variant in VARIANTS]
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(held) == 2 * world + 2
        assert peak < 5 * 1024 * 1024, peak


def test_unknown_algo_rejected():
    with pytest.raises(ConfigError):
        schedule("scan", "ring", 4, 0, 8)
