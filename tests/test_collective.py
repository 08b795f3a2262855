"""Host-engine ring collectives over QPIP, driven rank by rank.

``test_collectives.py`` pins the engines against each other and the
oracle; this file drives :class:`HostCollectiveMember` directly on a
one-switch cluster for what a single op cannot show — repeated ops on
the same links, ring-size scaling, per-rank accounting, and a barrier
that really holds early arrivals back.
"""

import pytest

from repro.bench.configs import build_qpip_cluster
from repro.collectives import (ELEM, HEADER_SIZE, CollectiveWorkSpec,
                               HostCollectiveMember)
from repro.collectives.group import pack_vector, unpack_vector
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def run_ring(sim, n, body_factory, algo="allreduce", until=120_000_000):
    """Wire an n-rank host-engine ring, then run ``body`` on every rank."""
    nodes, _fabric = build_qpip_cluster(sim, n)
    spec = CollectiveWorkSpec(engine="host", algo=algo)
    ring = [HostCollectiveMember(node, rank, n, spec,
                                 lambda r: nodes[r].addr)
            for rank, node in enumerate(nodes)]
    results = {}

    def rank_proc(member):
        yield from member.setup()
        results[member.rank] = yield from body_factory(member)

    procs = [sim.process(rank_proc(m)) for m in ring]
    sim.run(until=sim.now + until)
    for p in procs:
        assert p.triggered, "a rank did not finish"
        if not p.ok:
            raise p.value
    return ring, results


class TestCodec:
    def test_pack_unpack(self):
        values = [0.0, 1.5, -3.25, 1e12]
        assert unpack_vector(pack_vector(values)) == values


class TestAllreduce:
    def test_sum_of_rank_vectors(self, sim):
        n = 4

        def body(member):
            vec = [float(member.rank + 1)] * 8
            out = yield from member.run(vec)
            return out

        ring, results = run_ring(sim, n, body)
        expected = [float(sum(range(1, n + 1)))] * 8   # 1+2+3+4 = 10
        for rank in range(n):
            assert results[rank] == pytest.approx(expected)

    def test_all_ranks_agree(self, sim):
        def body(member):
            vec = [member.rank * 0.5, member.rank ** 2, 7.0]
            return (yield from member.run(vec))

        _ring, results = run_ring(sim, 3, body)
        assert results[0] == results[1] == results[2]

    def test_two_ranks(self, sim):
        def body(member):
            return (yield from member.run([1.0, 2.0]))

        _ring, results = run_ring(sim, 2, body)
        assert results[0] == pytest.approx([2.0, 4.0])

    def test_repeated_allreduce(self, sim):
        def body(member):
            outs = []
            for round_i in range(3):
                out = yield from member.run([float(round_i)] * 4)
                outs.append(out[0])
            return outs

        _ring, results = run_ring(sim, 3, body)
        for rank in range(3):
            assert results[rank] == pytest.approx([0.0, 3.0, 6.0])

    def test_steps_and_bytes_accounted(self, sim):
        n = 4

        def body(member):
            yield from member.run([1.0] * 16)
            return member.stats

        _ring, results = run_ring(sim, n, body)
        # reduce-scatter + allgather, one 4-element chunk frame per step
        for rank in range(n):
            stats = results[rank]
            assert stats.steps == 2 * (n - 1)
            assert stats.bytes_sent == 2 * (n - 1) * (HEADER_SIZE + 4 * ELEM)
            assert stats.wall_time_us > 0

    def test_scales_with_ring_size(self, sim):
        def body(member):
            yield from member.run([1.0] * 8)
            return member.stats.wall_time_us

        _r, three = run_ring(sim, 3, body)
        sim2 = Simulator()
        _r, five = run_ring(sim2, 5, body)
        # More ranks, more ring steps, more time.
        assert max(five.values()) > max(three.values())


class TestBarrier:
    def test_barrier_synchronizes(self, sim):
        arrivals, exits = {}, {}

        def body(member):
            # Stagger arrival: rank r works for r*5 ms first.
            yield member.sim.timeout(member.rank * 5000)
            arrivals[member.rank] = member.sim.now
            yield from member.run()
            exits[member.rank] = member.sim.now
            return True

        run_ring(sim, 4, body, algo="barrier")
        assert max(arrivals.values()) - min(arrivals.values()) > 10_000
        # Nobody leaves the barrier before the slowest arrival.
        assert min(exits.values()) >= max(arrivals.values())
        # Exits are tightly clustered (within one ring trip).
        assert max(exits.values()) - min(exits.values()) < 2_000
