"""Tests for repro.collectives: host engine vs NIC offload.

The contract under test: both engines run the identical ring schedule
and accumulation rule, so for the same seed/vector they must produce
bit-identical results — and the NIC engine (schedule in firmware, one
doorbell, one CQE) must beat the host engine (a verbs round trip per
step) on latency.
"""

import pytest

from collective_refs import recursive_doubling_local, ring_allreduce_local
from repro import obs
from repro.bench.configs import build_qpip_cluster, build_qpip_pair
from repro.collectives import (COLLECTIVE_PORT, ELEM, CollectiveWorkSpec,
                               HostCollectiveMember, allreduce_oracle,
                               chunk_range, collective_rank_driver,
                               decode_frame, encode_frame, max_frame_elems,
                               peer_pairs, rank_vector, result_digest)
from repro.collectives.group import pack_vector
from repro.core import WROpcode, WRStatus
from repro.errors import ConfigError, NetworkError, ReproError
from repro.obs import TraceQuery
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def run_collective(sim, world, spec, until=60_000_000):
    """Run one op across ``world`` directly-built hosts; return records."""
    nodes, _fabric = build_qpip_cluster(sim, world)
    records = {rank: {} for rank in range(world)}
    procs = [sim.process(collective_rank_driver(
        sim, nodes[rank], rank, world, spec, records[rank]))
        for rank in range(world)]
    sim.run(until=sim.now + until)
    for rank, proc in enumerate(procs):
        assert proc.triggered, f"rank {rank} did not finish"
        if not proc.ok:
            raise proc.value
    return records


class TestSchedules:
    def test_chunk_bounds_cover_vector(self):
        for length, world in ((17, 4), (3, 8), (0, 3), (16, 16)):
            bounds = [chunk_range(length, world, i) for i in range(world)]
            assert len(bounds) == world
            assert sum(cnt for _off, cnt in bounds) == length
            offset = 0
            for off, cnt in bounds:
                assert off == offset
                offset += cnt

    def test_ring_local_matches_oracle(self):
        world, length, seed = 5, 37, 9
        vectors = [rank_vector(r, world, length, seed)
                   for r in range(world)]
        expected = allreduce_oracle(world, length, seed)
        for acc in ring_allreduce_local(vectors):
            assert acc == expected

    def test_rd_local_matches_oracle(self):
        world, length, seed = 8, 21, 3
        vectors = [rank_vector(r, world, length, seed)
                   for r in range(world)]
        expected = allreduce_oracle(world, length, seed)
        for acc in recursive_doubling_local(vectors):
            assert acc == expected

    def test_peer_pairs(self):
        assert peer_pairs(4) == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert peer_pairs(1) == []
        rd = peer_pairs(4, variant="rd")
        assert (0, 2) in rd and (1, 3) in rd


class TestFrames:
    def test_roundtrip(self):
        body = b"\x01" * 24
        data = encode_frame(kind=1, algo=2, phase=1, group=0, seq=3,
                            step=4, offset=5, count=3, payload=body)
        hdr, out = decode_frame(data)
        assert out == body
        assert (hdr.kind, hdr.algo, hdr.step, hdr.offset, hdr.count) \
            == (1, 2, 4, 5, 3)

    def test_truncated_frame_rejected(self):
        with pytest.raises(NetworkError):
            decode_frame(b"\x01\x02")

    def test_max_frame_elems_positive(self):
        assert max_frame_elems(16384) > 0
        assert max_frame_elems(16384) >= max_frame_elems(4096)


class TestWorkSpecValidation:
    def test_bad_fields(self):
        with pytest.raises(ConfigError):
            CollectiveWorkSpec(algo="scan")
        with pytest.raises(ConfigError):
            CollectiveWorkSpec(engine="dpu")
        with pytest.raises(ConfigError):
            CollectiveWorkSpec(variant="tree")
        with pytest.raises(ConfigError):
            CollectiveWorkSpec(vector_len=-1)

    def test_rd_is_host_allreduce_only(self):
        with pytest.raises(ConfigError):
            CollectiveWorkSpec(variant="rd", engine="nic")
        with pytest.raises(ConfigError):
            CollectiveWorkSpec(variant="rd", engine="host", algo="barrier")
        spec = CollectiveWorkSpec(variant="rd", engine="host")
        with pytest.raises(ConfigError):
            spec.validate_world(6)       # not a power of two
        spec.validate_world(8)

    def test_root_outside_world(self):
        spec = CollectiveWorkSpec(algo="broadcast", root=9)
        with pytest.raises(ConfigError):
            spec.validate_world(4)


class TestEnginesAgree:
    """Same seed, same vector => bit-identical results across engines."""

    def _run_both(self, world, **kwargs):
        out = {}
        for engine in ("host", "nic"):
            spec = CollectiveWorkSpec(engine=engine, **kwargs)
            out[engine] = run_collective(Simulator(), world, spec)
        return out

    def test_allreduce_matches_oracle_both_engines(self):
        world, length, seed = 4, 48, 7
        expected = allreduce_oracle(world, length, seed)
        runs = self._run_both(world, algo="allreduce", vector_len=length,
                              seed=seed)
        for engine, records in runs.items():
            for rank in range(world):
                rec = records[rank]
                assert rec["status"] == "SUCCESS", (engine, rank)
                assert rec["result_digest"] == result_digest(expected), \
                    (engine, rank)

    def test_identical_stats_across_engines(self):
        runs = self._run_both(4, algo="allreduce", vector_len=48, seed=7)
        for rank in range(4):
            host = runs["host"][rank]["stats"]
            nic = runs["nic"][rank]["stats"]
            assert host["steps"] == nic["steps"] == 6       # 2*(world-1)
            assert host["bytes_sent"] == nic["bytes_sent"]
            assert host["phase_bytes"] == nic["phase_bytes"]
            assert host["wall_time_us"] > 0
            assert nic["wall_time_us"] > 0

    def test_nic_beats_host_latency(self):
        runs = self._run_both(8, algo="allreduce", vector_len=128, seed=2)
        host_us = max(runs["host"][r]["stats"]["wall_time_us"]
                      for r in range(8))
        nic_us = max(runs["nic"][r]["stats"]["wall_time_us"]
                     for r in range(8))
        assert nic_us < host_us, (nic_us, host_us)

    def test_broadcast_nonzero_root(self):
        world, length, seed = 4, 33, 5
        expected = result_digest(rank_vector(2, world, length, seed))
        runs = self._run_both(world, algo="broadcast", vector_len=length,
                              root=2, seed=seed)
        for engine, records in runs.items():
            for rank in range(world):
                assert records[rank]["result_digest"] == expected, \
                    (engine, rank)

    def test_barrier(self):
        runs = self._run_both(4, algo="barrier")
        for engine, records in runs.items():
            for rank in range(4):
                rec = records[rank]
                assert rec["status"] == "SUCCESS", (engine, rank)
                assert rec["stats"]["steps"] == 2

    def test_nic_barrier_holds_early_arrivals(self, sim):
        # Rank r reaches the barrier r*5 ms late; nobody may leave it
        # before the last rank has arrived.  (The host engine wires its
        # ring before any stagger; its case is in test_collective.py.)
        world = 4
        nodes, _fabric = build_qpip_cluster(sim, world)
        records = [{} for _ in range(world)]
        for rank in range(world):
            spec = CollectiveWorkSpec(engine="nic", algo="barrier",
                                      start=5000.0 * rank)
            sim.process(collective_rank_driver(sim, nodes[rank], rank,
                                               world, spec, records[rank]))
        sim.run(until=60_000_000)
        exits = [rec["done_at"] for rec in records]
        assert min(exits) >= 5000.0 * (world - 1), exits
        assert max(exits) - min(exits) < 2_000, exits

    def test_empty_vector_no_wire_traffic(self):
        runs = self._run_both(3, algo="allreduce", vector_len=0)
        for engine, records in runs.items():
            for rank in range(3):
                stats = records[rank]["stats"]
                assert stats["steps"] == 0, engine
                assert stats["bytes_sent"] == 0, engine

    def test_world_of_one_is_identity(self):
        vec = rank_vector(0, 1, 16, seed=4)
        runs = self._run_both(1, algo="allreduce", vector_len=16, seed=4)
        for engine, records in runs.items():
            assert records[0]["result_digest"] == result_digest(vec), engine
            assert records[0]["stats"]["bytes_sent"] == 0

    def test_rendezvous_path_matches_oracle(self, sim):
        # Chunks of 8192B exceed the 4096B eager threshold: the NIC
        # engine must switch to RTS/CTS without changing the bits.
        world, length, seed = 4, 4096, 11
        spec = CollectiveWorkSpec(engine="nic", algo="allreduce",
                                  vector_len=length, seed=seed,
                                  eager_threshold=4096)
        records = run_collective(sim, world, spec)
        expected = result_digest(allreduce_oracle(world, length, seed))
        for rank in range(world):
            assert records[rank]["result_digest"] == expected
            assert "rendezvous" in records[rank]["stats"]["phase_bytes"]

    def test_rd_variant_matches_oracle(self, sim):
        world, length, seed = 8, 50, 13
        spec = CollectiveWorkSpec(engine="host", variant="rd",
                                  algo="allreduce", vector_len=length,
                                  seed=seed)
        records = run_collective(sim, world, spec)
        expected = result_digest(allreduce_oracle(world, length, seed))
        for rank in range(world):
            assert records[rank]["result_digest"] == expected
            assert records[rank]["stats"]["steps"] == 3    # log2(8)


class TestVectorLengthMismatch:
    """Two ranks posting different lengths: every frame is checked
    against the range the receiver's own schedule expects, so both ranks
    fail cleanly — no crash out of the kernel, no hang."""

    def _nic(self, n0, n1):
        sim = Simulator()
        a, b, _fabric = build_qpip_pair(sim)
        statuses = {}

        def rank(node, r, n, peer):
            iface = node.iface
            cq = yield from iface.create_cq()
            buf = yield from iface.register_memory(n * ELEM)
            buf.write(pack_vector([float(r + 1)] * n))
            yield from iface.coll_create(0, r, 2, peer.addr,
                                         COLLECTIVE_PORT, cq)
            yield from iface.coll_post(0, "allreduce", n,
                                       buf.sge(0, n * ELEM))
            while r not in statuses:
                for cqe in (yield from iface.wait(cq)):
                    if cqe.opcode is WROpcode.COLLECTIVE:
                        statuses[r] = cqe.status

        sim.process(rank(a, 0, n0, b))
        sim.process(rank(b, 1, n1, a))
        sim.run(until=60_000_000)
        return statuses

    def _host(self, n0, n1):
        sim = Simulator()
        nodes, _fabric = build_qpip_cluster(sim, 2)
        spec = CollectiveWorkSpec(engine="host")
        outcome = {}

        def rank(r, n):
            member = HostCollectiveMember(nodes[r], r, 2, spec,
                                          lambda i: nodes[i].addr)
            yield from member.setup()
            try:
                outcome[r] = yield from member.run([float(r + 1)] * n)
            except ReproError as exc:
                outcome[r] = exc

        sim.process(rank(0, n0))
        sim.process(rank(1, n1))
        sim.run(until=60_000_000)
        return outcome

    def test_nic_short_against_long(self):
        assert self._nic(4, 8) == {0: WRStatus.REMOTE_ABORTED,
                                   1: WRStatus.REMOTE_ABORTED}

    def test_nic_long_against_short(self):
        assert self._nic(8, 4) == {0: WRStatus.REMOTE_ABORTED,
                                   1: WRStatus.REMOTE_ABORTED}

    def test_host_long_against_short(self):
        outcome = self._host(8, 4)
        assert sorted(outcome) == [0, 1]
        for r in (0, 1):
            assert isinstance(outcome[r], ReproError), outcome
            assert f"rank {r}: step 0" in str(outcome[r])

    def test_host_short_against_long(self):
        outcome = self._host(4, 8)
        assert sorted(outcome) == [0, 1]
        assert isinstance(outcome[0], ReproError), outcome
        assert "rank 0: step 0" in str(outcome[0])
        assert isinstance(outcome[1], ReproError), outcome


class TestObsSpans:
    """Collective phases are visible to the tracer in both engines."""

    @pytest.mark.parametrize("engine", ["host", "nic"])
    def test_allreduce_phase_spans(self, sim, engine):
        spec = CollectiveWorkSpec(engine=engine, algo="allreduce",
                                  vector_len=64, seed=3)
        with obs.capture(sim) as rec:
            run_collective(sim, 4, spec)
        query = TraceQuery(rec)
        # Reduce-scatter completes before allgather on every rank.
        query.assert_span_order("collective.reduce_scatter",
                                "collective.allgather", cat="coll")
        assert query.count("coll", "collective.reduce_scatter",
                           ph="b") == 4
        assert query.count("coll", "collective.allgather", ph="b") == 4

    @pytest.mark.parametrize("engine", ["host", "nic"])
    def test_barrier_release_events(self, sim, engine):
        spec = CollectiveWorkSpec(engine=engine, algo="barrier")
        with obs.capture(sim) as rec:
            run_collective(sim, 4, spec)
        query = TraceQuery(rec)
        assert query.count("coll", "collective.barrier_release") == 4
        for rank in range(4):
            assert query.first("coll", "collective.barrier_release",
                               rank=rank) is not None

    def test_tracing_does_not_change_results(self):
        spec = CollectiveWorkSpec(engine="nic", algo="allreduce",
                                  vector_len=64, seed=3)
        plain = run_collective(Simulator(), 4, spec)
        sim = Simulator()
        with obs.capture(sim):
            traced = run_collective(sim, 4, spec)
        for rank in range(4):
            assert plain[rank]["result_digest"] \
                == traced[rank]["result_digest"]
            assert plain[rank]["stats"] == traced[rank]["stats"]


class TestJobAndCli:
    def test_job_summary(self):
        from repro.collectives import CollectiveJob
        work = CollectiveWorkSpec(engine="nic", algo="allreduce",
                                  vector_len=128, seed=5)
        summary = CollectiveJob(work, hosts=8).run()
        assert summary["status_ok"]
        assert summary["ranks_agree"]
        assert summary["oracle_match"]
        assert summary["world"] == 8
        assert summary["max_wall_time_us"] > 0

    def test_cli_collective(self, capsys):
        from repro.cli import main
        rc = main(["collective", "--engine", "nic", "--algo", "allreduce",
                   "--hosts", "8", "--vector-len", "64", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert '"ok": true' in out

    def test_cli_collective_bad_config(self, capsys):
        from repro.cli import main
        rc = main(["collective", "--engine", "nic", "--variant", "rd",
                   "--json"])
        out = capsys.readouterr().out
        assert rc == 1
        assert '"ok": false' in out
