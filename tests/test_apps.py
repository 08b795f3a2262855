"""Tests for the application layer: ping-pong, ttcp, NBD."""

import pytest

from repro.apps import (qpip_tcp_rtt, qpip_udp_rtt, socket_tcp_rtt,
                        socket_udp_rtt, qpip_ttcp, socket_ttcp)
from repro.apps.nbd import (DiskModel, NBD_PORT, NBDCommand, NBDReply,
                            NBDRequest, NbdQpipClient, NbdSocketClient,
                            qpip_nbd_server, socket_nbd_server)
from repro.bench.configs import build_gige_pair, build_qpip_pair
from repro.errors import NBDError
from repro.sim import Simulator
from repro.units import MB


@pytest.fixture
def sim():
    return Simulator()


class TestPingPong:
    def test_socket_tcp_rtt_stable(self, sim):
        a, b, _f = build_gige_pair(sim)
        r = socket_tcp_rtt(sim, a, b, iterations=30)
        assert len(r.rtts) == 30
        assert r.mean > 0
        # Steady state: post-warmup RTTs are tightly clustered.
        tail = r.rtts[5:]
        assert max(tail) - min(tail) < 0.5 * r.mean

    def test_socket_udp_faster_than_tcp(self, sim):
        a, b, _f = build_gige_pair(sim)
        tcp = socket_tcp_rtt(sim, a, b, iterations=30)
        sim2 = Simulator()
        a2, b2, _f2 = build_gige_pair(sim2)
        udp = socket_udp_rtt(sim2, a2, b2, iterations=30)
        assert udp.mean < tcp.mean

    def test_qpip_rtt_beats_sockets(self, sim):
        a, b, _f = build_qpip_pair(sim)
        q = qpip_tcp_rtt(sim, a, b, iterations=30)
        sim2 = Simulator()
        a2, b2, _f2 = build_gige_pair(sim2)
        s = socket_tcp_rtt(sim2, a2, b2, iterations=30)
        assert q.mean < s.mean

    def test_rtt_grows_with_message_size(self, sim):
        a, b, _f = build_qpip_pair(sim)
        small = qpip_tcp_rtt(sim, a, b, iterations=20, msg_size=1)
        sim2 = Simulator()
        a2, b2, _f2 = build_qpip_pair(sim2)
        big = qpip_tcp_rtt(sim2, a2, b2, iterations=20, msg_size=8192)
        assert big.mean > small.mean + 30   # DMA + wire time both ways

    def test_median(self):
        from repro.apps.pingpong import RttResult
        assert RttResult([3.0, 1.0, 2.0]).median == 2.0
        assert RttResult([]).median == 0.0


class TestTtcp:
    def test_socket_ttcp_moves_all_bytes(self, sim):
        a, b, _f = build_gige_pair(sim)
        r = socket_ttcp(sim, a, b, total_bytes=1 * MB)
        assert r.bytes_moved == 1 * MB
        assert r.mb_per_sec > 5
        assert 0 < r.tx_cpu_utilization <= 1

    def test_qpip_ttcp_cpu_advantage(self, sim):
        a, b, _f = build_qpip_pair(sim)
        q = qpip_ttcp(sim, a, b, total_bytes=2 * MB)
        sim2 = Simulator()
        a2, b2, _f2 = build_gige_pair(sim2)
        s = socket_ttcp(sim2, a2, b2, total_bytes=2 * MB)
        assert q.mb_per_sec > s.mb_per_sec
        assert q.tx_cpu_utilization < s.tx_cpu_utilization / 5

    def test_qpip_queue_depth_matters(self, sim):
        a, b, _f = build_qpip_pair(sim)
        shallow = qpip_ttcp(sim, a, b, total_bytes=2 * MB, queue_depth=1)
        sim2 = Simulator()
        a2, b2, _f2 = build_qpip_pair(sim2)
        deep = qpip_ttcp(sim2, a2, b2, total_bytes=2 * MB, queue_depth=8)
        assert deep.mb_per_sec > shallow.mb_per_sec


class TestNbdProtocol:
    def test_request_roundtrip(self):
        r = NBDRequest(NBDCommand.WRITE, handle=42, offset=1 << 30,
                       length=128 * 1024)
        decoded = NBDRequest.decode(r.encode())
        assert decoded == r
        assert len(r.encode()) == 28

    def test_reply_roundtrip(self):
        r = NBDReply(handle=7, error=2)
        decoded = NBDReply.decode(r.encode())
        assert decoded == r
        assert len(r.encode()) == 16

    def test_bad_magic_rejected(self):
        with pytest.raises(NBDError):
            NBDRequest.decode(b"\x00" * 28)
        with pytest.raises(NBDError):
            NBDReply.decode(b"\x00" * 16)

    def test_short_buffers_rejected(self):
        with pytest.raises(NBDError):
            NBDRequest.decode(b"\x00" * 10)

    def test_unknown_command_rejected(self):
        import struct
        from repro.apps.nbd.protocol import REQUEST_MAGIC
        raw = struct.pack("!IIQQI", REQUEST_MAGIC, 99, 0, 0, 0)
        with pytest.raises(NBDError):
            NBDRequest.decode(raw)


class TestDiskModel:
    def test_small_writes_absorbed_by_cache(self, sim):
        disk = DiskModel(sim, dirty_limit=1 << 20)
        assert disk.write(64 * 1024) is None

    def test_dirty_limit_applies_backpressure(self, sim):
        disk = DiskModel(sim, dirty_limit=128 * 1024)
        gates = [disk.write(128 * 1024) for _ in range(4)]
        assert any(g is not None for g in gates)

        def waiter():
            for g in gates:
                if g is not None:
                    yield g
            return sim.now

        t = sim.run_process(waiter())
        assert t > 0    # had to wait for the platter

    def test_sync_waits_for_all_dirty_data(self, sim):
        disk = DiskModel(sim)
        disk.write(512 * 1024)

        def syncer():
            yield disk.sync()
            return sim.now

        t = sim.run_process(syncer())
        assert disk.dirty_bytes == 0
        assert disk.bytes_written == 512 * 1024
        # 512 KiB at 50 B/µs plus per-IO overhead.
        assert t >= 512 * 1024 / 50

    def test_sync_immediate_when_clean(self, sim):
        disk = DiskModel(sim)

        def syncer():
            yield disk.sync()
            return sim.now

        assert sim.run_process(syncer()) == 0.0

    def test_throughput_converges_to_disk_bandwidth(self, sim):
        disk = DiskModel(sim, write_bandwidth=10.0, per_io_overhead=0.0,
                         dirty_limit=64 * 1024)
        total = 4 * MB

        def producer():
            offset = 0
            while offset < total:
                gate = disk.write(64 * 1024)
                if gate is not None:
                    yield gate
                offset += 64 * 1024
            yield disk.sync()
            return sim.now

        t = sim.run_process(producer())
        rate = total / t
        assert rate == pytest.approx(10.0, rel=0.1)


class TestNbdEndToEnd:
    def _roundtrip(self, system: str, total=4 * MB):
        sim = Simulator()
        if system == "qpip":
            client, server, _f = build_qpip_pair(sim, mtu=9000)
            disk = DiskModel(sim)
            sim.process(qpip_nbd_server(sim, server, disk))
            nbd = NbdQpipClient(client, server.addr, NBD_PORT)
        else:
            client, server, _f = build_gige_pair(sim)
            disk = DiskModel(sim)
            sim.process(socket_nbd_server(sim, server, disk))
            nbd = NbdSocketClient(client, server.addr, NBD_PORT)
        results = {}

        def run():
            yield from nbd.connect()
            results["write"] = yield from nbd.run_phase("write", total)
            yield disk.sync()
            results["read"] = yield from nbd.run_phase("read", total)
            yield from nbd.disconnect()

        cp = sim.process(run())
        sim.run(until=600_000_000)
        assert cp.triggered, f"{system} NBD hung"
        if not cp.ok:
            raise cp.value
        return results, disk

    def test_socket_nbd_roundtrip(self):
        results, disk = self._roundtrip("socket")
        assert results["write"].bytes_moved == 4 * MB
        assert results["read"].bytes_moved == 4 * MB
        assert disk.bytes_written == 4 * MB     # everything hit the platter
        assert results["write"].mb_per_sec > 1
        assert results["read"].mb_per_sec > results["write"].mb_per_sec

    def test_qpip_nbd_roundtrip(self):
        results, disk = self._roundtrip("qpip")
        assert disk.bytes_written == 4 * MB
        assert results["read"].mb_per_sec > results["write"].mb_per_sec
        # The QPIP client's CPU time is dominated by filesystem work,
        # not network stack (the paper's headline for Figure 7).
        r = results["read"]
        assert r.fs_cpu_busy_us / r.client_cpu_busy_us > 0.5

    def test_qpip_beats_socket_nbd(self):
        q, _ = self._roundtrip("qpip")
        s, _ = self._roundtrip("socket")
        assert q["read"].mb_per_sec > s["read"].mb_per_sec
        assert q["read"].cpu_effectiveness > 2 * s["read"].cpu_effectiveness


class TestNbdNegotiation:
    def test_negotiation_roundtrip(self):
        from repro.apps.nbd import NBDNegotiation
        n = NBDNegotiation(export_size=409 * 1024 * 1024, flags=1)
        raw = n.encode()
        assert len(raw) == 152
        decoded = NBDNegotiation.decode(raw)
        assert decoded == n

    def test_bad_password_rejected(self):
        from repro.apps.nbd import NBDNegotiation
        from repro.errors import NBDError
        raw = bytearray(NBDNegotiation(100).encode())
        raw[0] = ord("X")
        with pytest.raises(NBDError):
            NBDNegotiation.decode(bytes(raw))

    def test_clients_learn_export_size(self, sim):
        client, server, _f = build_gige_pair(sim)
        disk = DiskModel(sim)
        sim.process(socket_nbd_server(sim, server, disk,
                                      export_size=777 * 1024))
        nbd = NbdSocketClient(client, server.addr, NBD_PORT)

        def run():
            yield from nbd.connect()
            yield from nbd.run_phase("read", 64 * 1024)
            yield from nbd.disconnect()
            return nbd.negotiation.export_size

        cp = sim.process(run())
        sim.run(until=60_000_000)
        assert cp.triggered and cp.ok
        assert cp.value == 777 * 1024

    def test_qpip_client_negotiates_too(self, sim):
        client, server, _f = build_qpip_pair(sim, mtu=9000)
        disk = DiskModel(sim)
        sim.process(qpip_nbd_server(sim, server, disk))
        nbd = NbdQpipClient(client, server.addr, NBD_PORT)

        def run():
            yield from nbd.connect()
            return nbd.negotiation.export_size

        cp = sim.process(run())
        sim.run(until=60_000_000)
        assert cp.triggered and cp.ok
        assert cp.value == 1 << 30
