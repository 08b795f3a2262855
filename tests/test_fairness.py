"""Multi-flow behaviour: two QPIP streams share the interface and the
wire fairly; Reno flows converge under a shared bottleneck."""

import hashlib
import struct

import pytest

from repro.bench.configs import build_qpip_cluster
from repro.core import QPTransport, WROpcode
from repro.net.addresses import Endpoint
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def _stream(sim, src, dst, port, total, done, tag, chunk=16 * 1024):
    """One unidirectional QP stream; records finish time in done[tag]."""

    def server():
        iface = dst.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq, max_recv_wr=64)
        bufs = []
        for _ in range(16):
            buf = yield from iface.register_memory(chunk)
            yield from iface.post_recv(qp, [buf.sge()])
            bufs.append(buf)
        listener = yield from iface.listen(port)
        yield from iface.accept(listener, qp)
        got = 0
        ring = 0
        while got < total:
            cqes = yield from iface.wait(cq)
            for cqe in cqes:
                if cqe.opcode is WROpcode.RECV:
                    got += cqe.byte_len
                    yield from iface.post_recv(qp, [bufs[ring].sge()])
                    ring = (ring + 1) % len(bufs)
        done[tag] = sim.now

    def client():
        iface = src.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq, max_send_wr=32)
        sbuf = yield from iface.register_memory(chunk)
        yield sim.timeout(1000)
        yield from iface.connect(qp, Endpoint(dst.addr, port))
        ep = src.firmware.endpoints[qp.qp_num]
        max_msg = ep.conn.max_message
        sent = 0
        inflight = 0
        while sent < total or inflight > 0:
            while sent < total and inflight < 8:
                n = min(chunk, max_msg, total - sent)
                yield from iface.post_send(qp, [sbuf.sge(0, n)])
                sent += n
                inflight += 1
            cqes = yield from iface.wait(cq)
            inflight -= len(cqes)

    return [server(), client()]


class TestSharedReceiverFairness:
    def test_two_senders_one_receiver_finish_together(self, sim):
        """Two hosts stream the same amount into one receiver NIC: its
        firmware round-robins, so neither flow starves and completion
        times are close."""
        nodes, _fabric = build_qpip_cluster(sim, 3)
        total = 2 * 1024 * 1024
        done = {}
        gens = _stream(sim, nodes[1], nodes[0], 9001, total, done, "f1") \
            + _stream(sim, nodes[2], nodes[0], 9002, total, done, "f2")
        procs = [sim.process(g) for g in gens]
        sim.run(until=sim.now + 300_000_000)
        assert all(p.triggered and p.ok for p in procs)
        t1, t2 = done["f1"], done["f2"]
        assert abs(t1 - t2) < 0.25 * max(t1, t2)

    def test_one_sender_two_destinations_shares_the_nic(self, sim):
        """One sender NIC feeding two receivers: both make progress and
        aggregate goodput roughly matches the single-flow interface
        capacity (the NIC is the shared bottleneck)."""
        nodes, _fabric = build_qpip_cluster(sim, 3)
        total = 2 * 1024 * 1024
        done = {}
        t0 = sim.now
        gens = _stream(sim, nodes[0], nodes[1], 9001, total, done, "d1") \
            + _stream(sim, nodes[0], nodes[2], 9002, total, done, "d2")
        procs = [sim.process(g) for g in gens]
        sim.run(until=sim.now + 300_000_000)
        assert all(p.triggered and p.ok for p in procs)
        elapsed = max(done.values()) - t0
        aggregate_mbps = (2 * total) / elapsed * 1e6 / (1 << 20)
        # Single-flow QPIP does ~80 MB/s; two flows on one NIC share it.
        assert 55 <= aggregate_mbps <= 95
        assert abs(done["d1"] - done["d2"]) < 0.25 * elapsed

    def test_background_flow_does_not_stall_latency_flow(self, sim):
        """A bulk stream and a ping-pong share a sender NIC: the
        ping-pong RTT degrades but stays bounded (round-robin service,
        not FIFO starvation)."""
        nodes, _fabric = build_qpip_cluster(sim, 3)
        done = {}
        bulk = _stream(sim, nodes[0], nodes[1], 9001, 4 * 1024 * 1024,
                       done, "bulk")
        rtts = []

        def pong_server():
            iface = nodes[2].iface
            cq = yield from iface.create_cq()
            qp = yield from iface.create_qp(QPTransport.TCP, cq)
            bufs = []
            for _ in range(4):
                buf = yield from iface.register_memory(4096)
                yield from iface.post_recv(qp, [buf.sge()])
                bufs.append(buf)
            sbuf = yield from iface.register_memory(4096)
            listener = yield from iface.listen(9100)
            yield from iface.accept(listener, qp)
            ring = 0
            for _ in range(30):
                got = False
                while not got:
                    cqes = yield from iface.spin(cq)
                    for cqe in cqes:
                        if cqe.opcode is WROpcode.RECV:
                            got = True
                yield from iface.post_send(qp, [sbuf.sge(0, 1)])
                yield from iface.post_recv(qp, [bufs[ring].sge()])
                ring = (ring + 1) % len(bufs)

        def pong_client():
            iface = nodes[0].iface
            cq = yield from iface.create_cq()
            qp = yield from iface.create_qp(QPTransport.TCP, cq)
            bufs = []
            for _ in range(4):
                buf = yield from iface.register_memory(4096)
                yield from iface.post_recv(qp, [buf.sge()])
                bufs.append(buf)
            sbuf = yield from iface.register_memory(4096)
            yield sim.timeout(2000)
            yield from iface.connect(qp, Endpoint(nodes[2].addr, 9100))
            ring = 0
            for _ in range(30):
                t0 = sim.now
                yield from iface.post_send(qp, [sbuf.sge(0, 1)])
                got = False
                while not got:
                    cqes = yield from iface.spin(cq)
                    for cqe in cqes:
                        if cqe.opcode is WROpcode.RECV:
                            got = True
                rtts.append(sim.now - t0)
                yield from iface.post_recv(qp, [bufs[ring].sge()])
                ring = (ring + 1) % len(bufs)

        procs = [sim.process(g) for g in bulk] + [
            sim.process(pong_server()), sim.process(pong_client())]
        sim.run(until=sim.now + 300_000_000)
        assert all(p.triggered and p.ok for p in procs)
        # The exact RTT list the event-per-poll spin loop produced here,
        # recorded before QpipInterface.spin learned to elide empty polls
        # (both spinners share their host CPUs with the bulk stream).
        assert hashlib.sha256(struct.pack(f"<{len(rtts)}d", *rtts)).hexdigest() \
            == "3bacbcab18d48a062b81b05b0ae0e747d3ac81287421dbea584840415771a1c1"
        mean_rtt = sum(rtts) / len(rtts)
        # Degraded vs the ~114 µs idle RTT, but bounded: the bulk flow's
        # 16 KB messages hold the NIC for ~150 µs each at most a few
        # times per round trip.
        assert mean_rtt < 1_200
        assert max(rtts) < 3_000
