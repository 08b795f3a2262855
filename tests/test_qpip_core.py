"""Integration tests for the QPIP core: verbs, firmware FSMs, QP
semantics over the simulated Myrinet fabric."""

import pytest

from repro import obs
from repro.apps.pingpong import qpip_udp_rtt
from repro.bench.configs import build_qpip_pair
from repro.obs import TraceQuery
from repro.core import (MessageReassembler, QPState, QPTransport, WRStatus,
                        frame_message)
from repro.errors import MemoryRegistrationError, QPStateError, VerbsError
from repro.hw import lanai_fw_checksum, ib_class_timing
from repro.net.addresses import Endpoint
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def pair(sim):
    return build_qpip_pair(sim)


def run_procs(sim, *gens, until=30_000_000):
    procs = [sim.process(g) for g in gens]
    sim.run(until=sim.now + until)
    for p in procs:
        assert p.triggered, "process did not finish"
        if not p.ok:
            raise p.value
    return [p.value for p in procs]


def setup_connected_qps(sim, a, b, port=9000, recv_bufs=8, buf_size=16 * 1024):
    """Standard rig: server listens/accepts, client connects.

    Returns dict with qps, cqs, and pre-posted receive buffers.
    """
    rig = {}

    def server():
        cq = yield from b.iface.create_cq()
        qp = yield from b.iface.create_qp(QPTransport.TCP, cq)
        bufs = []
        for _ in range(recv_bufs):
            buf = yield from b.iface.register_memory(buf_size)
            yield from b.iface.post_recv(qp, [buf.sge()])
            bufs.append(buf)
        listener = yield from b.iface.listen(port)
        yield from b.iface.accept(listener, qp)
        rig["server_qp"] = qp
        rig["server_cq"] = cq
        rig["server_bufs"] = bufs
        rig["listener"] = listener

    def client():
        cq = yield from a.iface.create_cq()
        qp = yield from a.iface.create_qp(QPTransport.TCP, cq)
        bufs = []
        for _ in range(recv_bufs):
            buf = yield from a.iface.register_memory(buf_size)
            yield from a.iface.post_recv(qp, [buf.sge()])
            bufs.append(buf)
        # Let the server reach LISTEN first.
        yield sim.timeout(500)
        yield from a.iface.connect(qp, Endpoint(b.addr, port))
        rig["client_qp"] = qp
        rig["client_cq"] = cq
        rig["client_bufs"] = bufs

    run_procs(sim, server(), client())
    return rig


class TestConnectionSetup:
    def test_connect_accept_mates_qps(self, sim, pair):
        a, b, _fabric = pair
        rig = setup_connected_qps(sim, a, b)
        assert rig["client_qp"].state is QPState.CONNECTED
        assert rig["server_qp"].state is QPState.CONNECTED
        assert rig["client_qp"].remote == Endpoint(b.addr, 9000)
        # Handshake ran in the NIC: exactly 3 wire segments + window update.
        assert a.nic.packets_tx >= 2

    def test_connect_refused_when_no_listener(self, sim, pair):
        a, b, _fabric = pair

        def client():
            cq = yield from a.iface.create_cq()
            qp = yield from a.iface.create_qp(QPTransport.TCP, cq)
            with pytest.raises(Exception):
                yield from a.iface.connect(qp, Endpoint(b.addr, 4444))

        run_procs(sim, client())

    def test_multiple_qps_same_listener(self, sim, pair):
        a, b, _fabric = pair
        done = {}

        def server():
            cq = yield from b.iface.create_cq()
            listener = yield from b.iface.listen(9000)
            qps = []
            for _ in range(3):
                qp = yield from b.iface.create_qp(QPTransport.TCP, cq)
                buf = yield from b.iface.register_memory(4096)
                yield from b.iface.post_recv(qp, [buf.sge()])
                yield from b.iface.accept(listener, qp)
                qps.append(qp)
            done["server_qps"] = qps

        def client():
            cq = yield from a.iface.create_cq()
            yield sim.timeout(1000)
            qps = []
            for _ in range(3):
                qp = yield from a.iface.create_qp(QPTransport.TCP, cq)
                yield from a.iface.connect(qp, Endpoint(b.addr, 9000))
                qps.append(qp)
            done["client_qps"] = qps

        run_procs(sim, server(), client())
        assert len(done["server_qps"]) == 3
        assert all(qp.state is QPState.CONNECTED for qp in done["server_qps"])
        ports = {qp.remote.port for qp in done["server_qps"]}
        assert len(ports) == 3     # three distinct client ports


class TestSendReceive:
    def test_message_roundtrip_with_real_data(self, sim, pair):
        a, b, _fabric = pair
        rig = setup_connected_qps(sim, a, b)
        results = {}

        def client():
            buf = yield from a.iface.register_memory(4096)
            buf.write(b"direct data placement!")
            yield from a.iface.post_send(rig["client_qp"],
                                         [buf.sge(0, 22)])
            cqes = yield from a.iface.wait(rig["client_cq"])
            results["send_cqe"] = cqes[0]

        def server():
            cqes = yield from b.iface.wait(rig["server_cq"])
            results["recv_cqe"] = cqes[0]
            results["data"] = rig["server_bufs"][0].read(22)

        with obs.capture(sim) as rec:
            run_procs(sim, client(), server())
        assert results["data"] == b"direct data placement!"
        assert results["recv_cqe"].byte_len == 22
        assert results["recv_cqe"].ok
        # Send completes only when the data is ACKed (paper §3).
        assert results["send_cqe"].ok
        # The WR is visible at every layer it crossed, in causal order:
        # posted on the host, fetched by firmware, serialized, switched,
        # received, delivered by the remote firmware, completed.
        q = TraceQuery(rec)
        q.assert_span_order("wr.send", "fw.fetch_wr", "nic.tx",
                            "switch.fwd", "nic.rx", "fw.deliver", "cqe")
        q.assert_no_event("fw", "qp.error")
        q.assert_latency_between("wr.send", "cqe", max_us=10_000)

    def test_many_messages_in_order(self, sim, pair):
        a, b, _fabric = pair
        rig = setup_connected_qps(sim, a, b, recv_bufs=64, buf_size=4096)
        got = []

        def client():
            buf = yield from a.iface.register_memory(4096)
            for i in range(32):
                buf.write(i.to_bytes(4, "big"))
                yield from a.iface.post_send(rig["client_qp"], [buf.sge(0, 4)])
                # Wait for the send completion so the buffer can be reused.
                yield from a.iface.wait(rig["client_cq"])

        def server():
            seen = 0
            while seen < 32:
                cqes = yield from b.iface.wait(rig["server_cq"])
                for cqe in cqes:
                    got.append(rig["server_bufs"][seen].read(4))
                    seen += 1

        run_procs(sim, client(), server())
        assert got == [i.to_bytes(4, "big") for i in range(32)]

    def test_completion_counts(self, sim, pair):
        a, b, _fabric = pair
        rig = setup_connected_qps(sim, a, b, recv_bufs=16, buf_size=2048)

        def client():
            buf = yield from a.iface.register_memory(2048)
            for _ in range(10):
                yield from a.iface.post_send(rig["client_qp"], [buf.sge(0, 100)])
            done = 0
            while done < 10:
                cqes = yield from a.iface.wait(rig["client_cq"])
                done += len(cqes)

        with obs.capture(sim) as rec:
            run_procs(sim, client())
            sim.run(until=sim.now + 1_000_000)
        qp = rig["client_qp"]
        assert qp.sends_posted == 10
        assert qp.sends_completed == 10
        assert rig["server_qp"].recvs_completed == 10
        # The trace agrees with the QP counters, per opcode and status.
        q = TraceQuery(rec)
        assert q.count("verbs", "wr.send", ph="b") == 10
        assert q.count("verbs", "cqe", opcode="SEND", status="SUCCESS") == 10
        assert q.count("verbs", "cqe", opcode="RECV", status="SUCCESS") == 10
        assert rec.metrics.counter("cq.cqe").value == 20

    def test_unregistered_memory_rejected(self, sim, pair):
        a, b, _fabric = pair
        rig = setup_connected_qps(sim, a, b)

        def client():
            from repro.mem import SGE
            bogus = SGE(0xDEAD000, 64, 0x9999)
            yield from a.iface.post_send(rig["client_qp"], [bogus])
            # The firmware detects the protection violation at Get Data.
            cqes = yield from a.iface.wait(rig["client_cq"])
            return cqes[0]

        (cqe,) = run_procs(sim, client())
        assert cqe.status is WRStatus.LOCAL_PROTECTION_ERROR
        assert rig["client_qp"].state is QPState.ERROR

    def test_zero_length_send_fails_on_tcp_not_udp(self, sim, pair):
        a, b, _fabric = pair
        rig = setup_connected_qps(sim, a, b, recv_bufs=2)

        def client():
            buf = yield from a.iface.register_memory(64)
            yield from a.iface.post_send(rig["client_qp"], [buf.sge(0, 0)])
            cqes = []
            while len(cqes) < 3:
                cqes += yield from a.iface.wait(rig["client_cq"])
            return cqes

        (cqes,) = run_procs(sim, client())
        # The SEND fails with a length error; the QP enters ERROR and
        # flushes the two posted receives.
        assert [(c.opcode.value, c.status) for c in cqes] == [
            ("SEND", WRStatus.LOCAL_LENGTH_ERROR),
            ("RECV", WRStatus.FLUSHED), ("RECV", WRStatus.FLUSHED)]
        assert rig["client_qp"].state is QPState.ERROR
        # A datagram has no sequence space to take: UDP still carries it.
        rtts = qpip_udp_rtt(sim, a, b, iterations=2, msg_size=0).rtts
        assert len(rtts) == 2

    def test_oversized_message_for_recv_wr_errors(self, sim, pair):
        a, b, _fabric = pair
        # Server posts tiny receive buffers; client sends a big message.
        rig = setup_connected_qps(sim, a, b, recv_bufs=4, buf_size=512)

        def client():
            buf = yield from a.iface.register_memory(4096)
            yield from a.iface.post_send(rig["client_qp"], [buf.sge(0, 2048)])
            yield sim.timeout(2_000_000)

        run_procs(sim, client())
        # TCP's credit window (4x512) admitted the bytes, but the message
        # overflows every posted WR: local length error at the receiver.
        assert rig["server_qp"].state is QPState.ERROR

    def test_post_to_errored_qp_raises(self, sim, pair):
        a, b, _fabric = pair
        rig = setup_connected_qps(sim, a, b)

        def client():
            qp = rig["client_qp"]
            qp.error = QPStateError("injected")
            buf = yield from a.iface.register_memory(1024)
            with pytest.raises(QPStateError):
                yield from a.iface.post_send(qp, [buf.sge()])

        run_procs(sim, client())


class TestFlowControlCredit:
    def test_receive_window_tracks_posted_wrs(self, sim, pair):
        a, b, _fabric = pair
        rig = setup_connected_qps(sim, a, b, recv_bufs=2, buf_size=16 * 1024)
        server_ep = b.firmware.endpoints[rig["server_qp"].qp_num]
        # Paper §5.1: window == posted receive buffer space.
        assert server_ep.conn._recv_credit == 2 * 16 * 1024

    def test_sender_stalls_without_recv_credit(self, sim, pair):
        a, b, _fabric = pair
        rig = setup_connected_qps(sim, a, b, recv_bufs=1, buf_size=8192)
        state = {}

        def client():
            buf = yield from a.iface.register_memory(16 * 1024)
            # Two messages: the second exceeds the single posted WR.
            yield from a.iface.post_send(rig["client_qp"], [buf.sge(0, 8000)])
            yield from a.iface.post_send(rig["client_qp"], [buf.sge(0, 8000)])
            cqes = yield from a.iface.wait(rig["client_cq"])
            state["first_done"] = sim.now
            # Second send is stalled on zero window.
            yield sim.timeout(200_000)
            state["completions_so_far"] = (rig["client_qp"].sends_completed)
            # Server posts another buffer: credit opens, message flows.
            buf2_holder = {}

            def server_post():
                buf2 = yield from b.iface.register_memory(8192)
                yield from b.iface.post_recv(rig["server_qp"], [buf2.sge()])
                buf2_holder["buf"] = buf2

            yield sim.process(server_post())
            cqes = yield from a.iface.wait(rig["client_cq"])
            state["second_done"] = sim.now

        run_procs(sim, client())
        assert state["completions_so_far"] == 1
        assert state["second_done"] > state["first_done"] + 200_000


class TestUdpQp:
    def test_udp_datagram_between_qps(self, sim, pair):
        a, b, _fabric = pair
        results = {}

        def server():
            cq = yield from b.iface.create_cq()
            qp = yield from b.iface.create_qp(QPTransport.UDP, cq)
            buf = yield from b.iface.register_memory(2048)
            yield from b.iface.post_recv(qp, [buf.sge()])
            yield from b.iface.bind_udp(qp, 7777)
            cqes = yield from b.iface.wait(cq)
            results["cqe"] = cqes[0]
            results["data"] = buf.read(9)

        def client():
            cq = yield from a.iface.create_cq()
            qp = yield from a.iface.create_qp(QPTransport.UDP, cq)
            yield from a.iface.bind_udp(qp)
            buf = yield from a.iface.register_memory(2048)
            buf.write(b"best effo")
            yield sim.timeout(1000)
            yield from a.iface.post_send(qp, [buf.sge(0, 9)],
                                         dest=Endpoint(b.addr, 7777))
            cqes = yield from a.iface.wait(cq)
            results["send_ok"] = cqes[0].ok

        run_procs(sim, client(), server())
        assert results["data"] == b"best effo"
        assert results["cqe"].src is not None    # source filled in (paper §3)
        assert results["send_ok"]

    def test_udp_without_recv_wr_drops(self, sim, pair):
        a, b, _fabric = pair

        def server():
            cq = yield from b.iface.create_cq()
            qp = yield from b.iface.create_qp(QPTransport.UDP, cq)
            yield from b.iface.bind_udp(qp, 7777)   # no receive WR posted

        def client():
            cq = yield from a.iface.create_cq()
            qp = yield from a.iface.create_qp(QPTransport.UDP, cq)
            yield from a.iface.bind_udp(qp)
            buf = yield from a.iface.register_memory(1024)
            yield sim.timeout(1000)
            yield from a.iface.post_send(qp, [buf.sge(0, 100)],
                                         dest=Endpoint(b.addr, 7777))
            yield sim.timeout(100_000)

        run_procs(sim, client(), server())
        assert b.firmware.udp_drops_no_wr == 1


class TestDisconnect:
    def test_orderly_disconnect_flushes_recvs(self, sim, pair):
        a, b, _fabric = pair
        rig = setup_connected_qps(sim, a, b, recv_bufs=4)

        def client():
            yield from a.iface.disconnect(rig["client_qp"])
            yield sim.timeout(2_000_000)

        run_procs(sim, client())
        # Server saw the FIN: its posted receives flush as EOF markers.
        assert rig["server_qp"].remote_closed
        assert len(rig["server_cq"]) == 4
        cqe = rig["server_cq"].pop()
        assert cqe.status is WRStatus.FLUSHED

    def test_destroy_qp_aborts_connection(self, sim, pair):
        a, b, _fabric = pair
        rig = setup_connected_qps(sim, a, b)

        def client():
            yield from a.iface.destroy_qp(rig["client_qp"])
            yield sim.timeout(2_000_000)

        run_procs(sim, client())
        assert rig["client_qp"].state is QPState.DISCONNECTED
        # The peer got an RST: its QP enters ERROR.
        assert rig["server_qp"].state is QPState.ERROR


class TestHardwareVariants:
    def test_fw_checksum_variant_runs(self, sim):
        a, b, _fabric = build_qpip_pair(sim, nic_timing=lanai_fw_checksum())
        rig = setup_connected_qps(sim, a, b)

        def client():
            buf = yield from a.iface.register_memory(4096)
            yield from a.iface.post_send(rig["client_qp"], [buf.sge(0, 1000)])
            yield from a.iface.wait(rig["client_cq"])

        run_procs(sim, client())
        assert b.nic.cycles.samples.get("rx_checksum", 0) >= 1

    def test_ib_class_is_faster(self, sim):
        def measure(nic_timing):
            s = Simulator()
            a, b, _fabric = build_qpip_pair(s, nic_timing=nic_timing)
            rig = setup_connected_qps(s, a, b)
            times = {}

            def client():
                buf = yield from a.iface.register_memory(4096)
                times["t0"] = s.now
                # Two messages: the receiver ACKs the second immediately,
                # so this times the data path, not the delayed-ACK timer.
                yield from a.iface.post_send(rig["client_qp"], [buf.sge(0, 1)])
                yield from a.iface.post_send(rig["client_qp"], [buf.sge(0, 1)])
                done = 0
                while done < 2:
                    done += len((yield from a.iface.spin(rig["client_cq"])))
                times["t1"] = s.now

            procs = [s.process(client())]
            s.run(until=s.now + 10_000_000)
            assert procs[0].ok
            return times["t1"] - times["t0"]

        baseline = measure(None)
        accelerated = measure(ib_class_timing())
        assert accelerated < baseline / 3     # §5.2's claim, qualitatively

    def test_cycle_counter_matches_table2_stages(self, sim, pair):
        a, b, _fabric = pair
        rig = setup_connected_qps(sim, a, b)

        def client():
            buf = yield from a.iface.register_memory(4096)
            yield from a.iface.post_send(rig["client_qp"], [buf.sge(0, 1)])
            yield from a.iface.wait(rig["client_cq"])

        run_procs(sim, client())
        cc = a.nic.cycles
        t = a.nic.timing
        assert cc.mean("get_wr") == pytest.approx(t.get_wr)
        assert cc.mean("build_tcp_hdr") == pytest.approx(t.build_tcp_hdr)
        assert cc.mean("schedule") == pytest.approx(t.schedule)


class TestInterop:
    def test_reassembler_rebuilds_messages(self):
        r = MessageReassembler()
        stream = frame_message(b"hello") + frame_message(b"world!")
        # Arbitrary fragmentation, as segments off a socket would be.
        out = []
        for i in range(0, len(stream), 3):
            out.extend(r.push(stream[i:i + 3]))
        assert out == [b"hello", b"world!"]
        assert r.pending_bytes == 0

    def test_reassembler_rejects_absurd_length(self):
        import struct
        r = MessageReassembler()
        with pytest.raises(Exception):
            r.push(struct.pack("!I", 1 << 30) + b"xx")
