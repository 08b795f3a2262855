"""Tests for the diagnostics tooling (wiretap, inspectors)."""

import pytest

from repro.bench.configs import build_gige_pair, build_qpip_pair
from repro.core import QPTransport
from repro.hoststack import TcpSocket
from repro.net.addresses import Endpoint, IPv6Address
from repro.net.headers.ip import IPv6Header
from repro.net.headers.transport import SYN, TCPHeader, UDPHeader
from repro.net.packet import Packet, ZeroPayload
from repro.sim import Simulator
from repro.tools import (Wiretap, connection_report, fabric_report,
                         format_packet, nic_report)


@pytest.fixture
def sim():
    return Simulator()


class TestFormatPacket:
    def _ip6(self):
        return IPv6Header(IPv6Address.from_index(1), IPv6Address.from_index(2), 6)

    def test_tcp_line(self):
        pkt = Packet([self._ip6(),
                      TCPHeader(1000, 2000, seq=5, ack=9, flags=SYN,
                                window=100, mss=1460)],
                     ZeroPayload(0))
        line = format_packet(pkt, now=12.5)
        assert "fd00::1.1000 > fd00::2.2000" in line
        assert "Flags [S]" in line
        assert "mss 1460" in line
        assert "length 0" in line

    def test_tcp_data_seq_range(self):
        pkt = Packet([self._ip6(), TCPHeader(1, 2, seq=100)], ZeroPayload(50))
        assert "seq 100:150" in format_packet(pkt)

    def test_udp_line(self):
        pkt = Packet([self._ip6(), UDPHeader(7, 8, length=28)], ZeroPayload(20))
        assert "UDP, length 20" in format_packet(pkt)

    def test_ce_mark_shown(self):
        ip = self._ip6()
        ip.ecn = 0b11
        pkt = Packet([ip, TCPHeader(1, 2)], ZeroPayload(0))
        assert "[CE]" in format_packet(pkt)

    def test_non_ip_frame(self):
        assert "non-IP" in format_packet(Packet(payload=ZeroPayload(10)))


class TestWiretapOnQpip:
    def test_captures_handshake_and_data(self, sim):
        a, b, _f = build_qpip_pair(sim)
        tap = Wiretap(sim)
        tap.attach_qpip_nic(a.nic)

        def server():
            iface = b.iface
            cq = yield from iface.create_cq()
            qp = yield from iface.create_qp(QPTransport.TCP, cq)
            buf = yield from iface.register_memory(4096)
            yield from iface.post_recv(qp, [buf.sge()])
            listener = yield from iface.listen(9000)
            yield from iface.accept(listener, qp)
            yield from iface.wait(cq)

        def client():
            iface = a.iface
            cq = yield from iface.create_cq()
            qp = yield from iface.create_qp(QPTransport.TCP, cq)
            buf = yield from iface.register_memory(4096)
            yield sim.timeout(500)
            yield from iface.connect(qp, Endpoint(b.addr, 9000))
            yield from iface.post_send(qp, [buf.sge(0, 100)])
            yield from iface.wait(cq)

        sp, cp = sim.process(server()), sim.process(client())
        sim.run(until=10_000_000)
        assert cp.triggered and cp.ok

        # SYN out, SYN|ACK in, plus the data segment.
        assert sum(1 for r in tap.records
                   if r.packet.find(TCPHeader).flags & SYN) >= 2
        tx_lines = [r.line for r in tap.records if r.direction == "tx"]
        assert any("Flags [S]" in l for l in tx_lines)
        assert any("length 100" in l for l in tx_lines)
        assert tap.retransmissions() == 0
        assert len(tap.dump(limit=5).splitlines()) <= 6

    def test_filter_and_capacity(self, sim):
        a, b, _f = build_qpip_pair(sim)
        tap = Wiretap(sim, capacity=2)
        tap.filter = lambda pkt: pkt.payload.length > 0   # data only
        tap.attach_qpip_nic(a.nic)

        def server():
            iface = b.iface
            cq = yield from iface.create_cq()
            qp = yield from iface.create_qp(QPTransport.TCP, cq, max_recv_wr=32)
            bufs = []
            for _ in range(8):
                buf = yield from iface.register_memory(4096)
                yield from iface.post_recv(qp, [buf.sge()])
                bufs.append(buf)
            listener = yield from iface.listen(9000)
            yield from iface.accept(listener, qp)
            got = 0
            while got < 4:
                got += len((yield from iface.wait(cq)))

        def client():
            iface = a.iface
            cq = yield from iface.create_cq()
            qp = yield from iface.create_qp(QPTransport.TCP, cq)
            buf = yield from iface.register_memory(4096)
            yield sim.timeout(500)
            yield from iface.connect(qp, Endpoint(b.addr, 9000))
            for _ in range(4):
                yield from iface.post_send(qp, [buf.sge(0, 10)])
            done = 0
            while done < 4:
                done += len((yield from iface.wait(cq)))

        sp, cp = sim.process(server()), sim.process(client())
        sim.run(until=10_000_000)
        assert cp.triggered and cp.ok
        assert len(tap) == 2                  # capacity bound
        assert tap.dropped_records >= 2       # the rest were counted
        assert all(r.packet.payload.length > 0 for r in tap.records)


class TestWiretapOnSockets:
    def test_captures_gige_traffic(self, sim):
        a, b, fabric = build_gige_pair(sim)
        tap = Wiretap(sim)
        tap.attach_dumb_nic(a.nic)

        def server():
            lsock = TcpSocket(b.kernel, b.addr)
            lsock.listen(5000)
            conn = yield from lsock.accept()
            yield from conn.recv_exact(1000)

        def client():
            sock = TcpSocket(a.kernel, a.addr)
            yield from sock.connect(Endpoint(b.addr, 5000))
            yield from sock.send(ZeroPayload(1000))

        sp, cp = sim.process(server()), sim.process(client())
        sim.run(until=10_000_000)
        assert cp.triggered and cp.ok
        directions = [r.direction for r in tap.records]
        assert directions.count("tx") >= 2
        assert directions.count("rx") >= 1    # SYN|ACK and ACKs came back


class TestInspectors:
    def test_connection_report_fields(self, sim):
        from helpers_tcp import establish, make_pair
        cctx, sctx = make_pair(sim)
        establish(sim, cctx, sctx)
        cctx.conn.send_stream(ZeroPayload(5000))
        sim.run(until=sim.now + 1_000_000)
        report = connection_report(cctx.conn)
        assert "ESTABLISHED" in report
        assert "cwnd=" in report
        assert "srtt=" in report
        assert "retx=0" in report

    def test_nic_report(self, sim):
        a, b, _f = build_qpip_pair(sim)
        from repro.apps.pingpong import qpip_tcp_rtt
        qpip_tcp_rtt(sim, a, b, iterations=5)
        report = nic_report(a.nic)
        assert "occupancy" in report
        assert "build_tcp_hdr" in report

    def test_cq_counts_elided_polls(self, sim):
        from repro.core import CompletionQueue
        from repro.core.wr import Completion, WROpcode
        a, _b, _f = build_qpip_pair(sim)
        cq = CompletionQueue(sim, 7)
        sim.process(a.iface.spin(cq))
        sim.call_later(110.3, cq.push, Completion(1, 1, WROpcode.RECV))
        sim.run(until=60.3)                  # parked, nothing pushed yet
        assert (cq.polls, cq.empty_polls) == (55, 55)
        sim.run(until=200.0)
        assert (cq.total_completions, cq.error_completions,
                cq.overruns) == (1, 0, 0)
        assert (cq.polls, cq.empty_polls) == (101, 100)

    def test_fabric_reports(self, sim):
        a, b, fabric = build_qpip_pair(sim)
        from repro.apps.pingpong import qpip_tcp_rtt
        qpip_tcp_rtt(sim, a, b, iterations=5)
        report = fabric_report(fabric)
        assert "switch" in report
        assert "util" in report

        sim2 = Simulator()
        a2, b2, eth_fabric = build_gige_pair(sim2)
        from repro.apps.pingpong import socket_tcp_rtt
        socket_tcp_rtt(sim2, a2, b2, iterations=5)
        report = fabric_report(eth_fabric)
        assert "forwarded" in report

    @pytest.mark.parametrize("value", [
        None, 0, -7, 1.5, "", "qpip", b"\x00\xff", [1, 2.25, "x"],
        {"b": (1, b"ab"), "a": {"n": None}}, list(range(1000))])
    def test_stable_digest_matches_hashlib(self, value):
        import hashlib
        from repro.tools.inspect import canonical_json, stable_digest
        want = hashlib.sha256(canonical_json(value).encode()).hexdigest()
        assert stable_digest(value) == want[:16]


class TestPcapExport:
    def test_pcap_file_structure(self, sim, tmp_path):
        import struct
        from repro.apps.pingpong import qpip_tcp_rtt
        a, b, _f = build_qpip_pair(sim)
        tap = Wiretap(sim)
        tap.attach_qpip_nic(a.nic)
        qpip_tcp_rtt(sim, a, b, iterations=3)
        path = tmp_path / "capture.pcap"
        n = tap.write_pcap(str(path))
        raw = path.read_bytes()
        magic, _maj, _min, _tz, _sig, snap, linktype = struct.unpack_from(
            "<IHHiIII", raw, 0)
        assert magic == 0xA1B2C3D4
        assert linktype == 101            # RAW IP (Myrinet header stripped)
        assert n == len(tap)
        # Walk the per-packet records and verify framing consistency.
        offset = 24
        walked = 0
        while offset < len(raw):
            _sec, _usec, incl, orig = struct.unpack_from("<IIII", raw, offset)
            assert incl == orig
            offset += 16 + incl
            walked += 1
        assert walked == n

    def test_pcap_ethernet_linktype(self, sim, tmp_path):
        import struct
        from repro.apps.pingpong import socket_tcp_rtt
        a, b, _f = build_gige_pair(sim)
        tap = Wiretap(sim)
        tap.attach_dumb_nic(a.nic)
        socket_tcp_rtt(sim, a, b, iterations=2)
        path = tmp_path / "eth.pcap"
        tap.write_pcap(str(path))
        raw = path.read_bytes()
        linktype = struct.unpack_from("<I", raw, 20)[0]
        assert linktype == 1              # LINKTYPE_ETHERNET
