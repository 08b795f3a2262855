"""Golden baselines for the wire-tap output formats.

These tests pin the *exact* output formats of ``tools.wiretap`` as they
existed before the ``repro.obs`` subsystem grew out of it: the
tcpdump-style lines and the classic libpcap framing.  If a refactor
changes a pinned string or a header byte, the test says so.
"""

import struct

import pytest

from repro.net.addresses import IPv6Address
from repro.net.headers.ip import IPv6Header
from repro.net.headers.transport import ACK, PSH, SYN, TCPHeader, UDPHeader
from repro.net.packet import Packet, ZeroPayload
from repro.sim import Simulator
from repro.tools import Wiretap, format_packet


@pytest.fixture
def sim():
    return Simulator()


class TestFormatPacketGolden:
    """Exact tcpdump-style lines, character for character."""

    def _ip6(self, s=1, d=2, proto=6):
        return IPv6Header(IPv6Address.from_index(s),
                          IPv6Address.from_index(d), proto)

    def test_syn_with_options(self):
        pkt = Packet([self._ip6(),
                      TCPHeader(1000, 2000, seq=5, ack=9, flags=SYN,
                                window=100, mss=1460)],
                     ZeroPayload(0))
        assert format_packet(pkt, now=12.5) == (
            "      12.5  fd00::1.1000 > fd00::2.2000: Flags [S], "
            "seq 5, ack 9, win 100 <mss 1460>, length 0")

    def test_data_segment_seq_range(self):
        pkt = Packet([self._ip6(),
                      TCPHeader(32768, 9000, seq=100, ack=7,
                                flags=PSH | ACK, window=2048)],
                     ZeroPayload(50))
        assert format_packet(pkt, now=1083.4) == (
            "    1083.4  fd00::1.32768 > fd00::2.9000: Flags [P.], "
            "seq 100:150, ack 7, win 2048, length 50")

    def test_udp(self):
        pkt = Packet([self._ip6(3, 4, proto=17), UDPHeader(7, 8, length=28)],
                     ZeroPayload(20))
        assert format_packet(pkt, now=0.0) == (
            "       0.0  fd00::3.7 > fd00::4.8: UDP, length 20")

    def test_non_ip(self):
        assert format_packet(Packet(payload=ZeroPayload(10)), now=3.0) == (
            "       3.0  <non-IP frame, 10B>")

    def test_ce_suffix(self):
        ip = self._ip6()
        ip.ecn = 0b11
        pkt = Packet([ip, TCPHeader(1, 2, window=64)], ZeroPayload(0))
        line = format_packet(pkt, now=1.0)
        assert line.endswith("length 0 [CE]")


class TestLegacyPcapGolden:
    """Classic libpcap output: exact global header, exact record framing."""

    def _capture_one(self, sim):
        tap = Wiretap(sim)
        ip = IPv6Header(IPv6Address.from_index(1),
                        IPv6Address.from_index(2), 6)
        pkt = Packet([ip, TCPHeader(1000, 2000, seq=5, window=100)],
                     ZeroPayload(8))
        tap._record("tx", pkt)
        return tap, pkt

    def test_global_header_bytes(self, sim, tmp_path):
        tap, _pkt = self._capture_one(sim)
        path = tmp_path / "one.pcap"
        assert tap.write_pcap(str(path)) == 1
        raw = path.read_bytes()
        # Little-endian classic pcap, version 2.4, snaplen 65535, RAW IP.
        assert raw[:24] == struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                       65535, 101)

    def test_record_header_and_body(self, sim, tmp_path):
        from repro.net.wire import serialize
        tap, pkt = self._capture_one(sim)
        path = tmp_path / "one.pcap"
        tap.write_pcap(str(path))
        raw = path.read_bytes()
        body = serialize(pkt)
        sec, usec, incl, orig = struct.unpack_from("<IIII", raw, 24)
        assert (sec, usec) == (0, 0)            # captured at t=0
        assert incl == orig == len(body)
        assert raw[40:40 + incl] == body
        assert len(raw) == 40 + incl            # nothing after the packet

