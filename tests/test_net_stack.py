"""Unit tests for the IP layer, InetStack glue, and payload composites."""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, RouteError
from repro.net import InetStack, IpModule, RouteEntry
from repro.net.addresses import Endpoint, IPv4Address, IPv6Address, MacAddress
from repro.net.checksum import ones_complement_sum
from repro.net.headers.base import DecodeError
from repro.net.headers.ip import IPv4Header, IPv6Header
from repro.net.headers.link import EthernetHeader, MyrinetHeader
from repro.net.headers.transport import SYN, TCPHeader, UDPHeader
from repro.net.packet import (BytesPayload, ChainPayload, Packet, ZeroPayload,
                              concat)
from repro.net.wire import serialize
from repro.sim import Simulator


class FakeIface:
    def __init__(self, mtu=9000, mac=None):
        self.mtu = mtu
        self.mac = mac or MacAddress.from_index(9)
        self.sent = []

    def enqueue_tx(self, pkt):
        self.sent.append(pkt)


@pytest.fixture
def sim():
    return Simulator()


class TestIpModule:
    def _module(self, v6=True):
        ip = IpModule(name="t.ip")
        src = IPv6Address.from_index(1) if v6 else IPv4Address.from_index(1)
        dst = IPv6Address.from_index(2) if v6 else IPv4Address.from_index(2)
        iface = FakeIface()
        ip.add_local(src)
        ip.add_route(dst, RouteEntry(iface=iface, source_route=[3]))
        return ip, src, dst, iface

    def test_build_v6_packet_layers(self):
        ip, src, dst, iface = self._module()
        tcp = TCPHeader(1, 2, flags=SYN)
        pkt = ip.build(src, dst, tcp, ZeroPayload(10))
        assert isinstance(pkt.top(), MyrinetHeader)
        assert pkt.find(IPv6Header).payload_length == tcp.header_len() + 10
        assert pkt.route == [3]
        assert tcp.checksum != 0               # filled during build

    def test_build_v4_sets_identification(self):
        ip, src, dst, iface = self._module(v6=False)
        p1 = ip.build(src, dst, TCPHeader(1, 2), ZeroPayload(0))
        p2 = ip.build(src, dst, TCPHeader(1, 2), ZeroPayload(0))
        assert p1.find(IPv4Header).identification != \
            p2.find(IPv4Header).identification

    def test_mixed_versions_rejected(self):
        ip = IpModule()
        ip.add_route(IPv4Address.from_index(2),
                     RouteEntry(iface=FakeIface(), source_route=[1]))
        with pytest.raises(ConfigError):
            ip.build(IPv6Address.from_index(1), IPv4Address.from_index(2),
                     TCPHeader(1, 2), ZeroPayload(0))

    def test_no_route_raises(self):
        ip = IpModule()
        with pytest.raises(RouteError):
            ip.route_for(IPv6Address.from_index(9))

    def test_mtu_enforced(self):
        ip, src, dst, iface = self._module()
        iface.mtu = 1500
        with pytest.raises(ConfigError):
            ip.build(src, dst, TCPHeader(1, 2), ZeroPayload(4000))

    def test_route_without_framing_rejected(self):
        ip = IpModule()
        dst = IPv6Address.from_index(2)
        ip.add_route(dst, RouteEntry(iface=FakeIface()))  # no MAC, no route
        with pytest.raises(ConfigError):
            ip.build(IPv6Address.from_index(1), dst, TCPHeader(1, 2),
                     ZeroPayload(0))

    def test_parse_rejects_foreign_destination(self):
        ip, src, dst, iface = self._module()
        # Build a packet addressed to someone else and feed it back.
        other = IpModule()
        other.add_route(IPv6Address.from_index(7),
                        RouteEntry(iface=FakeIface(), source_route=[1]))
        pkt = other.build(src, IPv6Address.from_index(7), TCPHeader(1, 2),
                          ZeroPayload(0))
        assert ip.parse(pkt) is None
        assert ip.dropped_not_ours == 1

    def test_parse_roundtrip_v6(self):
        ip, src, dst, iface = self._module()
        back = IpModule()
        back.add_local(dst)
        tcp = TCPHeader(42, 43, seq=7, flags=SYN)
        pkt = ip.build(src, dst, tcp, BytesPayload(b"abc"))
        seg = back.parse(pkt)
        assert seg is not None and seg.checksum_ok
        assert seg.src == Endpoint(src, 42)
        assert seg.dst == Endpoint(dst, 43)
        assert seg.payload.to_bytes() == b"abc"
        assert not seg.ce

    def test_parse_detects_payload_corruption(self):
        ip, src, dst, iface = self._module()
        back = IpModule()
        back.add_local(dst)
        pkt = ip.build(src, dst, TCPHeader(1, 2), BytesPayload(b"data"))
        pkt.payload = BytesPayload(b"dbta")       # bit flip in flight
        seg = back.parse(pkt)
        assert seg is not None and not seg.checksum_ok
        assert back.dropped_bad == 1

    def test_parse_reports_ce(self):
        ip, src, dst, iface = self._module()
        back = IpModule()
        back.add_local(dst)
        pkt = ip.build(src, dst, TCPHeader(1, 2), ZeroPayload(4), ecn=0b10)
        pkt.find(IPv6Header).ecn = 0b11            # switch marked it
        seg = back.parse(pkt)
        assert seg.ce

    def test_udp_parse(self):
        ip, src, dst, iface = self._module()
        back = IpModule()
        back.add_local(dst)
        udp = UDPHeader(5, 6, length=8 + 4)
        pkt = ip.build(src, dst, udp, BytesPayload(b"dgrm"))
        seg = back.parse(pkt)
        assert seg.proto == 17 and seg.checksum_ok

    @pytest.mark.parametrize("v6", [True, False])
    def test_udp_zero_checksum_rejected_only_over_ipv6(self, v6):
        # RFC 768 lets IPv4 send 0 for "no checksum"; RFC 8200 §8.1 has
        # IPv6 receivers discard such datagrams.
        ip, src, dst, iface = self._module(v6=v6)
        back = IpModule()
        back.add_local(dst)
        pkt = ip.build(src, dst, UDPHeader(5, 6, length=8 + 4),
                       BytesPayload(b"dgrm"))
        pkt.headers[-1] = dataclasses.replace(pkt.headers[-1], checksum=0)
        seg = back.parse(pkt)
        assert seg is not None and seg.checksum_ok is (not v6)
        assert back.dropped_bad == (1 if v6 else 0)


class TestRouteFraming:
    """Each route builds its link framing once and shares it."""

    @staticmethod
    def _pair(v6, myrinet):
        ip = IpModule(name="t.ip")
        src = IPv6Address.from_index(1) if v6 else IPv4Address.from_index(1)
        dst = IPv6Address.from_index(2) if v6 else IPv4Address.from_index(2)
        iface = FakeIface()
        entry = (RouteEntry(iface=iface, source_route=[3, 0, 7]) if myrinet
                 else RouteEntry(iface=iface, next_mac=MacAddress.from_index(4)))
        ip.add_route(dst, entry)
        return ip, src, dst, iface

    @pytest.mark.parametrize("myrinet", [True, False])
    @pytest.mark.parametrize("v6", [True, False])
    def test_packets_serialize_to_reference_bytes(self, v6, myrinet):
        from reference_paths import encode_ref
        ip, src, dst, _ = self._pair(v6, myrinet)
        pkts = [ip.build(src, dst, TCPHeader(1, 2, seq=n, flags=SYN | 0x10,
                                             ts_val=n, ts_ecr=1),
                         BytesPayload(bytes(range(n))), ecn=0b10 * (n % 2))
                for n in (0, 5, 9)]
        pkts.append(ip.build(src, dst, UDPHeader(5, 6, length=8 + 3),
                             BytesPayload(b"xyz")))
        link = pkts[0].headers[0]
        assert isinstance(link, MyrinetHeader if myrinet else EthernetHeader)
        for pkt in pkts:
            assert pkt.headers[0] is link      # one framing per route
            raw = serialize(pkt)
            assert raw == b"".join(encode_ref(h) for h in pkt.headers) \
                + pkt.payload.to_bytes()
            assert pkt.wire_size == len(raw) == sum(
                h.header_len() for h in pkt.headers) + pkt.payload.length
            assert pkt.route == ([3, 0, 7] if myrinet else None)
        assert pkts[1].find(IPv6Header if v6 else IPv4Header).ecn == 0b10

    @pytest.mark.parametrize("route", [[0] * 33, [1, 256]])
    def test_bad_source_route_raises_on_first_build(self, route):
        ip = IpModule()
        dst = IPv6Address.from_index(2)
        ip.add_route(dst, RouteEntry(iface=FakeIface(), source_route=route))
        with pytest.raises(DecodeError):
            ip.build(IPv6Address.from_index(1), dst, TCPHeader(1, 2),
                     ZeroPayload(0))

    def test_readded_route_uses_its_new_framing(self):
        ip, src, dst, iface = self._pair(True, True)
        first = ip.build(src, dst, TCPHeader(1, 2), ZeroPayload(0))
        ip.add_route(dst, RouteEntry(iface=iface, source_route=[5, 1]))
        second = ip.build(src, dst, TCPHeader(1, 2), ZeroPayload(0))
        assert first.route == [3, 0, 7] and first.headers[0].route == [3, 0, 7]
        assert second.route == [5, 1] and second.headers[0].route == [5, 1]

    def test_mtu_read_per_packet_with_the_same_message(self):
        ip, src, dst, iface = self._pair(True, True)
        ip.build(src, dst, TCPHeader(1, 2), ZeroPayload(4000))  # fits 9000
        iface.mtu = 1500
        # 6 link + 40 IPv6 + 20 TCP + 4000 payload bytes.
        with pytest.raises(ConfigError, match=re.escape(
                "t.ip: 4066B packet exceeds MTU 1500 (end-to-end "
                "fragmentation is out of scope, as in the paper)")):
            ip.build(src, dst, TCPHeader(1, 2), ZeroPayload(4000))
        ip.build(src, dst, TCPHeader(1, 2), ZeroPayload(1500 - 60))


class TestInetStack:
    def test_rst_reply_for_unknown_port(self, sim):
        a = InetStack(sim, name="a")
        b = InetStack(sim, name="b")
        ia, ib = FakeIface(), FakeIface()
        addr_a, addr_b = IPv6Address.from_index(1), IPv6Address.from_index(2)
        a.ip.add_local(addr_a)
        b.ip.add_local(addr_b)
        a.ip.add_route(addr_b, RouteEntry(iface=ia, source_route=[1]))
        b.ip.add_route(addr_a, RouteEntry(iface=ib, source_route=[2]))
        syn = TCPHeader(1000, 4242, seq=5, flags=SYN)
        pkt = a.ip.build(addr_a, addr_b, syn, ZeroPayload(0))
        b.packet_in(pkt)
        assert b.tcp.rst_sent == 1
        assert len(ib.sent) == 1
        rst = ib.sent[0].find(TCPHeader)
        assert rst.flags & 0x04                      # RST
        assert rst.ack == 6                        # SYN occupies one seq

    def test_on_segment_hook_observes_traffic(self, sim):
        a = InetStack(sim, name="a")
        b = InetStack(sim, name="b")
        ia = FakeIface()
        addr_a, addr_b = IPv6Address.from_index(1), IPv6Address.from_index(2)
        a.ip.add_local(addr_a)
        b.ip.add_local(addr_b)
        a.ip.add_route(addr_b, RouteEntry(iface=ia, source_route=[1]))
        seen = []
        b.on_segment = seen.append
        pkt = a.ip.build(addr_a, addr_b, UDPHeader(7, 8, length=8),
                         ZeroPayload(0))
        b.packet_in(pkt)
        assert len(seen) == 1
        assert seen[0].proto == 17


class TestChainPayload:
    def test_concat_keeps_header_plus_bulk_lazy(self):
        combo = concat([BytesPayload(b"H" * 32), ZeroPayload(100_000)])
        assert isinstance(combo, ChainPayload)
        assert combo.length == 100_032

    def test_small_concat_materializes(self):
        combo = concat([BytesPayload(b"ab"), ZeroPayload(10)])
        assert isinstance(combo, BytesPayload)

    def test_to_bytes_matches_parts(self):
        combo = concat([BytesPayload(b"x" * 32), ZeroPayload(5000)])
        assert combo.to_bytes() == b"x" * 32 + bytes(5000)

    def test_csum_matches_materialized(self):
        combo = concat([BytesPayload(bytes(range(64))), ZeroPayload(5000)])
        assert combo.csum() == ones_complement_sum(combo.to_bytes())

    def test_csum_with_odd_interior_part(self):
        parts = [BytesPayload(b"abc"), BytesPayload(b"defgh"),
                 ZeroPayload(5000)]
        combo = ChainPayload(parts)
        assert combo.csum() == ones_complement_sum(combo.to_bytes())

    @settings(max_examples=60, deadline=None)
    @given(prefix=st.binary(min_size=0, max_size=64),
           zeros=st.integers(0, 9000),
           offset=st.integers(0, 100), length=st.integers(0, 9000))
    def test_slice_property(self, prefix, zeros, offset, length):
        parts = [BytesPayload(prefix), ZeroPayload(zeros)]
        combo = ChainPayload(parts)
        reference = prefix + bytes(zeros)
        if offset + length > len(reference):
            with pytest.raises(ValueError):
                combo.slice(offset, length)
        else:
            assert combo.slice(offset, length).to_bytes() == \
                reference[offset:offset + length]

    def test_equality_with_bytes_payload(self):
        combo = ChainPayload([BytesPayload(b"a" * 10), ZeroPayload(5000)])
        assert combo == BytesPayload(b"a" * 10 + bytes(5000))
