"""Tests for addresses, checksums, payloads, and header codecs."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.net.addresses import (Endpoint, FourTuple, IPv4Address,
                                 IPv6Address, MacAddress)
from repro.net.checksum import (checksum, combine, finish,
                                ones_complement_sum, pseudo_header_v4,
                                pseudo_header_v6)
from repro.net.headers import (ACK, DecodeError, EthernetHeader, IPv4Header,
                               IPv6Header, MyrinetHeader, PROTO_TCP, SYN,
                               TCPHeader, UDPHeader, tcp_fill_checksum,
                               tcp_verify_checksum, udp_fill_checksum,
                               udp_verify_checksum)
from repro.net.packet import (BytesPayload, Packet, ZeroPayload, concat)


class TestChecksum:
    def test_rfc1071_example(self):
        # Classic example from RFC 1071 §3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert ones_complement_sum(data) == 0xDDF2
        assert checksum(data) == 0x220D

    def test_odd_length(self):
        assert checksum(b"\x01") == finish(0x0100)

    def test_empty(self):
        assert checksum(b"") == 0xFFFF

    def test_verify_by_including_checksum_field(self):
        data = bytearray(b"\x45\x00\x00\x1c" * 3)
        csum = checksum(bytes(data))
        data += csum.to_bytes(2, "big")
        assert checksum(bytes(data)) == 0

    @settings(max_examples=100, deadline=None)
    @given(a=st.binary(max_size=64), b=st.binary(max_size=64))
    def test_combine_matches_concatenation_even_boundary(self, a, b):
        if len(a) % 2:
            a += b"\x00"
        whole = ones_complement_sum(a + b)
        parts = combine(ones_complement_sum(a), ones_complement_sum(b))
        assert whole == parts

    def test_pseudo_header_widths_checked(self):
        with pytest.raises(ValueError):
            pseudo_header_v6(b"\x00" * 4, b"\x00" * 16, 0, 6)
        with pytest.raises(ValueError):
            pseudo_header_v4(b"\x00" * 16, b"\x00" * 4, 0, 6)


class TestAddresses:
    def test_mac_from_index(self):
        m = MacAddress.from_index(5)
        assert m.packed[0] == 0x02
        assert m == MacAddress.from_index(5)
        assert m != MacAddress.from_index(6)

    def test_broadcast(self):
        assert MacAddress.BROADCAST.is_broadcast
        assert not MacAddress.from_index(1).is_broadcast

    def test_ipv6_parse_repr_roundtrip(self):
        a = IPv6Address.parse("fd00::1")
        assert IPv6Address.parse(repr(a)) == a
        assert len(a.packed) == 16

    def test_ipv4_from_index(self):
        a = IPv4Address.from_index(7)
        assert repr(a) == "10.0.0.7"

    def test_ipv6_from_index_sequential(self):
        assert IPv6Address.from_index(1) != IPv6Address.from_index(2)

    def test_wrong_width_rejected(self):
        with pytest.raises(ConfigError):
            IPv6Address(b"\x00" * 4)

    def test_addresses_hashable_and_ordered(self):
        s = {IPv6Address.from_index(i) for i in range(4)}
        assert len(s) == 4
        assert IPv4Address.from_index(1) < IPv4Address.from_index(2)

    def test_endpoint_port_range(self):
        for port in (70000, 0x10000, -1):
            with pytest.raises(ConfigError):
                Endpoint(IPv6Address.from_index(1), port)
        assert Endpoint(IPv6Address.from_index(1), 0xFFFF).port == 0xFFFF

    def test_four_tuple_reverse(self):
        ft = FourTuple(Endpoint(IPv6Address.from_index(1), 10),
                       Endpoint(IPv6Address.from_index(2), 20))
        assert ft.reversed().reversed() == ft
        assert ft.reversed().local.port == 20


class TestIdentityHashes:
    """Identities hash to the values the frozen dataclasses and the
    per-call address hash gave, so every dict and set of them keeps its
    iteration order."""

    def test_address_hash_formula(self):
        for addr in (IPv6Address.from_index(5), IPv4Address.from_index(5),
                     MacAddress.from_index(5)):
            assert hash(addr) == hash((type(addr).__name__, addr.packed))

    def test_endpoint_and_four_tuple_hash_as_their_fields(self):
        a, b = IPv6Address.from_index(1), IPv4Address.from_index(2)
        local, remote = Endpoint(a, 80), Endpoint(b, 9000)
        assert hash(local) == hash((a, 80))
        assert hash(FourTuple(local, remote)) == hash((local, remote))
        assert hash(FourTuple(local, remote)) == hash(((a, 80), (b, 9000)))

    def test_set_order_matches_the_field_tuples(self):
        remote = Endpoint(IPv6Address.from_index(99), 7000)
        keys = [FourTuple(Endpoint(IPv6Address.from_index(i), 1000 + i),
                          remote) for i in range(64)]
        plain = [((k.local.addr, k.local.port), (remote.addr, remote.port))
                 for k in keys]
        assert [((k.local.addr, k.local.port), (k.remote.addr, k.remote.port))
                for k in set(keys)] == list(set(plain))

    def test_pickle_round_trip(self):
        import pickle
        ft = FourTuple(Endpoint(IPv6Address.from_index(1), 10),
                       Endpoint(IPv4Address.from_index(2), 20))
        back = pickle.loads(pickle.dumps(ft))
        assert back == ft and hash(back) == hash(ft)
        assert type(back) is FourTuple and type(back.local) is Endpoint
        assert type(back.remote.addr) is IPv4Address

    def test_unpickled_address_hashes_in_the_receiving_process(self):
        # Trunk messages cross pipes between processes; a stored hash
        # must be recomputed there, not carried from a process whose
        # string hashes are salted differently.
        import os
        import pickle
        import subprocess
        import sys
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import pickle, sys; from repro.net.addresses import "
                "Endpoint, IPv6Address; sys.stdout.buffer.write(pickle.dumps("
                "Endpoint(IPv6Address.from_index(3), 4)))")
        raw = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345"),
        ).stdout
        ep = pickle.loads(raw)
        assert hash(ep.addr) == hash(("IPv6Address", ep.addr.packed))
        assert ep in {Endpoint(IPv6Address.from_index(3), 4)}


class TestPayloads:
    def test_zero_payload(self):
        p = ZeroPayload(10)
        assert p.to_bytes() == bytes(10)
        assert p.csum() == 0
        assert len(p) == 10

    def test_zero_equals_bytes_of_zeros(self):
        assert ZeroPayload(4) == BytesPayload(bytes(4))
        assert BytesPayload(bytes(4)) == ZeroPayload(4)
        assert ZeroPayload(4) != BytesPayload(b"abcd")

    def test_slice_bounds(self):
        with pytest.raises(ValueError):
            ZeroPayload(5).slice(3, 4)
        with pytest.raises(ValueError):
            BytesPayload(b"abc").slice(-1, 2)

    def test_bytes_slice(self):
        p = BytesPayload(b"hello world")
        assert p.slice(6, 5).to_bytes() == b"world"

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=128))
    def test_csum_matches_direct(self, data):
        assert BytesPayload(data).csum() == ones_complement_sum(data)

    def test_concat(self):
        assert concat([]).length == 0
        z = concat([ZeroPayload(3), ZeroPayload(4)])
        assert isinstance(z, ZeroPayload) and z.length == 7
        m = concat([BytesPayload(b"ab"), ZeroPayload(2)])
        assert m.to_bytes() == b"ab\x00\x00"


class TestPacket:
    def test_push_pop_find(self):
        pkt = Packet()
        ip = IPv6Header(IPv6Address.from_index(1), IPv6Address.from_index(2), 6)
        tcp = TCPHeader(1, 2)
        pkt.push(tcp)
        pkt.push(ip)
        assert pkt.top() is ip
        assert pkt.find(TCPHeader) is tcp
        assert pkt.pop() is ip
        assert pkt.find(IPv6Header) is None

    def test_wire_size(self):
        pkt = Packet(payload=ZeroPayload(100))
        pkt.push(TCPHeader(1, 2))
        pkt.push(IPv6Header(IPv6Address.from_index(1), IPv6Address.from_index(2), 6))
        assert pkt.wire_size == 100 + 20 + 40

    def test_copy_shallow_independent_stack(self):
        pkt = Packet([TCPHeader(1, 2)], ZeroPayload(5))
        pkt.route = [1, 2]
        clone = pkt.copy_shallow()
        clone.pop()
        assert len(pkt.headers) == 1
        assert clone.route == [1, 2]
        assert clone.trace_id != pkt.trace_id

    def test_empty_packet_top_raises(self):
        with pytest.raises(IndexError):
            Packet().top()


class TestLinkHeaders:
    def test_ethernet_roundtrip(self):
        h = EthernetHeader(MacAddress.from_index(1), MacAddress.from_index(2), 0x86DD)
        decoded, used = EthernetHeader.decode(h.encode())
        assert used == 14 == h.header_len()
        assert decoded == h

    def test_ethernet_truncated(self):
        with pytest.raises(DecodeError):
            EthernetHeader.decode(b"\x00" * 10)

    def test_myrinet_roundtrip(self):
        h = MyrinetHeader(route=[3, 1, 4], ptype=0x86DD)
        decoded, used = MyrinetHeader.decode(h.encode())
        assert decoded == h
        assert used == h.header_len() == 6

    def test_myrinet_empty_route(self):
        h = MyrinetHeader(route=[])
        decoded, _ = MyrinetHeader.decode(h.encode())
        assert decoded.route == []

    def test_myrinet_route_limits(self):
        with pytest.raises(DecodeError):
            MyrinetHeader(route=[0] * 33)
        with pytest.raises(DecodeError):
            MyrinetHeader(route=[256])

    @settings(max_examples=50, deadline=None)
    @given(route=st.lists(st.integers(0, 255), max_size=32),
           ptype=st.integers(0, 0xFFFF))
    def test_myrinet_roundtrip_property(self, route, ptype):
        h = MyrinetHeader(route=route, ptype=ptype)
        decoded, used = MyrinetHeader.decode(h.encode() + b"extra")
        assert decoded == h and used == h.header_len()


class TestIPHeaders:
    def _v6(self):
        return IPv6Header(IPv6Address.from_index(1), IPv6Address.from_index(2),
                          next_header=PROTO_TCP, payload_length=123,
                          hop_limit=17, traffic_class=3, flow_label=0xABCDE)

    def test_ipv6_roundtrip(self):
        h = self._v6()
        decoded, used = IPv6Header.decode(h.encode())
        assert used == 40
        assert decoded == h

    def test_ipv6_bad_version(self):
        raw = bytearray(self._v6().encode())
        raw[0] = 0x45
        with pytest.raises(DecodeError):
            IPv6Header.decode(bytes(raw))

    def test_ipv4_roundtrip_and_checksum(self):
        h = IPv4Header(IPv4Address.from_index(1), IPv4Address.from_index(2),
                       protocol=PROTO_TCP, total_length=40, identification=7,
                       ttl=63)
        raw = h.encode()
        assert checksum(raw) == 0  # header checksum validates
        decoded, used = IPv4Header.decode(raw)
        assert used == 20
        assert decoded == h

    def test_ipv4_corrupt_checksum_detected(self):
        h = IPv4Header(IPv4Address.from_index(1), IPv4Address.from_index(2),
                       protocol=PROTO_TCP)
        raw = bytearray(h.encode())
        raw[8] ^= 0xFF  # mangle TTL
        with pytest.raises(DecodeError):
            IPv4Header.decode(bytes(raw))

    @settings(max_examples=50, deadline=None)
    @given(ident=st.integers(0, 0xFFFF), ttl=st.integers(1, 255),
           proto=st.integers(0, 255), length=st.integers(20, 0xFFFF))
    def test_ipv4_roundtrip_property(self, ident, ttl, proto, length):
        h = IPv4Header(IPv4Address.from_index(1), IPv4Address.from_index(2),
                       protocol=proto, total_length=length,
                       identification=ident, ttl=ttl)
        decoded, _ = IPv4Header.decode(h.encode())
        assert decoded == h


class TestTransportHeaders:
    def test_udp_roundtrip(self):
        h = UDPHeader(1234, 80, length=100, checksum=0xBEEF)
        decoded, used = UDPHeader.decode(h.encode())
        assert used == 8
        assert decoded == h

    def test_udp_checksum_fill_and_verify(self):
        src = IPv6Address.from_index(1)
        dst = IPv6Address.from_index(2)
        payload = BytesPayload(b"datagram!")
        h = UDPHeader(5, 6, length=8 + payload.length)
        ps = pseudo_header_v6(src.packed, dst.packed, h.length, 17)
        udp_fill_checksum(h, ps, payload)
        assert h.checksum != 0
        assert udp_verify_checksum(h, ps, payload)
        assert not udp_verify_checksum(h, ps, BytesPayload(b"datagraM!"))

    def test_tcp_roundtrip_no_options(self):
        h = TCPHeader(1000, 2000, seq=0xDEADBEEF, ack=0x12345678,
                      flags=SYN | ACK, window=0x7000, urgent=0)
        decoded, used = TCPHeader.decode(h.encode())
        assert used == 20
        assert decoded == h

    def test_tcp_options_roundtrip(self):
        h = TCPHeader(1, 2, seq=1, flags=SYN, mss=8960, wscale=4,
                      sack_permitted=True, ts_val=111, ts_ecr=222)
        raw = h.encode()
        assert len(raw) % 4 == 0
        decoded, used = TCPHeader.decode(raw)
        assert used == len(raw) == h.header_len()
        assert decoded.mss == 8960
        assert decoded.wscale == 4
        assert decoded.sack_permitted
        assert decoded.ts_val == 111 and decoded.ts_ecr == 222

    def test_tcp_timestamp_only(self):
        h = TCPHeader(1, 2, flags=ACK, ts_val=99, ts_ecr=98)
        decoded, _ = TCPHeader.decode(h.encode())
        assert decoded.ts_val == 99
        assert decoded.mss is None and decoded.wscale is None

    def test_tcp_unknown_option_skipped(self):
        base = TCPHeader(1, 2).encode()
        # Hand-craft options: kind=254 len=4 + 2 pad NOPs, data offset 6.
        raw = bytearray(base + bytes([254, 4, 0, 0]))
        raw[12] = (6 << 4)
        decoded, used = TCPHeader.decode(bytes(raw))
        assert used == 24

    def test_tcp_bad_offset(self):
        raw = bytearray(TCPHeader(1, 2).encode())
        raw[12] = (4 << 4)  # offset < 5
        with pytest.raises(DecodeError):
            TCPHeader.decode(bytes(raw))

    def test_tcp_truncated_option(self):
        base = TCPHeader(1, 2).encode()
        raw = bytearray(base + bytes([2, 44, 0, 0]))  # MSS opt with absurd len
        raw[12] = (6 << 4)
        with pytest.raises(DecodeError):
            TCPHeader.decode(bytes(raw))

    def test_tcp_checksum_fill_verify_zero_payload(self):
        src = IPv6Address.from_index(1)
        dst = IPv6Address.from_index(2)
        payload = ZeroPayload(1000)
        h = TCPHeader(5, 6, seq=77, flags=ACK)
        ps = pseudo_header_v6(src.packed, dst.packed,
                              h.header_len() + payload.length, 6)
        tcp_fill_checksum(h, ps, payload)
        assert tcp_verify_checksum(h, ps, payload)
        # Same bytes as a real zero buffer.
        assert tcp_verify_checksum(h, ps, BytesPayload(bytes(1000)))

    def test_tcp_checksum_detects_header_corruption(self):
        src = IPv6Address.from_index(1)
        dst = IPv6Address.from_index(2)
        h = TCPHeader(5, 6, seq=77, flags=ACK)
        ps = pseudo_header_v6(src.packed, dst.packed, h.header_len(), 6)
        tcp_fill_checksum(h, ps, ZeroPayload(0))
        # Headers are values: the altered header is a new one carrying the
        # old checksum, as a corrupted header on the wire would.
        altered = dataclasses.replace(h, seq=78)
        assert altered.checksum == h.checksum
        assert not tcp_verify_checksum(altered, ps, ZeroPayload(0))

    @pytest.mark.parametrize("make, fill, verify", [
        (lambda: TCPHeader(5, 6, seq=77, flags=ACK, ts_val=9, ts_ecr=3),
         tcp_fill_checksum, tcp_verify_checksum),
        (lambda: UDPHeader(5, 6, length=8 + 6), udp_fill_checksum,
         udp_verify_checksum),
    ])
    def test_checksum_fill_over_a_stale_checksum(self, make, fill, verify):
        from reference_paths import encode_ref
        src = IPv6Address.from_index(1)
        dst = IPv6Address.from_index(2)
        payload = BytesPayload(b"abcdef")
        fresh = make()
        ps = pseudo_header_v6(src.packed, dst.packed,
                              fresh.header_len() + payload.length, 17)
        fill(fresh, ps, payload)
        stale = make()
        stale.checksum = 0x1234
        stale.encode()                         # cache holds the stale value
        fill(stale, ps, payload)
        assert stale.checksum == fresh.checksum
        assert stale.encode() == encode_ref(stale) == fresh.encode()
        assert verify(stale, ps, payload)

    @pytest.mark.parametrize("v6", [True, False])
    def test_ecn_setter_drops_cached_bytes(self, v6):
        from reference_paths import encode_ref
        if v6:
            h = IPv6Header(IPv6Address.from_index(1), IPv6Address.from_index(2),
                           next_header=6, payload_length=20)
        else:
            h = IPv4Header(IPv4Address.from_index(1), IPv4Address.from_index(2),
                           protocol=6, total_length=40)
        before = h.encode()
        h.ecn = 0b10
        assert h.ecn == 0b10
        assert h.encode() != before
        assert h.encode() == encode_ref(h)

    def test_flag_str(self):
        assert TCPHeader(1, 2, flags=SYN | ACK).flag_str() == "SA"
        assert TCPHeader(1, 2).flag_str() == "."

    @settings(max_examples=100, deadline=None)
    @given(seq=st.integers(0, 0xFFFFFFFF), ack=st.integers(0, 0xFFFFFFFF),
           flags=st.integers(0, 0x3F), window=st.integers(0, 0xFFFF),
           mss=st.one_of(st.none(), st.integers(0, 0xFFFF)),
           wscale=st.one_of(st.none(), st.integers(0, 14)),
           ts=st.one_of(st.none(), st.tuples(st.integers(0, 0xFFFFFFFF),
                                             st.integers(0, 0xFFFFFFFF))))
    def test_tcp_roundtrip_property(self, seq, ack, flags, window, mss, wscale, ts):
        h = TCPHeader(1, 2, seq=seq, ack=ack, flags=flags, window=window,
                      mss=mss, wscale=wscale,
                      ts_val=ts[0] if ts else None,
                      ts_ecr=ts[1] if ts else None)
        decoded, used = TCPHeader.decode(h.encode())
        assert used == h.header_len()
        assert (decoded.seq, decoded.ack, decoded.flags, decoded.window) == \
            (seq, ack, flags, window)
        assert decoded.mss == mss
        assert decoded.wscale == wscale
        if ts:
            assert (decoded.ts_val, decoded.ts_ecr) == ts
        else:
            assert decoded.ts_val is None
