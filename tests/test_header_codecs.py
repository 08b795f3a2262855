"""Property tests: the precompiled header codecs are byte-for-byte
identical to the naive per-field serializers.

Every header class encodes with module-level ``struct.Struct`` objects;
the per-field ``struct.pack`` bodies in ``tests/reference_paths.py``
are the oracle.  Hypothesis drives randomized field values through both
and asserts identical wire bytes, plus decode round-trips and the
odd-length payload / checksum-tail edges the word-folding checksum has
to get right.
"""

from hypothesis import given, settings, strategies as st

from reference_paths import (encode_ref, ones_complement_sum_ref,
                             pseudo_header_v4_ref, pseudo_header_v6_ref,
                             tcp_verify_ref, udp_verify_ref)
from repro.net.addresses import IPv4Address, IPv6Address, MacAddress
from repro.net.checksum import (combine, finish, ones_complement_sum,
                                pseudo_header_v4, pseudo_header_v6)
from repro.net.headers.ip import IPv4Header, IPv6Header, PROTO_TCP
from repro.net.headers.link import EthernetHeader, MyrinetHeader
from repro.net.headers.transport import (TCPHeader, UDPHeader,
                                         tcp_fill_checksum,
                                         tcp_verify_checksum,
                                         udp_fill_checksum,
                                         udp_verify_checksum)
from repro.net.packet import BytesPayload

u16 = st.integers(min_value=0, max_value=0xFFFF)
u8 = st.integers(min_value=0, max_value=0xFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


def both_encodings(hdr_factory):
    """Encode a fresh header with the product codec and with the
    reference (fresh per side: encode caches wire bytes on the
    instance)."""
    return hdr_factory().encode(), encode_ref(hdr_factory())


def filled_ref(hdr, pseudo: int, body: bytes, zero_as_ffff: bool) -> bytes:
    """Wire bytes of ``hdr`` with its checksum computed by the
    references alone (``hdr.checksum`` must be 0 on entry)."""
    value = finish(combine(pseudo, ones_complement_sum_ref(encode_ref(hdr)),
                           ones_complement_sum_ref(body)))
    hdr.checksum = 0xFFFF if zero_as_ffff and value == 0 else value
    return encode_ref(hdr)


sack_block = st.tuples(u32, u32)


def _option_len(fields) -> int:
    """Encoded (padded) option length for a field dict."""
    n = 0
    if fields["mss"] is not None:
        n += 4
    if fields["wscale"] is not None:
        n += 4
    if fields["sack_permitted"]:
        n += 4
    if fields["ts_val"] is not None:
        n += 12
    blocks = fields["sack_blocks"][:3]
    if blocks:
        n += 4 + 8 * len(blocks)
    return n


tcp_headers = st.builds(
    dict,
    src_port=u16, dst_port=u16,
    seq=u32, ack=u32, flags=u8, window=u16, checksum=u16, urgent=u16,
    mss=st.none() | u16,
    wscale=st.none() | st.integers(min_value=0, max_value=14),
    sack_permitted=st.booleans(),
    ts_val=st.none() | u32,
    ts_ecr=st.none() | u32,
    sack_blocks=st.lists(sack_block, max_size=4),
    # The 4-bit data offset caps a legal TCP header at 60 bytes; the
    # stack never combines every option, and neither may the strategy.
).filter(lambda f: _option_len(f) <= 40)


class TestTCPCodec:
    @settings(max_examples=200, deadline=None)
    @given(fields=tcp_headers)
    def test_fast_encode_matches_naive(self, fields):
        fast, naive = both_encodings(lambda: TCPHeader(**fields))
        assert fast == naive

    @settings(max_examples=100, deadline=None)
    @given(fields=tcp_headers)
    def test_decode_roundtrip(self, fields):
        wire = TCPHeader(**fields).encode()
        decoded, consumed = TCPHeader.decode(wire)
        assert consumed == len(wire)
        assert decoded.encode() == wire

    def test_steady_state_ts_only_shape(self):
        # The special-cased NOP NOP TS fast shape: 12 option bytes.
        fast, naive = both_encodings(
            lambda: TCPHeader(1, 2, seq=3, ack=4, flags=0x10,
                              ts_val=123456, ts_ecr=654321))
        assert fast == naive
        assert len(fast) == 20 + 12

    def test_ts_ecr_none_encodes_as_zero(self):
        fast, naive = both_encodings(
            lambda: TCPHeader(1, 2, ts_val=7, ts_ecr=None))
        assert fast == naive

    def test_sack_blocks_truncated_to_max(self):
        blocks = [(i, i + 10) for i in range(6)]
        fast, naive = both_encodings(
            lambda: TCPHeader(1, 2, ts_val=9, sack_blocks=blocks))
        assert fast == naive


class TestUDPCodec:
    @settings(max_examples=100, deadline=None)
    @given(src=u16, dst=u16, length=st.integers(min_value=8, max_value=0xFFFF),
           csum=u16)
    def test_fast_encode_matches_naive(self, src, dst, length, csum):
        fast, naive = both_encodings(lambda: UDPHeader(src, dst, length, csum))
        assert fast == naive
        decoded, consumed = UDPHeader.decode(fast)
        assert consumed == 8
        assert decoded.encode() == fast


class TestIPv4Codec:
    @settings(max_examples=150, deadline=None)
    @given(src=st.binary(min_size=4, max_size=4),
           dst=st.binary(min_size=4, max_size=4),
           total_length=st.integers(min_value=20, max_value=0xFFFF),
           ident=u16, ttl=st.integers(min_value=1, max_value=255),
           dscp=u8, df=st.booleans(), mf=st.booleans(),
           frag=st.integers(min_value=0, max_value=0x1FFF))
    def test_fast_encode_matches_naive(self, src, dst, total_length, ident,
                                       ttl, dscp, df, mf, frag):
        def make():
            return IPv4Header(IPv4Address(src), IPv4Address(dst), PROTO_TCP,
                              total_length=total_length, identification=ident,
                              ttl=ttl, dscp=dscp, flags_df=df, flags_mf=mf,
                              frag_offset=frag)
        fast, naive = both_encodings(make)
        assert fast == naive
        # The embedded header checksum verifies (decode raises otherwise).
        decoded, consumed = IPv4Header.decode(fast)
        assert consumed == 20
        assert decoded.encode() == fast


class TestIPv6Codec:
    @settings(max_examples=150, deadline=None)
    @given(src=st.binary(min_size=16, max_size=16),
           dst=st.binary(min_size=16, max_size=16),
           payload_length=u16, hop=st.integers(min_value=1, max_value=255),
           tc=u8, flow=st.integers(min_value=0, max_value=0xFFFFF))
    def test_fast_encode_matches_naive(self, src, dst, payload_length,
                                       hop, tc, flow):
        def make():
            return IPv6Header(IPv6Address(src), IPv6Address(dst), PROTO_TCP,
                              payload_length=payload_length, hop_limit=hop,
                              traffic_class=tc, flow_label=flow)
        fast, naive = both_encodings(make)
        assert fast == naive
        decoded, consumed = IPv6Header.decode(fast)
        assert consumed == 40
        assert decoded.encode() == fast


class TestLinkCodecs:
    @settings(max_examples=50, deadline=None)
    @given(dst=st.binary(min_size=6, max_size=6),
           src=st.binary(min_size=6, max_size=6), etype=u16)
    def test_ethernet(self, dst, src, etype):
        fast, naive = both_encodings(
            lambda: EthernetHeader(MacAddress(dst), MacAddress(src), etype))
        assert fast == naive
        decoded, consumed = EthernetHeader.decode(fast)
        assert consumed == 14
        assert decoded.encode() == fast

    @settings(max_examples=50, deadline=None)
    @given(route=st.lists(u8, max_size=8), ptype=u16)
    def test_myrinet(self, route, ptype):
        fast, naive = both_encodings(lambda: MyrinetHeader(route, ptype))
        assert fast == naive
        decoded, consumed = MyrinetHeader.decode(fast)
        assert consumed == len(fast)
        assert decoded.encode() == fast


class TestChecksumEdges:
    """The codecs compose with the word-folding checksum: odd-length
    payloads exercise the big-endian tail-byte rule, and stored-checksum
    verification exercises the non-mutating subtract path."""

    @settings(max_examples=100, deadline=None)
    @given(body=st.binary(min_size=0, max_size=65),
           src=st.binary(min_size=16, max_size=16),
           dst=st.binary(min_size=16, max_size=16))
    def test_tcp_checksum_odd_payload_fast_vs_naive(self, body, src, dst):
        payload = BytesPayload(body)
        hdr = TCPHeader(5, 6, seq=1, ack=2, flags=0x18, ts_val=3)
        upper_len = hdr.header_len() + payload.length
        pseudo = pseudo_header_v6(src, dst, upper_len, PROTO_TCP)
        tcp_fill_checksum(hdr, pseudo, payload)
        assert tcp_verify_checksum(hdr, pseudo, payload)

        ref = TCPHeader(5, 6, seq=1, ack=2, flags=0x18, ts_val=3)
        pseudo_ref = pseudo_header_v6_ref(src, dst, upper_len, PROTO_TCP)
        assert pseudo_ref == pseudo
        assert filled_ref(ref, pseudo_ref, body, False) == hdr.encode()
        # Each verifier accepts the other side's header, leaves it as
        # it found it, and rejects a flipped payload bit.
        assert tcp_verify_ref(hdr, pseudo, payload)
        assert tcp_verify_checksum(ref, pseudo, payload)
        assert hdr == ref and hdr.encode() == encode_ref(ref)
        if body:
            bad = BytesPayload(bytes([body[0] ^ 1]) + body[1:])
            assert not tcp_verify_ref(hdr, pseudo, bad)
            assert not tcp_verify_checksum(hdr, pseudo, bad)

    @settings(max_examples=100, deadline=None)
    @given(body=st.binary(min_size=0, max_size=65),
           src=st.binary(min_size=4, max_size=4),
           dst=st.binary(min_size=4, max_size=4))
    def test_udp_checksum_odd_payload_fast_vs_naive(self, body, src, dst):
        payload = BytesPayload(body)
        hdr = UDPHeader(5, 6, length=8 + len(body))
        pseudo = pseudo_header_v4(src, dst, hdr.length, 17)
        udp_fill_checksum(hdr, pseudo, payload)
        assert udp_verify_checksum(hdr, pseudo, payload)

        ref = UDPHeader(5, 6, length=8 + len(body))
        pseudo_ref = pseudo_header_v4_ref(src, dst, ref.length, 17)
        assert pseudo_ref == pseudo
        assert filled_ref(ref, pseudo_ref, body, True) == hdr.encode()
        assert udp_verify_ref(hdr, pseudo, payload)
        assert udp_verify_checksum(ref, pseudo, payload)
        assert hdr == ref and hdr.encode() == encode_ref(ref)
        if body:
            bad = BytesPayload(bytes([body[0] ^ 1]) + body[1:])
            assert not udp_verify_ref(hdr, pseudo, bad)
            assert not udp_verify_checksum(hdr, pseudo, bad)

    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(min_size=0, max_size=67), initial=u16)
    def test_ones_complement_sum_fast_vs_naive(self, data, initial):
        assert ones_complement_sum(data, initial) == \
            ones_complement_sum_ref(data, initial)
