"""IPv4 and IPv6 headers.

The QPIP prototype runs IPv6 (paper §4.1); the Linux baseline runs IPv4.
Both codecs are byte-exact; IPv4 includes its header checksum.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..addresses import IPv4Address, IPv6Address
from ..checksum import checksum, incremental_update
from .base import DecodeError, Header, need

PROTO_TCP = 6
PROTO_UDP = 17

# Precompiled wire codecs (see headers.transport).
_IPV4_STRUCT = struct.Struct("!BBHHHBBH")
_IPV6_STRUCT = struct.Struct("!IHBB")
_U16_STRUCT = struct.Struct("!H")

# ECN codepoints (RFC 3168) — the low two bits of the TOS/traffic class.
ECN_NOT_ECT = 0b00
ECN_ECT1 = 0b01
ECN_ECT0 = 0b10
ECN_CE = 0b11


@dataclass(eq=False, slots=True)
class IPv4Header(Header):
    """IPv4 without options (IHL=5)."""

    src: IPv4Address
    dst: IPv4Address
    protocol: int
    total_length: int = 20          # header + upper layers, filled by the stack
    identification: int = 0
    ttl: int = 64
    dscp: int = 0
    flags_df: bool = True
    flags_mf: bool = False
    frag_offset: int = 0
    _wire: Optional[bytes] = field(default=None, init=False, repr=False)

    LEN = 20

    @property
    def ecn(self) -> int:
        return self.dscp & 0b11

    @ecn.setter
    def ecn(self, value: int) -> None:
        self.dscp = (self.dscp & ~0b11) | (value & 0b11)
        self._wire = None

    def set_ce(self) -> None:
        """Mark Congestion Experienced in flight (RFC 3168).

        When the wire bytes are cached, only the changed word and the
        header checksum are patched (RFC 1624) instead of re-encoding.
        """
        wire = self._wire
        new_dscp = self.dscp | 0b11
        if wire is None:
            self.dscp = new_dscp
            return
        old_word = (wire[0] << 8) | wire[1]
        new_word = (wire[0] << 8) | new_dscp
        old_csum = (wire[10] << 8) | wire[11]
        new_csum = incremental_update(old_csum, old_word, new_word)
        self.dscp = new_dscp
        self._wire = (wire[:1] + bytes((new_dscp,)) + wire[2:10]
                      + new_csum.to_bytes(2, "big") + wire[12:])

    def header_len(self) -> int:
        return self.LEN

    def _encode_wire(self) -> bytes:
        flags_frag = ((0x4000 if self.flags_df else 0)
                      | (0x2000 if self.flags_mf else 0)
                      | (self.frag_offset & 0x1FFF))
        # Build in place, checksum over the zero-field buffer, then
        # patch the checksum word — one allocation end to end.
        buf = bytearray(20)
        _IPV4_STRUCT.pack_into(
            buf, 0, 0x45, self.dscp, self.total_length,
            self.identification, flags_frag, self.ttl, self.protocol, 0)
        buf[12:16] = self.src.packed
        buf[16:20] = self.dst.packed
        _U16_STRUCT.pack_into(buf, 10, checksum(buf))
        return bytes(buf)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["IPv4Header", int]:
        need(data, cls.LEN, "IPv4 header")
        (vihl, dscp, total_length, ident, flags_frag, ttl, protocol,
         _csum) = _IPV4_STRUCT.unpack_from(data, 0)
        if vihl >> 4 != 4:
            raise DecodeError(f"not IPv4: version {vihl >> 4}")
        if (vihl & 0xF) != 5:
            raise DecodeError("IPv4 options are not supported")
        if checksum(data[:cls.LEN]) != 0:
            raise DecodeError("IPv4 header checksum mismatch")
        hdr = cls(src=IPv4Address(data[12:16]), dst=IPv4Address(data[16:20]),
                  protocol=protocol, total_length=total_length,
                  identification=ident, ttl=ttl, dscp=dscp,
                  flags_df=bool(flags_frag & 0x4000),
                  flags_mf=bool(flags_frag & 0x2000),
                  frag_offset=flags_frag & 0x1FFF)
        return hdr, cls.LEN


@dataclass(eq=False, slots=True)
class IPv6Header(Header):
    """Fixed 40-byte IPv6 header (no extension headers)."""

    src: IPv6Address
    dst: IPv6Address
    next_header: int
    payload_length: int = 0
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0
    _wire: Optional[bytes] = field(default=None, init=False, repr=False)

    LEN = 40

    @property
    def ecn(self) -> int:
        return self.traffic_class & 0b11

    @ecn.setter
    def ecn(self, value: int) -> None:
        self.traffic_class = (self.traffic_class & ~0b11) | (value & 0b11)
        self._wire = None

    def set_ce(self) -> None:
        """Mark Congestion Experienced in flight, patching cached bytes
        (IPv6 has no header checksum; only word 0 changes)."""
        wire = self._wire
        new_tc = self.traffic_class | 0b11
        if wire is None:
            self.traffic_class = new_tc
            return
        word0 = (6 << 28) | ((new_tc & 0xFF) << 20) | (self.flow_label & 0xFFFFF)
        self.traffic_class = new_tc
        self._wire = struct.pack("!I", word0) + wire[4:]

    def header_len(self) -> int:
        return self.LEN

    def _encode_wire(self) -> bytes:
        word0 = (6 << 28) | ((self.traffic_class & 0xFF) << 20) | (self.flow_label & 0xFFFFF)
        return (_IPV6_STRUCT.pack(word0, self.payload_length,
                                  self.next_header, self.hop_limit)
                + self.src.packed + self.dst.packed)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["IPv6Header", int]:
        need(data, cls.LEN, "IPv6 header")
        word0, payload_length, next_header, hop_limit = _IPV6_STRUCT.unpack_from(data, 0)
        if word0 >> 28 != 6:
            raise DecodeError(f"not IPv6: version {word0 >> 28}")
        hdr = cls(src=IPv6Address(data[8:24]), dst=IPv6Address(data[24:40]),
                  next_header=next_header, payload_length=payload_length,
                  hop_limit=hop_limit,
                  traffic_class=(word0 >> 20) & 0xFF,
                  flow_label=word0 & 0xFFFFF)
        return hdr, cls.LEN
