"""Link-layer headers: Ethernet II and Myrinet source-route.

Myrinet used source-based cut-through routing: the sender prepends one
route byte per switch hop; each switch consumes its byte.  We keep the
route bytes in the header (with a cursor) rather than physically
stripping them, which preserves wire size accounting.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..addresses import MacAddress
from .base import DecodeError, Header, need

# EtherType values (also used as the Myrinet payload-type field).
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD

# Precompiled wire codec (see headers.transport).
_U16_STRUCT = struct.Struct("!H")


@dataclass(eq=False, slots=True)
class EthernetHeader(Header):
    """Ethernet II: dst(6) src(6) ethertype(2)."""

    dst: MacAddress
    src: MacAddress
    ethertype: int = ETHERTYPE_IPV6
    _wire: Optional[bytes] = field(default=None, init=False, repr=False)

    LEN = 14

    def header_len(self) -> int:
        return self.LEN

    def _encode_wire(self) -> bytes:
        return self.dst.packed + self.src.packed + _U16_STRUCT.pack(self.ethertype)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["EthernetHeader", int]:
        need(data, cls.LEN, "ethernet header")
        dst = MacAddress(data[0:6])
        src = MacAddress(data[6:12])
        (ethertype,) = _U16_STRUCT.unpack_from(data, 12)
        return cls(dst, src, ethertype), cls.LEN


@dataclass(eq=False, slots=True)
class MyrinetHeader(Header):
    """Myrinet source route: route_len(1), route bytes, type(2).

    ``route`` lists the output port at each switch along the path.
    """

    route: List[int] = field(default_factory=list)
    ptype: int = ETHERTYPE_IPV6
    _wire: Optional[bytes] = field(default=None, init=False, repr=False)

    MAX_HOPS = 32

    def __post_init__(self):
        route = self.route
        if len(route) > self.MAX_HOPS:
            raise DecodeError(f"route too long: {len(route)} hops")
        for hop in route:
            if not 0 <= hop <= 0xFF:
                raise DecodeError(f"route byte out of range: {hop}")

    def header_len(self) -> int:
        return 1 + len(self.route) + 2

    def _encode_wire(self) -> bytes:
        return bytes([len(self.route)]) + bytes(self.route) + _U16_STRUCT.pack(self.ptype)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["MyrinetHeader", int]:
        need(data, 1, "myrinet header")
        n = data[0]
        if n > cls.MAX_HOPS:
            raise DecodeError(f"route too long: {n} hops")
        need(data, 1 + n + 2, "myrinet header")
        route = list(data[1:1 + n])
        (ptype,) = _U16_STRUCT.unpack_from(data, 1 + n)
        return cls(route, ptype), 1 + n + 2
