"""Network address types: MAC, IPv4, IPv6, and endpoint tuples.

Addresses are immutable value objects backed by raw bytes, so codecs can
splice them straight into headers and checksums.
"""

from __future__ import annotations

import ipaddress
from functools import total_ordering
from typing import NamedTuple, Union

from ..errors import ConfigError


@total_ordering
class _BytesAddress:
    """Common machinery for fixed-width byte addresses."""

    WIDTH = 0

    __slots__ = ("packed", "_hash")

    def __init__(self, packed: bytes):
        if len(packed) != self.WIDTH:
            raise ConfigError(
                f"{type(self).__name__} needs {self.WIDTH} bytes, got {len(packed)}")
        self.packed = packed = bytes(packed)
        # Computed once: addresses key every demux and route table.
        self._hash = hash((type(self).__name__, packed))

    def __reduce__(self):
        # Rebuild from the bytes, so the hash is the receiving process's.
        return type(self), (self.packed,)

    def __eq__(self, other):
        return type(other) is type(self) and other.packed == self.packed

    def __lt__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.packed < other.packed

    def __hash__(self):
        return self._hash


class MacAddress(_BytesAddress):
    """48-bit link-layer address."""

    WIDTH = 6
    BROADCAST: "MacAddress"

    @classmethod
    def from_index(cls, index: int) -> "MacAddress":
        """Deterministic locally-administered MAC from a small integer."""
        if not 0 <= index < (1 << 40):
            raise ConfigError(f"MAC index out of range: {index}")
        return cls(bytes([0x02]) + index.to_bytes(5, "big"))

    @property
    def is_broadcast(self) -> bool:
        return self.packed == b"\xff" * 6

    def __repr__(self):
        return ":".join(f"{b:02x}" for b in self.packed)


MacAddress.BROADCAST = MacAddress(b"\xff" * 6)


class IPv4Address(_BytesAddress):
    WIDTH = 4

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        return cls(ipaddress.IPv4Address(text).packed)

    @classmethod
    def from_index(cls, index: int, net: str = "10.0.0.0") -> "IPv4Address":
        base = int(ipaddress.IPv4Address(net))
        return cls(int(base + index).to_bytes(4, "big"))

    def __repr__(self):
        return str(ipaddress.IPv4Address(self.packed))


class IPv6Address(_BytesAddress):
    WIDTH = 16

    @classmethod
    def parse(cls, text: str) -> "IPv6Address":
        return cls(ipaddress.IPv6Address(text).packed)

    @classmethod
    def from_index(cls, index: int, net: str = "fd00::") -> "IPv6Address":
        base = int(ipaddress.IPv6Address(net))
        return cls(int(base + index).to_bytes(16, "big"))

    def __repr__(self):
        return str(ipaddress.IPv6Address(self.packed))


IPAddress = Union[IPv4Address, IPv6Address]


# Identities are named tuples so they hash and compare in C; a tuple's
# hash is hash((addr, port)) / hash((local, remote)), the value the
# frozen dataclasses they replace gave, so sets keep their order.


class _EndpointFields(NamedTuple):
    addr: IPAddress
    port: int


class Endpoint(_EndpointFields):
    """(IP address, port) pair."""

    __slots__ = ()

    def __new__(cls, addr: IPAddress, port: int):
        if not 0 <= port <= 0xFFFF:
            raise ConfigError(f"port out of range: {port}")
        return tuple.__new__(cls, (addr, port))

    def __repr__(self):
        return f"{self.addr!r}.{self.port}"


class FourTuple(NamedTuple):
    """TCP/UDP connection identity (local, remote)."""

    local: Endpoint
    remote: Endpoint

    def reversed(self) -> "FourTuple":
        return FourTuple(self.remote, self.local)

    def __repr__(self):
        return f"{self.local!r}<->{self.remote!r}"
