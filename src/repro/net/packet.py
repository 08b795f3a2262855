"""Packets and payloads.

A :class:`Packet` is an ordered stack of decoded headers plus a payload.
Payloads come in two flavours:

* :class:`BytesPayload` — real bytes, used by correctness tests and any
  application that writes data into its buffers;
* :class:`ZeroPayload` — a length of implicit zeros, used by bulk
  benchmarks (the paper's ttcp/NBD transfers never look at the data), so
  a 409 MB transfer costs O(packets), not O(bytes).

Both provide an exact ones-complement checksum contribution, so TCP/UDP
checksums are real in either case (the sum of zeros is zero).
"""

from __future__ import annotations

from typing import List, Optional

from .checksum import ones_complement_sum


class Payload:
    """Interface: length, byte materialization, slicing, checksum sum."""

    # No __dict__ on any payload: subclasses declare their own slots.
    __slots__ = ()

    length: int

    def to_bytes(self) -> bytes:
        raise NotImplementedError

    def slice(self, offset: int, length: int) -> "Payload":
        raise NotImplementedError

    def csum(self) -> int:
        """Running (non-inverted) ones-complement sum at even alignment."""
        raise NotImplementedError

    def __len__(self) -> int:
        return self.length


class ZeroPayload(Payload):
    """``length`` implicit zero bytes."""

    __slots__ = ("length",)

    def __init__(self, length: int):
        if length < 0:
            raise ValueError("payload length must be non-negative")
        self.length = length

    def to_bytes(self) -> bytes:
        return bytes(self.length)

    def slice(self, offset: int, length: int) -> "ZeroPayload":
        if offset < 0 or length < 0 or offset + length > self.length:
            raise ValueError("payload slice out of bounds")
        return ZeroPayload(length)

    def csum(self) -> int:
        return 0

    def __repr__(self):
        return f"ZeroPayload({self.length})"

    def __eq__(self, other):
        if isinstance(other, ZeroPayload):
            return other.length == self.length
        if isinstance(other, BytesPayload):
            return other.length == self.length and other.data == bytes(self.length)
        return NotImplemented

    def __hash__(self):
        return hash(("zero", self.length))


class BytesPayload(Payload):
    """Real bytes."""

    __slots__ = ("data", "length", "_csum")

    def __init__(self, data: bytes):
        self.data = bytes(data)
        self.length = len(self.data)
        self._csum: Optional[int] = None

    def to_bytes(self) -> bytes:
        return self.data

    def slice(self, offset: int, length: int) -> "BytesPayload":
        if offset < 0 or length < 0 or offset + length > self.length:
            raise ValueError("payload slice out of bounds")
        return BytesPayload(self.data[offset:offset + length])

    def csum(self) -> int:
        if self._csum is None:
            self._csum = ones_complement_sum(self.data)
        return self._csum

    def __repr__(self):
        return f"BytesPayload({self.length})"

    def __eq__(self, other):
        if isinstance(other, BytesPayload):
            return other.data == self.data
        if isinstance(other, ZeroPayload):
            return other.__eq__(self)
        return NotImplemented

    def __hash__(self):
        return hash(self.data)


EMPTY = ZeroPayload(0)


class ChainPayload(Payload):
    """A lazy concatenation: keeps big zero runs virtual behind real
    prefixes (e.g. an RDMA framing header in front of a bulk body)."""

    __slots__ = ("parts", "length", "_csum")

    def __init__(self, parts: List[Payload]):
        self.parts = [p for p in parts if p.length]
        self.length = sum(p.length for p in self.parts)
        self._csum: Optional[int] = None

    def to_bytes(self) -> bytes:
        return b"".join(p.to_bytes() for p in self.parts)

    def slice(self, offset: int, length: int) -> Payload:
        if offset < 0 or length < 0 or offset + length > self.length:
            raise ValueError("payload slice out of bounds")
        picked: List[Payload] = []
        remaining = length
        cursor = offset
        for part in self.parts:
            if remaining == 0:
                break
            if cursor >= part.length:
                cursor -= part.length
                continue
            take = min(part.length - cursor, remaining)
            picked.append(part.slice(cursor, take))
            cursor = 0
            remaining -= take
        return concat(picked)

    def csum(self) -> int:
        if self._csum is None:
            # Ones-complement sums only combine at even boundaries; any
            # odd-length interior part forces materialization.
            if all(p.length % 2 == 0 for p in self.parts[:-1]):
                from .checksum import combine
                self._csum = combine(*(p.csum() for p in self.parts))
            else:
                from .checksum import ones_complement_sum
                self._csum = ones_complement_sum(self.to_bytes())
        return self._csum

    def __repr__(self):
        return f"ChainPayload({self.length}={'+'.join(str(p.length) for p in self.parts)})"

    def __eq__(self, other):
        if isinstance(other, Payload):
            return other.to_bytes() == self.to_bytes()
        return NotImplemented

    def __hash__(self):
        return hash(self.to_bytes())


def concat(parts: List[Payload]) -> Payload:
    """Concatenate payloads, staying virtual where possible."""
    parts = [p for p in parts if p.length]
    if not parts:
        return EMPTY
    if len(parts) == 1:
        return parts[0]
    if all(isinstance(p, ZeroPayload) for p in parts):
        return ZeroPayload(sum(p.length for p in parts))
    total = sum(p.length for p in parts)
    real = sum(p.length for p in parts if not isinstance(p, ZeroPayload))
    if total <= 4096 or real == total:
        return BytesPayload(b"".join(p.to_bytes() for p in parts))
    return ChainPayload(parts)


class Packet:
    """A header stack (outermost first) plus payload plus link metadata."""

    __slots__ = ("headers", "payload", "route", "route_cursor", "born_at",
                 "corrupted", "trace_id", "_wire_size")

    _next_trace_id = 0

    def __init__(self, headers: Optional[list] = None,
                 payload: Payload = EMPTY):
        self.headers: list = headers if headers is not None else []
        self.payload = payload
        # Myrinet source route (port list), shared by every packet on the
        # route and only read, at ``route_cursor``.
        self.route: Optional[list] = None
        self.route_cursor: int = 0
        self.born_at: Optional[float] = None
        self.corrupted: bool = False
        self._wire_size: Optional[int] = None
        Packet._next_trace_id += 1
        self.trace_id = Packet._next_trace_id

    def push(self, header) -> "Packet":
        """Prepend an (outer) header."""
        self.headers.insert(0, header)
        self._wire_size = None
        return self

    def top(self):
        if not self.headers:
            raise IndexError("packet has no headers")
        return self.headers[0]

    def pop(self):
        """Remove and return the outermost header."""
        if not self.headers:
            raise IndexError("packet has no headers")
        self._wire_size = None
        return self.headers.pop(0)

    def find(self, header_type):
        """Return the first header of the given type, or None."""
        for h in self.headers:
            if isinstance(h, header_type):
                return h
        return None

    @property
    def wire_size(self) -> int:
        """Total bytes on the wire: all header bytes plus payload.

        Cached until the header stack changes (push/pop); header field
        mutations after build never change header lengths.
        """
        size = self._wire_size
        if size is None:
            size = sum(h.header_len()
                       for h in self.headers) + self.payload.length
            self._wire_size = size
        return size

    def copy_shallow(self) -> "Packet":
        """A distinct Packet sharing headers/payload (for retransmit clones)."""
        p = Packet(list(self.headers), self.payload)
        p.route = self.route
        p.route_cursor = self.route_cursor
        p.corrupted = self.corrupted
        return p

    def __repr__(self):
        names = "/".join(type(h).__name__ for h in self.headers)
        return f"<Packet {names} +{self.payload.length}B #{self.trace_id}>"
