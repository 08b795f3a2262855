"""Header codec interface.

Each header is a dataclass that encodes to / decodes from the exact wire
format.  ``decode`` returns ``(header, bytes_consumed)`` so layered
parsing can walk a raw buffer.

Headers are values: fields are set at construction (or while a decoder
fills in options) and not changed after the first :meth:`Header.encode`,
which caches the packed wire bytes (``_wire``) so a packet crossing
several link/switch/NIC boundaries serializes each header once instead
of once per hop.  Nothing invalidates that cache on assignment.  The few
in-place edits the stack does make keep it right explicitly: the
checksum fill patches the checksum word (:meth:`Header._store_checksum`),
``set_ce`` patches the ECN bits, and the ``ecn`` setters drop the cache.
Subclasses implement :meth:`_encode_wire`; callers keep using
:meth:`encode`.  All header classes use ``__slots__`` (no per-instance
``__dict__``) — they are the hottest allocations in the simulator.
"""

from __future__ import annotations

import dataclasses

from ...errors import NetworkError


class DecodeError(NetworkError):
    """Malformed header bytes."""


class Header:
    """Base class for wire headers."""

    __slots__ = ()

    def header_len(self) -> int:
        raise NotImplementedError

    def _encode_wire(self) -> bytes:
        """Pack this header; subclasses implement the raw codec here."""
        raise NotImplementedError

    def encode(self) -> bytes:
        wire = self._wire
        if wire is not None:
            return wire
        wire = self._wire = self._encode_wire()
        return wire

    def _store_checksum(self, value: int) -> None:
        """Set the 16-bit ``checksum`` field and patch it into the cached
        wire bytes instead of re-encoding (the fill-after-encode idiom)."""
        self.checksum = value
        wire = self._wire
        if wire is not None:
            offset = self.CSUM_OFFSET
            self._wire = (wire[:offset] + value.to_bytes(2, "big")
                          + wire[offset + 2:])

    def __eq__(self, other):
        if type(other) is not type(self):
            return False
        for f in dataclasses.fields(self):
            name = f.name
            if name[0] == "_":
                continue                       # cache slots are not identity
            if getattr(other, name) != getattr(self, name):
                return False
        return True


def need(data: bytes, n: int, what: str) -> None:
    if len(data) < n:
        raise DecodeError(f"truncated {what}: need {n} bytes, have {len(data)}")
