"""Header codec interface.

Each header is a dataclass that encodes to / decodes from the exact wire
format.  ``decode`` returns ``(header, bytes_consumed)`` so layered
parsing can walk a raw buffer.

Headers cache their packed wire bytes (``_wire``): the first
:meth:`Header.encode` stores the encoding and any field assignment
invalidates it, so a packet crossing several link/switch/NIC boundaries
serializes each header once instead of once per hop.  Subclasses
implement :meth:`_encode_wire`; callers keep using :meth:`encode`.
All header classes use ``__slots__`` (no per-instance ``__dict__``) —
they are the hottest allocations in the simulator.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

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
        wire = self._encode_wire()
        object.__setattr__(self, "_wire", wire)
        return wire

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name[0] != "_":
            object.__setattr__(self, "_wire", None)

    def _store_checksum_field(self, name: str, value: int, offset: int) -> None:
        """Set a 16-bit checksum field and patch it into the cached wire
        bytes instead of invalidating them (the fill-after-encode idiom)."""
        object.__setattr__(self, name, value)
        wire = self._wire
        if wire is not None:
            object.__setattr__(
                self, "_wire",
                wire[:offset] + value.to_bytes(2, "big") + wire[offset + 2:])

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
