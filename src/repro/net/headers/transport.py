"""UDP and TCP headers, including the TCP options QPIP's stack uses
(MSS, window scale, RFC 1323 timestamps).

Checksums cover the pseudo-header, transport header, and payload — the
real algorithm over real bytes (payload contribution comes from the
payload object's ones-complement sum).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..checksum import combine, finish, ones_complement_sum
from ..packet import Payload, ZeroPayload
from .base import DecodeError, Header, need

# Precompiled wire codecs: module-level Struct objects skip the format
# parse / cache lookup inside struct.pack on every header build.  The
# per-field struct.pack bodies they are checked against byte for byte
# are ``encode_ref`` in tests/reference_paths.py.
_UDP_STRUCT = struct.Struct("!HHHH")
_TCP_BASE_STRUCT = struct.Struct("!HHIIBBHHH")
_U16_STRUCT = struct.Struct("!H")

# -- UDP --------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class UDPHeader(Header):
    src_port: int
    dst_port: int
    length: int = 8          # header + payload
    checksum: int = 0
    _wire: Optional[bytes] = field(default=None, init=False, repr=False)

    LEN = 8
    CSUM_OFFSET = 6

    def header_len(self) -> int:
        return self.LEN

    def _encode_wire(self) -> bytes:
        return _UDP_STRUCT.pack(self.src_port, self.dst_port,
                                self.length, self.checksum)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["UDPHeader", int]:
        need(data, cls.LEN, "UDP header")
        src, dst, length, csum = _UDP_STRUCT.unpack_from(data, 0)
        if length < cls.LEN:
            raise DecodeError(f"bad UDP length {length}")
        return cls(src, dst, length, csum), cls.LEN


def udp_fill_checksum(hdr: UDPHeader, pseudo_sum: int, payload: Payload) -> None:
    """Compute and store the UDP checksum (0 transmitted as 0xFFFF)."""
    hdr.checksum = 0
    hdr._wire = None            # cached bytes may hold a stale checksum
    acc = combine(pseudo_sum, ones_complement_sum(hdr.encode()), payload.csum())
    value = finish(acc)
    hdr._store_checksum(value if value != 0 else 0xFFFF)


def udp_verify_checksum(hdr: UDPHeader, pseudo_sum: int, payload: Payload) -> bool:
    if hdr.checksum == 0:       # checksum disabled (the caller rejects it on IPv6)
        return True
    # Non-mutating: remove the stored checksum from the running sum by
    # ones-complement subtraction instead of zeroing the field (which
    # would invalidate the cached wire bytes twice).
    stored = hdr.checksum
    acc = combine(pseudo_sum, ones_complement_sum(hdr.encode()),
                  payload.csum(), (~stored) & 0xFFFF)
    expect = finish(acc)
    expect = expect if expect != 0 else 0xFFFF
    return expect == stored


# -- TCP ----------------------------------------------------------------------

FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20
ECE = 0x40      # RFC 3168 ECN-Echo
CWR = 0x80      # RFC 3168 Congestion Window Reduced

_FLAG_NAMES = [(FIN, "F"), (SYN, "S"), (RST, "R"), (PSH, "P"), (ACK, "A"),
               (URG, "U"), (ECE, "E"), (CWR, "C")]

OPT_EOL = 0
OPT_NOP = 1
OPT_MSS = 2
OPT_WSCALE = 3
OPT_SACK_PERMITTED = 4
OPT_SACK = 5
OPT_TIMESTAMP = 8
MAX_SACK_BLOCKS = 3

# Option codecs: one pack per option, NOP padding folded into the format.
_OPT_MSS_STRUCT = struct.Struct("!BBH")          # kind len mss
_OPT_WSCALE_STRUCT = struct.Struct("!BBBB")      # kind len shift NOP
_OPT_TS_STRUCT = struct.Struct("!BBBBII")        # NOP NOP kind len val ecr
_OPT_SACK_HEAD_STRUCT = struct.Struct("!BBBB")   # NOP NOP kind len
_SACK_BLOCK_STRUCT = struct.Struct("!II")
_OPT_SACKOK_BYTES = bytes((OPT_SACK_PERMITTED, 2, OPT_NOP, OPT_NOP))


@dataclass(eq=False, slots=True)
class TCPHeader(Header):
    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 0
    checksum: int = 0
    urgent: int = 0
    # Options (None = absent).
    mss: Optional[int] = None
    wscale: Optional[int] = None
    sack_permitted: bool = False
    ts_val: Optional[int] = None
    ts_ecr: Optional[int] = None
    sack_blocks: List[Tuple[int, int]] = field(default_factory=list)
    _wire: Optional[bytes] = field(default=None, init=False, repr=False)
    _opts: Optional[bytes] = field(default=None, init=False, repr=False)

    BASE_LEN = 20
    CSUM_OFFSET = 16

    def flag_str(self) -> str:
        return "".join(ch for mask, ch in _FLAG_NAMES if self.flags & mask) or "."

    def _options_bytes(self) -> bytes:
        opts = self._opts
        if opts is not None:
            return opts
        opts = self._opts = self._build_options()
        return opts

    def _build_options(self) -> bytes:
        """Options in the order MSS, WSCALE, SACK-permitted, TS, SACK,
        each NOP-padded to a word (RFC 1323 appendix A: NOP NOP TS),
        with an EOL tail — one Struct.pack per option."""
        ts_val = self.ts_val
        if (ts_val is not None and self.mss is None and self.wscale is None
                and not self.sack_permitted and not self.sack_blocks):
            # Steady-state shape — every data/ACK segment after the
            # handshake: NOP NOP TS, 12 bytes, already word-aligned.
            return _OPT_TS_STRUCT.pack(
                OPT_NOP, OPT_NOP, OPT_TIMESTAMP, 10,
                ts_val & 0xFFFFFFFF, (self.ts_ecr or 0) & 0xFFFFFFFF)
        parts = []
        if self.mss is not None:
            parts.append(_OPT_MSS_STRUCT.pack(OPT_MSS, 4, self.mss))
        if self.wscale is not None:
            parts.append(_OPT_WSCALE_STRUCT.pack(OPT_WSCALE, 3,
                                                 self.wscale, OPT_NOP))
        if self.sack_permitted:
            parts.append(_OPT_SACKOK_BYTES)
        if ts_val is not None:
            parts.append(_OPT_TS_STRUCT.pack(
                OPT_NOP, OPT_NOP, OPT_TIMESTAMP, 10,
                ts_val & 0xFFFFFFFF, (self.ts_ecr or 0) & 0xFFFFFFFF))
        if self.sack_blocks:
            blocks = self.sack_blocks[:MAX_SACK_BLOCKS]
            parts.append(_OPT_SACK_HEAD_STRUCT.pack(
                OPT_NOP, OPT_NOP, OPT_SACK, 2 + 8 * len(blocks)))
            for left, right in blocks:
                parts.append(_SACK_BLOCK_STRUCT.pack(left & 0xFFFFFFFF,
                                                     right & 0xFFFFFFFF))
        out = b"".join(parts)
        pad = -len(out) % 4
        if pad:
            out += b"\x00" * pad      # OPT_EOL bytes
        return out

    def header_len(self) -> int:
        return self.BASE_LEN + len(self._options_bytes())

    def _encode_wire(self) -> bytes:
        opts = self._options_bytes()
        return _TCP_BASE_STRUCT.pack(
            self.src_port, self.dst_port,
            self.seq & 0xFFFFFFFF, self.ack & 0xFFFFFFFF,
            ((self.BASE_LEN + len(opts)) // 4) << 4, self.flags & 0xFF,
            self.window & 0xFFFF, self.checksum, self.urgent) + opts

    @classmethod
    def decode(cls, data: bytes) -> Tuple["TCPHeader", int]:
        need(data, cls.BASE_LEN, "TCP header")
        (src, dst, seq, ack, off_byte, flags, window, csum,
         urgent) = _TCP_BASE_STRUCT.unpack_from(data, 0)
        header_len = (off_byte >> 4) * 4
        if header_len < cls.BASE_LEN:
            raise DecodeError(f"bad TCP data offset {header_len}")
        need(data, header_len, "TCP header with options")
        hdr = cls(src, dst, seq, ack, flags & 0xFF, window, csum, urgent)
        cls._parse_options(hdr, data[cls.BASE_LEN:header_len])
        return hdr, header_len

    @staticmethod
    def _parse_options(hdr: "TCPHeader", opts: bytes) -> None:
        i = 0
        while i < len(opts):
            kind = opts[i]
            if kind == OPT_EOL:
                break
            if kind == OPT_NOP:
                i += 1
                continue
            if i + 1 >= len(opts):
                raise DecodeError("truncated TCP option")
            length = opts[i + 1]
            if length < 2 or i + length > len(opts):
                raise DecodeError(f"bad TCP option length {length}")
            body = opts[i + 2:i + length]
            if kind == OPT_MSS and length == 4:
                hdr.mss = _U16_STRUCT.unpack(body)[0]
            elif kind == OPT_WSCALE and length == 3:
                hdr.wscale = body[0]
            elif kind == OPT_SACK_PERMITTED and length == 2:
                hdr.sack_permitted = True
            elif kind == OPT_TIMESTAMP and length == 10:
                hdr.ts_val, hdr.ts_ecr = _SACK_BLOCK_STRUCT.unpack(body)
            elif kind == OPT_SACK and (length - 2) % 8 == 0:
                hdr.sack_blocks = [
                    _SACK_BLOCK_STRUCT.unpack_from(body, off)
                    for off in range(0, length - 2, 8)]
                hdr.sack_blocks = [tuple(b) for b in hdr.sack_blocks]
            # Unknown options are skipped (per RFC 1122).
            i += length

    def __repr__(self):
        return (f"<TCP {self.src_port}->{self.dst_port} {self.flag_str()} "
                f"seq={self.seq} ack={self.ack} win={self.window}>")


def tcp_fill_checksum(hdr: TCPHeader, pseudo_sum: int, payload: Payload) -> None:
    hdr.checksum = 0
    hdr._wire = None            # cached bytes may hold a stale checksum
    acc = combine(pseudo_sum, ones_complement_sum(hdr.encode()), payload.csum())
    hdr._store_checksum(finish(acc))


def tcp_verify_checksum(hdr: TCPHeader, pseudo_sum: int, payload: Payload) -> bool:
    # Non-mutating verify (see udp_verify_checksum): the encoded bytes
    # usually come straight from the sender-side cache.
    stored = hdr.checksum
    acc = combine(pseudo_sum, ones_complement_sum(hdr.encode()),
                  payload.csum(), (~stored) & 0xFFFF)
    return finish(acc) == stored
