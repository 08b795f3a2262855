"""Collective wire frames: a fixed 18-byte header plus packed float64s.

Both engines speak this framing (one frame per TCP message), so their
byte counts — and under fault injection their retransmit behavior — are
directly comparable.  The header carries an op sequence number so a
rank that finishes op ``k`` and immediately posts op ``k+1`` cannot
confuse a neighbor still draining op ``k``: frames for a future op are
buffered by sequence, never dropped.
"""

from __future__ import annotations

import struct
from typing import List, NamedTuple, Sequence, Tuple

from ..errors import NetworkError
from .group import pack_vector

# version, kind, algo, phase, group, seq, step, offset_elems, count_elems
HEADER = struct.Struct("!BBBBHHHII")
HEADER_SIZE = HEADER.size   # 18 bytes
VERSION = 1

KIND_DATA = 1    # payload carries count_elems float64s at offset_elems
KIND_RTS = 2     # rendezvous request-to-send for (phase, step)
KIND_CTS = 3     # rendezvous clear-to-send, flows on the reverse path
KIND_TOKEN = 4   # barrier token; step is the round (0 = gather, 1 = release)

KIND_NAMES = {KIND_DATA: "DATA", KIND_RTS: "RTS",
              KIND_CTS: "CTS", KIND_TOKEN: "TOKEN"}

ALGO_CODES = {"barrier": 0, "broadcast": 1, "allreduce": 2}
ALGO_NAMES = {code: name for name, code in ALGO_CODES.items()}

# The header's phase byte for each schedule phase (repro.collectives.schedule).
PHASE_CODES = {"reduce_scatter": 0, "allgather": 1, "rd_exchange": 0,
               "broadcast": 0, "barrier": 0}

# Transport budget: QPIP TCP's max message is the effective MSS
# (mtu - 60 IP/TCP - 12 timestamp option); keep a small margin.
_TRANSPORT_OVERHEAD = 80


class FrameHeader(NamedTuple):
    kind: int
    algo: int
    phase: int
    group: int
    seq: int
    step: int
    offset: int     # element offset into the vector
    count: int      # element count in this frame's payload


def max_frame_elems(mtu: int) -> int:
    elems = (mtu - _TRANSPORT_OVERHEAD - HEADER_SIZE) // 8
    if elems < 1:
        raise NetworkError(f"mtu {mtu} too small for collective frames")
    return elems


def encode_frame(kind: int, algo: int, phase: int, group: int, seq: int,
                 step: int, offset: int, count: int,
                 payload: bytes = b"") -> bytes:
    return HEADER.pack(VERSION, kind, algo, phase, group,
                       seq & 0xFFFF, step, offset, count) + payload


def decode_frame(data: bytes) -> Tuple[FrameHeader, bytes]:
    if len(data) < HEADER_SIZE:
        raise NetworkError(f"short collective frame: {len(data)} bytes")
    version, kind, algo, phase, group, seq, step, offset, count = \
        HEADER.unpack_from(data)
    if version != VERSION:
        raise NetworkError(f"collective frame version {version}")
    if kind not in KIND_NAMES:
        raise NetworkError(f"unknown collective frame kind {kind}")
    payload = data[HEADER_SIZE:]
    if kind == KIND_DATA and len(payload) != count * 8:
        raise NetworkError(
            f"frame payload {len(payload)}B does not match count {count}")
    return FrameHeader(kind, algo, phase, group, seq, step, offset, count), \
        payload


def step_frames(step, index: int, vector: Sequence[float], frame_elems: int,
                algo: int, group: int, seq: int) -> List[bytes]:
    """What schedule step ``index`` originates: one TOKEN frame for a
    token step, else its ``send`` range of ``vector`` cut into DATA
    frames of at most ``frame_elems`` elements."""
    phase = PHASE_CODES[step.phase]
    if step.op == "token":
        return [encode_frame(KIND_TOKEN, algo, phase, group, seq, index, 0, 0)]
    offset, count = step.send
    end = offset + count
    out = []
    for off in range(offset, end, frame_elems):
        stop = min(off + frame_elems, end)
        out.append(encode_frame(KIND_DATA, algo, phase, group, seq, index,
                                off, stop - off,
                                pack_vector(vector[off:stop])))
    return out


def is_next_piece(hdr: FrameHeader, step, index: int, got: int) -> bool:
    """The length check: is ``hdr`` the next piece of schedule step
    ``index``'s ``recv`` range, ``got`` elements in?  (A token step
    takes one zero-length TOKEN frame.)"""
    offset, count = step.recv
    kind = KIND_TOKEN if step.op == "token" else KIND_DATA
    return (hdr.kind == kind and hdr.step == index
            and hdr.offset == offset + got and hdr.count <= count - got)
