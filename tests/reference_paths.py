"""Reference implementations the product is checked against.

``src/`` has one body per behaviour.  The stepwise bodies those replaced
live here, verbatim where it matters, as the independent oracle for the
next kernel change (the ``reference_spin`` pattern of
``test_spin_elision.py``).  Not collected by pytest.

* **Pure references** are called directly by the property and
  exhaustive tests in ``test_checksum_fast.py`` and
  ``test_header_codecs.py``: the byte-pair checksum loop, the packed
  pseudo-headers, the per-field ``struct.pack`` encoders for all six
  header classes, and the zero-the-field-and-restore checksum verifiers.
  They are value-identical to the product by those tests and cannot
  move an event, so they are never patched into whole-system runs.
* **Structural references** change *how many kernel events* model the
  same simulated work.  :func:`reference_paths` installs them on the
  product classes for the length of a ``with`` block, and the
  whole-system equivalence tests assert that CQE streams, wire bytes,
  timestamps, digests and the final clock do not notice.

Import this module as ``reference_paths`` (``tests/`` is on ``sys.path``
via the root ``conftest.py``), never as ``tests.reference_paths``: the
nesting check compares function identity.
"""

import heapq
import struct
from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.hw.lanai import ProgrammableNic
from repro.net.checksum import combine, finish
from repro.net.headers.ip import IPv4Header, IPv6Header
from repro.net.headers.link import EthernetHeader, MyrinetHeader
from repro.net.headers.transport import (MAX_SACK_BLOCKS, OPT_EOL, OPT_MSS,
                                         OPT_NOP, OPT_SACK,
                                         OPT_SACK_PERMITTED, OPT_TIMESTAMP,
                                         OPT_WSCALE, TCPHeader, UDPHeader)
from repro.net.tcp.connection import TcpConnection
from repro.net.tcp.tcb import SendChunk
from repro.sim import Event, SimulationError, WorkItem, WorkQueue

# -- pure references: checksums ------------------------------------------------


def ones_complement_sum_ref(data: bytes, initial: int = 0) -> int:
    """RFC 1071 byte-pair loop with end-around carry."""
    acc = initial
    n = len(data)
    for i in range(0, n - 1, 2):
        acc += (data[i] << 8) | data[i + 1]
    if n % 2:
        acc += data[-1] << 8
    while acc >> 16:
        acc = (acc & 0xFFFF) + (acc >> 16)
    return acc


def pseudo_header_v4_ref(src: bytes, dst: bytes, upper_len: int,
                         protocol: int) -> int:
    ph = src + dst + struct.pack("!BBH", 0, protocol, upper_len)
    return ones_complement_sum_ref(ph)


def pseudo_header_v6_ref(src: bytes, dst: bytes, upper_len: int,
                         next_header: int) -> int:
    ph = src + dst + struct.pack("!IxxxB", upper_len, next_header)
    return ones_complement_sum_ref(ph)


# -- pure references: header codecs ----------------------------------------------


def _encode_ethernet(hdr) -> bytes:
    return hdr.dst.packed + hdr.src.packed + struct.pack("!H", hdr.ethertype)


def _encode_myrinet(hdr) -> bytes:
    return (bytes([len(hdr.route)]) + bytes(hdr.route)
            + struct.pack("!H", hdr.ptype))


def _encode_ipv4(hdr) -> bytes:
    flags_frag = ((0x4000 if hdr.flags_df else 0)
                  | (0x2000 if hdr.flags_mf else 0)
                  | (hdr.frag_offset & 0x1FFF))
    head = struct.pack(
        "!BBHHHBBH", 0x45, hdr.dscp, hdr.total_length,
        hdr.identification, flags_frag, hdr.ttl, hdr.protocol, 0)
    head += hdr.src.packed + hdr.dst.packed
    csum = finish(ones_complement_sum_ref(head))
    return head[:10] + struct.pack("!H", csum) + head[12:]


def _encode_ipv6(hdr) -> bytes:
    word0 = ((6 << 28) | ((hdr.traffic_class & 0xFF) << 20)
             | (hdr.flow_label & 0xFFFFF))
    return (struct.pack("!IHBB", word0, hdr.payload_length,
                        hdr.next_header, hdr.hop_limit)
            + hdr.src.packed + hdr.dst.packed)


def _encode_udp(hdr) -> bytes:
    return struct.pack("!HHHH", hdr.src_port, hdr.dst_port,
                       hdr.length, hdr.checksum)


def _tcp_options(hdr) -> bytes:
    """TCP options appended a field at a time."""
    out = bytearray()
    if hdr.mss is not None:
        out += struct.pack("!BBH", OPT_MSS, 4, hdr.mss)
    if hdr.wscale is not None:
        out += struct.pack("!BBB", OPT_WSCALE, 3, hdr.wscale)
        out += bytes([OPT_NOP])
    if hdr.sack_permitted:
        out += struct.pack("!BB", OPT_SACK_PERMITTED, 2)
        out += bytes([OPT_NOP, OPT_NOP])
    if hdr.ts_val is not None:
        # RFC 1323 appendix A padding: NOP NOP TS.
        out += bytes([OPT_NOP, OPT_NOP])
        out += struct.pack("!BBII", OPT_TIMESTAMP, 10,
                           hdr.ts_val & 0xFFFFFFFF,
                           (hdr.ts_ecr or 0) & 0xFFFFFFFF)
    if hdr.sack_blocks:
        blocks = hdr.sack_blocks[:MAX_SACK_BLOCKS]
        out += bytes([OPT_NOP, OPT_NOP])
        out += struct.pack("!BB", OPT_SACK, 2 + 8 * len(blocks))
        for left, right in blocks:
            out += struct.pack("!II", left & 0xFFFFFFFF, right & 0xFFFFFFFF)
    while len(out) % 4:
        out += bytes([OPT_EOL])
    return bytes(out)


def _encode_tcp(hdr) -> bytes:
    opts = _tcp_options(hdr)
    data_offset = (hdr.BASE_LEN + len(opts)) // 4
    return struct.pack(
        "!HHIIBBHHH", hdr.src_port, hdr.dst_port,
        hdr.seq & 0xFFFFFFFF, hdr.ack & 0xFFFFFFFF,
        data_offset << 4, hdr.flags & 0xFF,
        hdr.window & 0xFFFF, hdr.checksum, hdr.urgent) + opts


_ENCODERS = {
    EthernetHeader: _encode_ethernet, MyrinetHeader: _encode_myrinet,
    IPv4Header: _encode_ipv4, IPv6Header: _encode_ipv6,
    UDPHeader: _encode_udp, TCPHeader: _encode_tcp,
}


def encode_ref(hdr) -> bytes:
    """Wire bytes of ``hdr`` from its fields alone: no cached bytes, no
    precompiled ``Struct``, the byte-pair checksum."""
    return _ENCODERS[type(hdr)](hdr)


def _sum_with_field_zeroed(hdr, pseudo_sum: int, payload) -> int:
    stored, hdr.checksum = hdr.checksum, 0
    try:
        return combine(pseudo_sum, ones_complement_sum_ref(encode_ref(hdr)),
                       ones_complement_sum_ref(payload.to_bytes()))
    finally:
        hdr.checksum = stored


def tcp_verify_ref(hdr, pseudo_sum: int, payload) -> bool:
    return finish(_sum_with_field_zeroed(hdr, pseudo_sum, payload)) \
        == hdr.checksum


def udp_verify_ref(hdr, pseudo_sum: int, payload) -> bool:
    if hdr.checksum == 0:       # checksum disabled (IPv4 only)
        return True
    expect = finish(_sum_with_field_zeroed(hdr, pseudo_sum, payload))
    return (expect if expect != 0 else 0xFFFF) == hdr.checksum


# -- structural references ---------------------------------------------------------
#
# Each takes the place of the product method of the same name.  They
# reach sibling methods through ``self``, so with all of them installed
# a ``submit_wait`` lands in the reference ``submit`` and so on.


def _submit(self, duration, category="work", priority=0, fn=None):
    """``WorkQueue.submit`` without the eager horizon: every item is a
    heap entry, a dispatch and a completion handle."""
    if self.parked is not None:
        self.parked.settle()
    if duration < 0:
        raise SimulationError(f"negative work duration: {duration}")
    sim = self.sim
    done = Event(sim)
    item = WorkItem(duration, category, priority, fn, done, sim.now)
    self._seq += 1
    heapq.heappush(self._heap, (priority, self._seq, item))
    if not self._busy:
        self._dispatch()
    return done


def _submit_wait(self, duration, category="work"):
    return self.submit(duration, category=category)


def _try_charge(self, duration, category="work"):
    if self.parked is not None:
        self.parked.settle()
    if duration < 0:
        raise SimulationError(f"negative work duration: {duration}")
    return None


def _run(self, spans):
    """``ProgrammableNic.run`` stepwise, as the firmware once drove it:
    ``yield <span>; at_end(); yield <next span>; ...``.

    Each stage is its own core submission, made when its span starts.
    At the completion event of a span's last stage the span's ``at_end``
    runs and the next span is submitted, and the caller resumes in the
    pop of the final span's last completion, just as a process waiting
    on that event would.  The returned event is never triggered: it only
    carries the caller's resume callback to that completion.
    """
    waiter = Event(self.sim)

    def start(i):
        stages, at_end = spans[i]
        self._record(stages)
        for name, us in stages:
            done = self.processor.submit(us, category=name)
        last = i + 1 == len(spans)

        def end(event):
            if at_end is not None:
                at_end()
            if not last:
                start(i + 1)
            else:
                for resume in waiter.callbacks:
                    resume(event)

        done.callbacks.append(end)

    start(0)
    return waiter


def _fill_output(self) -> bool:
    """``TcpConnection._fill_output`` as one window check, one chunk and
    one drain notification per loop pass."""
    progressed = False
    while self._unsent:
        usable = self._usable_window()
        msg_id, payload = self._unsent[0]
        if self.config.message_mode:
            need = payload.length
            if need > usable and self.flight_size > 0:
                break
            if need > usable and need > self.snd_wnd:
                break  # receiver has not posted enough; wait for credit
            self._unsent.popleft()
            self._unsent_bytes -= payload.length
            self._queue_chunk(SendChunk(seq=self.snd_nxt, payload=payload,
                                        msg_id=msg_id))
            progressed = True
        else:
            seg_len = min(self.effective_mss, usable, self._unsent_bytes)
            if seg_len <= 0:
                break
            if (not self.config.nodelay and seg_len < self.effective_mss
                    and self.flight_size > 0):
                break  # Nagle: wait for a full segment or an ACK
            chunk_payload = self._take_unsent(seg_len)
            self._queue_chunk(SendChunk(seq=self.snd_nxt,
                                        payload=chunk_payload))
            progressed = True
    return progressed


# (owner class, attribute, reference) — class attributes only, so no
# importer is left holding a stale binding.
PATCHES = (
    (WorkQueue, "submit", _submit),
    (WorkQueue, "submit_wait", _submit_wait),
    (WorkQueue, "try_charge", _try_charge),
    (ProgrammableNic, "run", _run),
    (TcpConnection, "_fill_output", _fill_output),
)


@contextmanager
def reference_paths():
    """Run the block with every structural reference installed."""
    if any(vars(owner)[name] is ref for owner, name, ref in PATCHES):
        raise RuntimeError("reference_paths() is already active")
    with ExitStack() as stack:
        for owner, name, ref in PATCHES:
            stack.enter_context(mock.patch.object(owner, name, ref))
        yield
