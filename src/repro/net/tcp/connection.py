"""The TCP connection engine.

This is a real TCP: three-way handshake, sliding windows, RFC 1323
timestamps and window scaling, Jacobson/Karels RTT estimation with
Karn's rule, Reno congestion control with fast retransmit/recovery,
delayed ACKs, zero-window persist probes, and the full close state
machine.  It matches the subset the QPIP prototype implements (paper
§4.1) plus optional out-of-order reassembly (the prototype omits it;
we make it a config flag so the design choice can be ablated).

The engine is *pure protocol logic*: it never sleeps.  Timing lives in
the surrounding execution contexts (NIC firmware FSMs or the host
kernel), which drain ``output_queue`` through their own timed stages.
This mirrors the paper's split between protocol state processing and
the transmit/receive state machines of Figure 2.

Context protocol (duck-typed)::

    ctx.output_ready(conn)            # descriptors queued; schedule a drain
    ctx.deliver(conn, payload, meta)  # one in-order segment for the app
    ctx.on_established(conn)
    ctx.on_remote_fin(conn)
    ctx.on_closed(conn)               # reached CLOSED/TIME_WAIT teardown
    ctx.on_reset(conn, exc)           # aborted (RST or retry exhaustion)
    ctx.on_send_complete(conn, msg_id)       # message fully acked
    ctx.on_send_buffer_space(conn)           # stream mode: space freed
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple
from collections import deque

from ... import obs
from ...errors import ConnectionReset
from ...sim import Simulator, Timer
from ..addresses import FourTuple
from ..headers.transport import (ACK, CWR, ECE, FIN, PSH, RST, SYN,
                                 TCPHeader, URG)
from ..packet import EMPTY, Payload, ZeroPayload, concat
from .congestion import RenoCongestion
from .rtt import RttEstimator
from .seqspace import (seq_add, seq_between, seq_ge, seq_gt, seq_le, seq_lt,
                       seq_sub)
from .tcb import (DATA_DRAIN_STATES, DATA_RECV_STATES, DATA_SEND_STATES,
                  SYNCHRONIZED_STATES,
                  SendChunk, TcpConfig, TcpState, TcpStats)

MAX_DATA_RETRIES = 15
TS_MASK = 0xFFFFFFFF


def classify(hdr: TCPHeader, payload_len: int) -> str:
    """'ack' for a pure acknowledgement, 'data' otherwise.

    The firmware charges different occupancy for the two cases
    (paper Tables 2 & 3).
    """
    if payload_len == 0 and not hdr.flags & (SYN | FIN | RST):
        return "ack"
    return "data"


@dataclass
class SegDescriptor:
    """A queued transmission: materialized into a header at wire time."""

    kind: str                       # 'data' | 'ack' | 'probe' | 'rst'
    chunk: Optional[SendChunk] = None
    retransmit: bool = False


class TcpConnection:
    """One end of a TCP connection."""

    def __init__(self, sim: Simulator, ctx, four_tuple: FourTuple,
                 config: TcpConfig, iss: int):
        self.sim = sim
        self.ctx = ctx
        self.tuple = four_tuple
        self.config = config
        self.state = TcpState.CLOSED
        self.stats = TcpStats()

        # --- send side -----------------------------------------------------
        self.iss = iss
        self.snd_una = iss
        self.snd_nxt = iss
        self.snd_wnd = 0
        self.snd_wl1 = 0
        self.snd_wl2 = 0
        self._retx: Deque[SendChunk] = deque()
        self._unsent: Deque[Tuple[Optional[int], Payload]] = deque()
        self._unsent_bytes = 0
        self._fin_pending = False
        self._fin_queued = False

        # --- receive side ---------------------------------------------------
        self.irs: Optional[int] = None
        self.rcv_nxt = 0
        self.rcv_adv = 0                      # highest window edge promised
        self._rcv_buffered = 0                # stream mode: delivered, unread
        self._recv_credit = config.recv_buffer  # credit mode: posted WR bytes
        self._reasm: List[Tuple[int, Payload, bool]] = []  # (seq, payload, fin)

        # --- options ----------------------------------------------------------
        self.peer_mss: Optional[int] = None
        self.ts_ok = False
        self.ws_ok = False
        self.sack_ok = False
        self.snd_wscale = 0                  # applied to windows we receive
        self.rcv_wscale = 0                  # applied to windows we send
        self.ts_recent = 0

        # --- machinery ---------------------------------------------------------
        self.rtt = RttEstimator(min_rto=config.min_rto, max_rto=config.max_rto,
                                initial_rto=config.initial_rto)
        self.cc = RenoCongestion(mss=max(1, config.mss),
                                 initial_window_segments=config.initial_cwnd_segments)
        self.output_queue: Deque[SegDescriptor] = deque()
        self._rto_timer = Timer(sim, self._on_rto, name="rto")
        self._delack_timer = Timer(sim, self._on_delack, name="delack")
        self._persist_timer = Timer(sim, self._on_persist, name="persist")
        self._keepalive_timer = Timer(sim, self._on_keepalive, name="keepalive")
        self._keepalive_failures = 0
        self._last_activity = sim.now
        self._time_wait_timer = Timer(sim, self._on_time_wait_done, name="2msl")
        self._persist_backoff = config.persist_timeout
        self._segs_unacked = 0
        self._ack_pending = False    # data received but not yet acknowledged
        self._ack_credit = 0         # explicitly requested ACK segments owed
        self._rtt_probe: Optional[Tuple[int, float]] = None
        self._next_msg_id = 0
        self._credit_mode = False

        # --- ECN (RFC 3168; extension per paper §5.2) -----------------------
        self.ecn_ok = False
        self._ecn_echo = False           # receiver: echo ECE until CWR seen
        self._cwr_pending = False        # sender: set CWR on next data segment
        self._ecn_reacted_at: Optional[int] = None   # one reduction per window

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Active open: send SYN."""
        if self.state is not TcpState.CLOSED:
            raise ConnectionReset(f"connect() in state {self.state}")
        self.state = TcpState.SYN_SENT
        self._queue_chunk(SendChunk(seq=self.snd_nxt, syn=True))

    def passive_open(self, syn: TCPHeader) -> None:
        """Server side: consume a SYN and answer SYN|ACK (listener calls this)."""
        if self.state is not TcpState.CLOSED:
            raise ConnectionReset(f"passive_open() in state {self.state}")
        self.stats.segs_in += 1
        self._record_peer_options(syn, passive=True)
        self.irs = syn.seq
        self.rcv_nxt = seq_add(syn.seq, 1)
        self.ts_recent = syn.ts_val or 0
        self.state = TcpState.SYN_RCVD
        self._queue_chunk(SendChunk(seq=self.snd_nxt, syn=True))

    def close(self) -> None:
        """Graceful close: FIN after any queued data."""
        if self.state in (TcpState.CLOSED, TcpState.LISTEN):
            self.state = TcpState.CLOSED
            return
        if self.state is TcpState.SYN_SENT:
            self._teardown(notify_closed=True)
            return
        if self.state in (TcpState.ESTABLISHED, TcpState.SYN_RCVD):
            self.state = TcpState.FIN_WAIT_1
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        else:
            return  # already closing
        self._fin_pending = True
        self._try_send()

    def abort(self, exc=None) -> None:
        """Hard close: RST to the peer, drop all state.

        With ``exc`` the context hears about it through ``on_reset``
        (local-error semantics: a watchdog or driver killed the
        connection) instead of an orderly ``on_closed``.
        """
        if self.state in SYNCHRONIZED_STATES:
            self.output_queue.append(SegDescriptor("rst"))
            self.ctx.output_ready(self)
        if exc is not None:
            self._teardown(notify_closed=False)
            self.ctx.on_reset(self, exc)
        else:
            self._teardown(notify_closed=True)

    def _teardown(self, notify_closed: bool) -> None:
        self.state = TcpState.CLOSED
        self._rto_timer.cancel()
        self._delack_timer.cancel()
        self._persist_timer.cancel()
        self._keepalive_timer.cancel()
        self._time_wait_timer.cancel()
        self._retx.clear()
        self._unsent.clear()
        self._unsent_bytes = 0
        if notify_closed:
            self.ctx.on_closed(self)

    # ------------------------------------------------------------------
    # application send path
    # ------------------------------------------------------------------

    @property
    def effective_mss(self) -> int:
        """Max payload per segment after option overhead."""
        mss = self.config.mss
        if self.peer_mss is not None:
            mss = min(mss, self.peer_mss)
        if self.ts_ok:
            mss -= 12
        return max(1, mss)

    @property
    def max_message(self) -> int:
        """Largest QP message (message mode maps 1 message -> 1 segment)."""
        return self.effective_mss

    def send_message(self, payload: Payload, msg_id: Optional[int] = None) -> int:
        """Queue one message; returns its id (completion reported when acked)."""
        if not self.config.message_mode:
            raise ConnectionReset("send_message requires message_mode")
        if payload.length > self.max_message:
            raise ConnectionReset(
                f"message of {payload.length}B exceeds max segment {self.max_message}B")
        if not payload.length:
            # No sequence space, so no ACK could ever complete it.
            raise ConnectionReset("zero-length message")
        if self.state not in DATA_SEND_STATES and \
                self.state not in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
            raise ConnectionReset(f"send in state {self.state}")
        if msg_id is None:
            msg_id = self._next_msg_id
        self._next_msg_id = max(self._next_msg_id, msg_id + 1)
        self._unsent.append((msg_id, payload))
        self._unsent_bytes += payload.length
        self._try_send()
        return msg_id

    def send_stream(self, payload: Payload) -> int:
        """Byte-stream send; accepts up to free buffer space, returns bytes taken."""
        if self.config.message_mode:
            raise ConnectionReset("send_stream requires stream mode")
        if self.state not in DATA_SEND_STATES and \
                self.state not in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
            raise ConnectionReset(f"send in state {self.state}")
        space = self.send_space()
        take = min(space, payload.length)
        if take > 0:
            self._unsent.append((None, payload.slice(0, take)))
            self._unsent_bytes += take
            self._try_send()
        return take

    def send_space(self) -> int:
        """Free send-buffer space (stream mode)."""
        inflight_payload = sum(c.payload.length for c in self._retx)
        used = self._unsent_bytes + inflight_payload
        return max(0, self.config.send_buffer - used)

    @property
    def bytes_unsent(self) -> int:
        return self._unsent_bytes

    @property
    def flight_size(self) -> int:
        return seq_sub(self.snd_nxt, self.snd_una)

    # ------------------------------------------------------------------
    # receive-window management
    # ------------------------------------------------------------------

    def enable_credit_window(self, initial_credit: int = 0) -> None:
        """QPIP mode: the receive window tracks posted receive-WR space."""
        self._credit_mode = True
        self._recv_credit = initial_credit

    def set_receive_credit(self, credit: int) -> None:
        """Update posted-buffer credit; may emit a window update."""
        if not self._credit_mode:
            raise ConnectionReset("set_receive_credit requires credit mode")
        old = self._advertisable_window()
        self._recv_credit = credit
        self._window_maybe_update(old)

    def app_consumed(self, nbytes: int) -> None:
        """Stream mode: the app read ``nbytes`` out of the receive buffer."""
        old = self._advertisable_window()
        self._rcv_buffered = max(0, self._rcv_buffered - nbytes)
        self._window_maybe_update(old)

    def _advertisable_window(self) -> int:
        if self._credit_mode:
            wnd = self._recv_credit
        else:
            wnd = self.config.recv_buffer - self._rcv_buffered
        wnd = max(0, min(wnd, 0xFFFF << self.rcv_wscale))
        # Never shrink a promised window (RFC 793: "don't take it back").
        promised = seq_sub(self.rcv_adv, self.rcv_nxt)
        return max(wnd, promised, 0)

    def _window_maybe_update(self, old_window: int) -> None:
        if self.state not in SYNCHRONIZED_STATES:
            return
        new = self._advertisable_window()
        # Measure the gain against the last *advertised* edge, so windows
        # already announced by regular ACKs don't retrigger updates (which
        # would look like duplicate ACKs to the peer).
        edge_gain = seq_sub(seq_add(self.rcv_nxt, new), self.rcv_adv)
        if self._credit_mode:
            # QPIP: posted receive WRs open the window eagerly (paper §5.1).
            update = (old_window == 0 and new > 0) \
                or edge_gain >= self.effective_mss
        else:
            # BSD rule: don't chatter window updates on every read.
            update = (old_window == 0 and new > 0) \
                or edge_gain >= 2 * self.effective_mss \
                or edge_gain >= self.config.recv_buffer // 2
        if update:
            self.stats.window_updates_out += 1
            self._request_ack(immediate=True, coalesce=True)

    # ------------------------------------------------------------------
    # transmit machinery
    # ------------------------------------------------------------------

    def _queue_chunk(self, chunk: SendChunk) -> None:
        self._retx.append(chunk)
        self.snd_nxt = seq_add(self.snd_nxt, chunk.seq_len)
        self.output_queue.append(SegDescriptor("data", chunk=chunk))
        self._rto_timer.start_if_idle(self.rtt.current_rto())
        self.ctx.output_ready(self)

    def _usable_window(self) -> int:
        wnd = min(self.snd_wnd, self.cc.window())
        return wnd - self.flight_size

    def _try_send(self) -> None:
        """Move unsent data into the transmit queue as the window allows."""
        if self.state not in DATA_DRAIN_STATES:
            # Data waits for ESTABLISHED; SYN/FIN chunks are queued directly.
            self._maybe_queue_fin()
            return
        progressed = self._fill_output()
        self._maybe_queue_fin()
        if (not progressed and self._unsent and self.flight_size == 0
                and self.state in DATA_DRAIN_STATES):
            # Nothing in flight and nothing sendable: only a window opening
            # can unblock us, so probe in case the update gets lost.
            self._arm_persist()

    def _fill_output(self) -> bool:
        """Sender fill: queue every sendable segment in one traversal,
        with the window arithmetic hoisted into locals and updated
        incrementally, then arm the RTO timer and notify the drain path
        once for the whole burst.

        Same chunk boundaries and queue contents as one window check,
        one :meth:`_queue_chunk` and one drain notification per segment
        (the stepwise loop in ``tests/reference_paths.py``): nothing
        inside the loop can move ``snd_wnd``, ``cc.window()`` or
        ``snd_una`` (a recomputed ``_usable_window()`` only ever changes
        by the just-queued chunk's ``seq_len``), and the drain contexts
        either queue work asynchronously or synchronously pop only the
        front descriptor — the same front segment, built from the same
        state, either way.
        """
        unsent = self._unsent
        if not unsent:
            return False
        usable = self._usable_window()
        flight = self.flight_size
        retx = self._retx
        out = self.output_queue
        queued = 0
        if self.config.message_mode:
            snd_wnd = self.snd_wnd
            while unsent:
                msg_id, payload = unsent[0]
                need = payload.length
                if need > usable and (flight > 0 or need > snd_wnd):
                    break
                unsent.popleft()
                self._unsent_bytes -= need
                chunk = SendChunk(seq=self.snd_nxt, payload=payload,
                                  msg_id=msg_id)
                retx.append(chunk)
                seq_len = chunk.seq_len
                self.snd_nxt = seq_add(self.snd_nxt, seq_len)
                out.append(SegDescriptor("data", chunk=chunk))
                usable -= seq_len
                flight += seq_len
                queued += 1
        else:
            mss = self.effective_mss
            nodelay = self.config.nodelay
            while unsent:
                seg_len = min(mss, usable, self._unsent_bytes)
                if seg_len <= 0:
                    break
                if not nodelay and seg_len < mss and flight > 0:
                    break  # Nagle: wait for a full segment or an ACK
                chunk = SendChunk(seq=self.snd_nxt,
                                  payload=self._take_unsent(seg_len))
                retx.append(chunk)
                seq_len = chunk.seq_len
                self.snd_nxt = seq_add(self.snd_nxt, seq_len)
                out.append(SegDescriptor("data", chunk=chunk))
                usable -= seq_len
                flight += seq_len
                queued += 1
        if not queued:
            return False
        self._rto_timer.start_if_idle(self.rtt.current_rto())
        self.ctx.output_ready(self)
        return True

    def _take_unsent(self, nbytes: int) -> Payload:
        parts: List[Payload] = []
        remaining = nbytes
        while remaining > 0 and self._unsent:
            _mid, payload = self._unsent[0]
            if payload.length <= remaining:
                parts.append(payload)
                remaining -= payload.length
                self._unsent.popleft()
            else:
                parts.append(payload.slice(0, remaining))
                self._unsent[0] = (_mid, payload.slice(remaining,
                                                       payload.length - remaining))
                remaining = 0
        self._unsent_bytes -= nbytes - remaining
        return concat(parts)

    def _maybe_queue_fin(self) -> None:
        if (self._fin_pending and not self._fin_queued and not self._unsent
                and self.state in (TcpState.FIN_WAIT_1, TcpState.LAST_ACK,
                                   TcpState.CLOSING)):
            self._fin_queued = True
            self._queue_chunk(SendChunk(seq=self.snd_nxt, fin=True))

    def _arm_persist(self) -> None:
        if not self._persist_timer.armed:
            self._persist_backoff = self.config.persist_timeout
            self._persist_timer.start(self._persist_backoff)

    def _on_persist(self) -> None:
        if (self.state not in DATA_DRAIN_STATES or not self._unsent
                or self.flight_size > 0):
            return
        self.stats.window_probes += 1
        self.output_queue.append(SegDescriptor("probe"))
        self.ctx.output_ready(self)
        self._persist_backoff = min(self._persist_backoff * 2,
                                    self.config.persist_max)
        self._persist_timer.start(self._persist_backoff)

    # ------------------------------------------------------------------
    # segment construction (called by the drain path at wire time)
    # ------------------------------------------------------------------

    def has_output(self) -> bool:
        return bool(self.output_queue)

    def next_descriptor(self) -> Optional[SegDescriptor]:
        while self.output_queue:
            desc = self.output_queue.popleft()
            if desc.kind == "ack" and self._ack_credit <= 0:
                continue  # a data segment already carried this ACK
            if desc.kind == "data" and desc.chunk is not None \
                    and not desc.retransmit \
                    and seq_ge(self.snd_una, desc.chunk.end) \
                    and not desc.chunk.syn and not desc.chunk.fin:
                continue  # fully acked while queued
            return desc
        return None

    def build_segment(self, desc: SegDescriptor) -> Optional[Tuple[TCPHeader, Payload]]:
        """Materialize a descriptor into (header, payload).

        Checksum is left zero; the IP layer fills it (or hardware assists,
        per the prototype's DMA checksum engines).
        """
        if self.state is TcpState.CLOSED and desc.kind != "rst":
            return None
        now = self.sim.now
        payload: Payload = EMPTY

        if desc.kind == "rst":
            return TCPHeader(self.tuple.local.port, self.tuple.remote.port,
                             seq=self.snd_nxt, ack=self.rcv_nxt,
                             flags=RST | ACK), payload

        # Accumulate every field in locals and construct the header once
        # at the end: a header is a value once built (headers.base).
        mss: Optional[int] = None
        wscale: Optional[int] = None
        sack_permitted = False
        ts_val: Optional[int] = None
        ts_ecr: Optional[int] = None
        sack_blocks: List[Tuple[int, int]] = []

        if desc.kind == "probe":
            # Classic persist probe: one garbage byte the receiver already
            # acked; it gets trimmed and answered with a window-bearing ACK.
            seq = seq_add(self.snd_una, -1 & 0xFFFFFFFF)
            payload = ZeroPayload(1)
            flags = ACK
        elif desc.kind == "data":
            chunk = desc.chunk
            assert chunk is not None
            seq = chunk.seq
            payload = chunk.payload
            flags = 0
            if chunk.syn:
                flags |= SYN
                if self.config.use_sack and self.config.reassembly:
                    sack_permitted = True
                if self.config.ecn:
                    if self.state is TcpState.SYN_SENT:
                        flags |= ECE | CWR          # RFC 3168 ECN-setup SYN
                    elif self.ecn_ok:
                        flags |= ECE                # ECN-setup SYN|ACK
                mss = self.config.mss
                if self.config.use_window_scaling and (
                        self.state is TcpState.SYN_SENT or self.ws_ok):
                    wscale = self.config.wscale_offer()
                if self.config.use_timestamps and (
                        self.state is TcpState.SYN_SENT or self.ts_ok):
                    pass  # timestamps added below
            if chunk.fin:
                flags |= FIN
            if payload.length:
                flags |= PSH
                if self._cwr_pending and self.ecn_ok:
                    flags |= CWR
                    self._cwr_pending = False
            if desc.retransmit:
                chunk.retransmits += 1
                self.stats.retransmitted_segs += 1
                rec = obs.RECORDER
                if rec is not None:
                    rec.event("tcp", "tcp.retransmit", track="tcp",
                              seq=chunk.seq, port=self.tuple.local.port)
                    rec.metrics.counter("tcp.retransmitted_segs").add()
                self._rtt_probe = None  # Karn's rule
            else:
                chunk.sent_at = now
                if self._rtt_probe is None and chunk.seq_len > 0:
                    self._rtt_probe = (chunk.end, now)
        else:  # pure ack
            seq = self.snd_nxt
            flags = ACK
            self.stats.acks_out += 1

        ack = 0
        if self.irs is not None:
            flags |= ACK
            ack = self.rcv_nxt
        if self._ecn_echo and self.ecn_ok and not (flags & SYN):
            flags |= ECE

        window = self._advertisable_window()
        wnd_field = min(0xFFFF, window >> self.rcv_wscale)
        edge = seq_add(self.rcv_nxt, wnd_field << self.rcv_wscale)
        if seq_gt(edge, self.rcv_adv):
            self.rcv_adv = edge

        if self.ts_ok or (desc.kind == "data" and desc.chunk is not None
                          and desc.chunk.syn and self.config.use_timestamps):
            ts_val = self._ts_now()
            ts_ecr = self.ts_recent if self.irs is not None else 0

        if self.sack_ok and self._reasm and not (flags & SYN):
            sack_blocks = self._sack_blocks()
            self.stats.sack_blocks_out += 1

        # Any segment we emit acknowledges everything received so far, but
        # explicitly requested ACKs (dup ACKs, window updates) each go out
        # on their own — fast retransmit needs one ACK per trigger.
        self._ack_pending = False
        self._segs_unacked = 0
        self._ack_credit = max(0, self._ack_credit - 1)
        self._delack_timer.cancel()

        self.stats.segs_out += 1
        self.stats.bytes_out += payload.length
        if desc.kind == "data" and not self._rto_timer.armed and self._retx:
            self._rto_timer.start(self.rtt.current_rto())
        hdr = TCPHeader(self.tuple.local.port, self.tuple.remote.port,
                        seq=seq, ack=ack, flags=flags, window=wnd_field,
                        mss=mss, wscale=wscale, sack_permitted=sack_permitted,
                        ts_val=ts_val, ts_ecr=ts_ecr, sack_blocks=sack_blocks)
        return hdr, payload

    def _ts_now(self) -> int:
        return int(self.sim.now / self.config.ts_clock_granularity) & TS_MASK

    # ------------------------------------------------------------------
    # ACK scheduling
    # ------------------------------------------------------------------

    def _request_ack(self, immediate: bool, coalesce: bool = False) -> None:
        """Ask for an outgoing ACK.

        ``coalesce=True`` marks requests whose information rides on any
        ACK (window updates, delayed-ACK thresholds): they fold into an
        already-owed ACK.  Protocol-significant ACKs (duplicate ACKs for
        fast retransmit, out-of-window responses) must each go out.
        """
        self._ack_pending = True
        if immediate or not self.config.delack_segments:
            if not (coalesce and self._ack_credit > 0):
                self._emit_ack()
            return
        self._segs_unacked += 1
        if self._segs_unacked >= self.config.delack_segments:
            if self._ack_credit > 0:
                self._segs_unacked = 0   # the owed ACK covers us
            else:
                self._emit_ack()
        else:
            self._delack_timer.start_if_idle(self.config.delack_timeout)

    def _emit_ack(self) -> None:
        self._ack_credit += 1
        self._segs_unacked = 0
        self.output_queue.append(SegDescriptor("ack"))
        self.ctx.output_ready(self)

    def _on_delack(self) -> None:
        if self._ack_pending:
            self._emit_ack()

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------

    def _on_rto(self) -> None:
        if not self._retx:
            return
        self.stats.rto_timeouts += 1
        rec = obs.RECORDER
        if rec is not None:
            rec.event("tcp", "tcp.rto", track="tcp",
                      port=self.tuple.local.port)
            rec.metrics.counter("tcp.rto_timeouts").add()
        self.rtt.on_timeout()
        self.cc.on_retransmission_timeout(self.flight_size)
        self._rtt_probe = None
        for chunk in self._retx:
            chunk.sacked = False
        chunk = self._retx[0]
        limit = self.config.syn_retries if chunk.syn else MAX_DATA_RETRIES
        if chunk.retransmits >= limit:
            exc = ConnectionReset(
                f"{self.tuple}: gave up after {chunk.retransmits} retransmissions")
            self._teardown(notify_closed=False)
            self.ctx.on_reset(self, exc)
            return
        self.output_queue.append(SegDescriptor("data", chunk=chunk, retransmit=True))
        self.ctx.output_ready(self)
        self._rto_timer.start(self.rtt.current_rto())

    def _on_keepalive(self) -> None:
        """RFC 1122 §4.2.3.6 keepalive: probe an idle peer; give up after
        ``keepalive_probes`` silent intervals (extension; off by default,
        like the prototype)."""
        if self.state not in SYNCHRONIZED_STATES or \
                self.config.keepalive_idle is None:
            return
        idle = self.sim.now - self._last_activity
        if idle < self.config.keepalive_idle:
            self._keepalive_timer.start(self.config.keepalive_idle - idle)
            return
        if self._keepalive_failures >= self.config.keepalive_probes:
            exc = ConnectionReset(f"{self.tuple}: keepalive timeout")
            self._teardown(notify_closed=False)
            self.ctx.on_reset(self, exc)
            return
        self._keepalive_failures += 1
        self.stats.window_probes += 1          # same probe machinery
        self.output_queue.append(SegDescriptor("probe"))
        self.ctx.output_ready(self)
        self._keepalive_timer.start(self.config.keepalive_interval)

    def _on_time_wait_done(self) -> None:
        self._teardown(notify_closed=True)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def handle_segment(self, hdr: TCPHeader, payload: Payload,
                       ce: bool = False) -> None:
        """Full RFC 793 §3.9 segment-arrives processing.

        ``ce`` reports an IP-layer Congestion Experienced mark (RFC 3168).
        """
        self.stats.segs_in += 1
        self._last_activity = self.sim.now
        self._keepalive_failures = 0
        flags = hdr.flags
        if self.config.keepalive_idle is not None \
                and self.state in SYNCHRONIZED_STATES:
            self._keepalive_timer.start(self.config.keepalive_idle)
        if ce and self.ecn_ok and payload.length:
            self._ecn_echo = True        # echo ECE until the sender CWRs
        if self.ecn_ok and flags & CWR:
            self._ecn_echo = False
        if self.state is TcpState.CLOSED:
            return
        if self.state is TcpState.SYN_SENT:
            self._handle_syn_sent(hdr, payload)
            return

        # Header prediction (the fast path of [32] §28; the firmware's
        # cost model keys off the same data/ack distinction): an in-order
        # ACK-bearing segment with no SYN/FIN/RST/URG on an established
        # connection.  For it the RFC 793 acceptability test reduces to
        # "empty, or the window is open" and the RST/SYN/ACK checks pass.
        predicted = (self.state is TcpState.ESTABLISHED
                     and (flags & (SYN | FIN | RST | URG | ACK)) == ACK
                     and hdr.seq == self.rcv_nxt)
        if predicted:
            acceptable = not payload.length or self._advertisable_window() > 0
        else:
            seg_len = payload.length + (1 if flags & SYN else 0) \
                + (1 if flags & FIN else 0)
            acceptable = self._segment_acceptable(hdr.seq, seg_len)
        if not acceptable:
            if payload.length and seq_le(seq_add(hdr.seq, payload.length),
                                         self.rcv_nxt):
                self.stats.duplicate_data_segs += 1
            if not flags & RST:
                self._request_ack(immediate=True)
            return

        if flags & RST:
            exc = ConnectionReset(f"{self.tuple}: connection reset by peer")
            self._teardown(notify_closed=False)
            self.ctx.on_reset(self, exc)
            return

        if flags & SYN and self.state is not TcpState.SYN_RCVD:
            # SYN in window in a synchronized state: blow up (RFC 793).
            self.output_queue.append(SegDescriptor("rst"))
            self.ctx.output_ready(self)
            exc = ConnectionReset(f"{self.tuple}: unexpected SYN")
            self._teardown(notify_closed=False)
            self.ctx.on_reset(self, exc)
            return

        if not flags & ACK:
            return

        if predicted:
            if payload.length:
                self.stats.fastpath_data += 1
            elif seq_ge(hdr.ack, self.snd_una):
                self.stats.fastpath_ack += 1
            else:
                self.stats.slowpath += 1
        else:
            self.stats.slowpath += 1

        # RFC 1323 ts_recent maintenance.
        if self.ts_ok and hdr.ts_val is not None and seq_le(hdr.seq, self.rcv_nxt):
            if (hdr.ts_val - self.ts_recent) & TS_MASK < 0x80000000:
                self.ts_recent = hdr.ts_val

        if self.state is TcpState.SYN_RCVD:
            if seq_between(self.snd_una, seq_add(hdr.ack, -1 & 0xFFFFFFFF),
                           self.snd_nxt):
                self.state = TcpState.ESTABLISHED
                self._update_send_window(hdr, force=True)
                self.ctx.on_established(self)
            else:
                self.output_queue.append(SegDescriptor("rst"))
                self.ctx.output_ready(self)
                return

        self._process_ack(hdr, payload)

        if payload.length and self.state in DATA_RECV_STATES:
            self._process_data(hdr, payload)
        elif payload.length:
            self.stats.duplicate_data_segs += 1
            self._request_ack(immediate=True)

        if flags & FIN:
            self._process_fin(hdr, payload)

        self._try_send()

    # -- SYN_SENT ---------------------------------------------------------

    def _handle_syn_sent(self, hdr: TCPHeader, payload: Payload) -> None:
        if hdr.flags & ACK and not seq_between(
                self.snd_una, seq_add(hdr.ack, -1 & 0xFFFFFFFF), self.snd_nxt):
            return  # unacceptable ACK
        if hdr.flags & RST:
            if hdr.flags & ACK:
                from ...errors import ConnectionRefused
                exc = ConnectionRefused(f"{self.tuple}: connection refused")
                self._teardown(notify_closed=False)
                self.ctx.on_reset(self, exc)
            return
        if not hdr.flags & SYN:
            return
        self._record_peer_options(hdr, passive=False)
        self.irs = hdr.seq
        self.rcv_nxt = seq_add(hdr.seq, 1)
        self.ts_recent = hdr.ts_val or 0
        if hdr.flags & ACK:
            self._ack_advance(hdr.ack)
            self.state = TcpState.ESTABLISHED
            self._update_send_window(hdr, force=True)
            self._request_ack(immediate=True)
            if self.config.keepalive_idle is not None:
                self._keepalive_timer.start(self.config.keepalive_idle)
            self.ctx.on_established(self)
            self._try_send()
        else:
            # Simultaneous open.
            self.state = TcpState.SYN_RCVD
            self._request_ack(immediate=True)

    def _record_peer_options(self, syn: TCPHeader, passive: bool) -> None:
        self.peer_mss = syn.mss if syn.mss is not None else 536
        if self.config.ecn:
            if passive and syn.flags & ECE and syn.flags & CWR:
                self.ecn_ok = True       # client offered ECN; we accept
            elif not passive and syn.flags & ECE and not syn.flags & CWR:
                self.ecn_ok = True       # SYN|ACK accepted our offer
        self.cc.mss = min(self.cc.mss, self.peer_mss)
        if self.config.use_window_scaling and syn.wscale is not None:
            self.ws_ok = True
            self.snd_wscale = min(syn.wscale, 14)
            self.rcv_wscale = self.config.wscale_offer()
        if self.config.use_timestamps and syn.ts_val is not None:
            self.ts_ok = True
        if self.config.use_sack and self.config.reassembly \
                and syn.sack_permitted:
            self.sack_ok = True

    # -- acceptance -----------------------------------------------------------

    def _segment_acceptable(self, seg_seq: int, seg_len: int) -> bool:
        wnd = self._advertisable_window()
        if seg_len == 0:
            if wnd == 0:
                return seg_seq == self.rcv_nxt
            return seq_between(self.rcv_nxt, seg_seq, seq_add(self.rcv_nxt, wnd))
        if wnd == 0:
            return False
        end = seq_add(seg_seq, seg_len - 1)
        return (seq_between(self.rcv_nxt, seg_seq, seq_add(self.rcv_nxt, wnd))
                or seq_between(self.rcv_nxt, end, seq_add(self.rcv_nxt, wnd)))

    # -- ACK processing -----------------------------------------------------

    def _process_ack(self, hdr: TCPHeader, payload: Payload) -> None:
        ack = hdr.ack
        if seq_gt(ack, self.snd_nxt):
            self._request_ack(immediate=True)   # ack of unsent data
            return

        if hdr.sack_blocks and self.sack_ok:
            self._apply_sack(hdr.sack_blocks)

        is_dup = (ack == self.snd_una and self._retx
                  and payload.length == 0
                  and not hdr.flags & (SYN | FIN)
                  and (hdr.window << self.snd_wscale) == self.snd_wnd)
        if payload.length == 0 and not hdr.flags & (SYN | FIN):
            self.stats.pure_acks_in += 1

        if is_dup:
            self.stats.dup_acks_in += 1
            if self.cc.on_duplicate_ack(self.flight_size):
                self.cc.recovery_point = self.snd_nxt
                self._fast_retransmit()
            elif self.cc.in_recovery:
                if self.sack_ok:
                    # SACK recovery: refill each hole as dup ACKs arrive.
                    self._sack_retransmit_next()
                self._try_send()  # inflated window may allow new data
            return

        if hdr.flags & ECE and self.ecn_ok and self._retx:
            # React once per window: only an ECE acking data sent *after*
            # the previous reaction (which carried CWR) counts as fresh
            # congestion (RFC 3168 §6.1.2).
            if self._ecn_reacted_at is None or \
                    seq_gt(hdr.ack, self._ecn_reacted_at):
                self.cc.on_ecn_signal(self.flight_size)
                self._cwr_pending = True
                self._ecn_reacted_at = self.snd_nxt
                rec = obs.RECORDER
                if rec is not None:
                    rec.metrics.counter("tcp.ecn_reductions").add()

        if seq_gt(ack, self.snd_una):
            acked = seq_sub(ack, self.snd_una)
            self.rtt.on_new_ack()
            # RTT sample (Karn: probe cleared on any retransmission).
            if self._rtt_probe and seq_ge(ack, self._rtt_probe[0]):
                self.rtt.sample(self.sim.now - self._rtt_probe[1])
                self._rtt_probe = None
            if self.cc.in_recovery:
                if seq_ge(ack, self.cc.recovery_point):
                    self.cc.exit_recovery()
                else:
                    self.cc.on_recovery_ack()
                    if self.sack_ok:
                        self._sack_retransmit_next()
            else:
                self.cc.on_ack_of_new_data(acked, self.flight_size)
            self._ack_advance(ack)
            if self._retx:
                self._rto_timer.start(self.rtt.current_rto())
            else:
                self._rto_timer.cancel()

        self._update_send_window(hdr)

    def _ack_advance(self, ack: int) -> None:
        self.snd_una = ack
        completed: List[int] = []
        freed = 0
        while self._retx and seq_le(self._retx[0].end, ack):
            chunk = self._retx.popleft()
            freed += chunk.payload.length
            if chunk.msg_id is not None:
                completed.append(chunk.msg_id)
            if chunk.fin:
                self._our_fin_acked()
            if chunk.syn and self.state is TcpState.SYN_RCVD:
                self.state = TcpState.ESTABLISHED
                self.ctx.on_established(self)
        # Partial ack of the head chunk (stream mode): trim delivered bytes.
        if self._retx and seq_lt(self._retx[0].seq, ack):
            chunk = self._retx[0]
            cut = seq_sub(ack, chunk.seq)
            if 0 < cut <= chunk.payload.length:
                chunk.payload = chunk.payload.slice(cut, chunk.payload.length - cut)
                chunk.seq = ack
                freed += cut
        for msg_id in completed:
            self.ctx.on_send_complete(self, msg_id)
        if freed and not self.config.message_mode:
            self.ctx.on_send_buffer_space(self)

    def _update_send_window(self, hdr: TCPHeader, force: bool = False) -> None:
        wnd = hdr.window << self.snd_wscale
        if force or seq_lt(self.snd_wl1, hdr.seq) or (
                self.snd_wl1 == hdr.seq and seq_le(self.snd_wl2, hdr.ack)):
            old = self.snd_wnd
            self.snd_wnd = wnd
            self.snd_wl1 = hdr.seq
            self.snd_wl2 = hdr.ack
            if old == 0 and wnd > 0:
                self._persist_timer.cancel()

    def _fast_retransmit(self) -> None:
        if not self._retx:
            return
        self.stats.fast_retransmits += 1
        rec = obs.RECORDER
        if rec is not None:
            rec.event("tcp", "tcp.fast_retransmit", track="tcp",
                      port=self.tuple.local.port)
            rec.metrics.counter("tcp.fast_retransmits").add()
        self._rtt_probe = None
        self.output_queue.append(
            SegDescriptor("data", chunk=self._retx[0], retransmit=True))
        self.ctx.output_ready(self)
        self._rto_timer.start(self.rtt.current_rto())

    def _our_fin_acked(self) -> None:
        if self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif self.state is TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state is TcpState.LAST_ACK:
            self._teardown(notify_closed=True)

    # -- data & FIN ----------------------------------------------------------

    def _process_data(self, hdr: TCPHeader, payload: Payload) -> None:
        seg_seq = hdr.seq
        data = payload
        # Trim anything already received.
        if seq_lt(seg_seq, self.rcv_nxt):
            skip = seq_sub(self.rcv_nxt, seg_seq)
            if skip >= data.length:
                self.stats.duplicate_data_segs += 1
                self._request_ack(immediate=True)
                return
            data = data.slice(skip, data.length - skip)
            seg_seq = self.rcv_nxt
            self.stats.duplicate_data_segs += 1

        if seg_seq != self.rcv_nxt:
            self.stats.ooo_segments += 1
            if self.config.reassembly:
                self._reasm_insert(seg_seq, data, bool(hdr.flags & FIN))
                self.stats.ooo_queued += 1
            else:
                self.stats.ooo_dropped += 1
            self._request_ack(immediate=True)  # dup ACK -> fast retransmit
            return

        self._accept_data(data, bool(hdr.flags & PSH))
        fin_seen = self._reasm_drain()
        if fin_seen:
            # FIN was queued out of order and is now in sequence.
            self._fin_advance()
            return
        self._request_ack(immediate=bool(hdr.flags & FIN))

    def _accept_data(self, data: Payload, psh: bool) -> None:
        self.rcv_nxt = seq_add(self.rcv_nxt, data.length)
        self.stats.bytes_in += data.length
        if not self._credit_mode:
            self._rcv_buffered += data.length
        self.ctx.deliver(self, data, psh)

    def _sack_blocks(self):
        """Merge the out-of-order queue into up to 3 SACK blocks
        (most recently received data would come first in a full stack;
        we report in sequence order, which peers accept)."""
        blocks = []
        for seq, data, _fin in self._reasm:
            end = seq_add(seq, data.length)
            if blocks and blocks[-1][1] == seq:
                blocks[-1] = (blocks[-1][0], end)
            else:
                blocks.append((seq, end))
        return blocks[:3]

    def _apply_sack(self, blocks) -> None:
        """Mark retransmission-queue chunks covered by SACK blocks."""
        for chunk in self._retx:
            if chunk.sacked or chunk.seq_len == 0:
                continue
            for left, right in blocks:
                if seq_ge(chunk.seq, left) and seq_le(chunk.end, right):
                    chunk.sacked = True
                    break

    def _sack_retransmit_next(self) -> bool:
        """Queue the first *lost* hole for retransmission.

        A chunk counts as lost (RFC 6675 IsLost, simplified) only when
        data after it has been SACKed — merely-in-flight data must not
        be retransmitted speculatively.
        """
        any_sacked_after = False
        for chunk in reversed(self._retx):
            if chunk.sacked:
                any_sacked_after = True
                chunk._lost_hint = any_sacked_after
            else:
                chunk._lost_hint = any_sacked_after
        for chunk in self._retx:
            if chunk.sacked or not getattr(chunk, "_lost_hint", False):
                continue
            if chunk.retransmits > 0:
                # Already refilled once this recovery; a re-loss is the
                # RTO's problem (conservative RFC 2018 behaviour).
                continue
            already = any(d.kind == "data" and d.chunk is chunk
                          and d.retransmit for d in self.output_queue)
            if already:
                return False
            self.stats.sack_retransmits += 1
            self.output_queue.append(
                SegDescriptor("data", chunk=chunk, retransmit=True))
            self.ctx.output_ready(self)
            return True
        return False

    def _reasm_insert(self, seq: int, data: Payload, fin: bool) -> None:
        """Insert into the out-of-order queue (extension feature)."""
        self._reasm.append((seq, data, fin))
        self._reasm.sort(key=lambda item: seq_sub(item[0], self.rcv_nxt))

    def _reasm_drain(self) -> bool:
        """Deliver any queued segments now in order; True if FIN reached."""
        fin_reached = False
        while self._reasm:
            seq, data, fin = self._reasm[0]
            if seq_gt(seq, self.rcv_nxt):
                break
            self._reasm.pop(0)
            if seq_lt(seq, self.rcv_nxt):
                skip = seq_sub(self.rcv_nxt, seq)
                if skip >= data.length:
                    if fin:
                        fin_reached = True
                    continue
                data = data.slice(skip, data.length - skip)
            self._accept_data(data, psh=True)
            if fin:
                fin_reached = True
        return fin_reached

    def _process_fin(self, hdr: TCPHeader, payload: Payload) -> None:
        fin_seq = seq_add(hdr.seq, payload.length)
        if fin_seq != self.rcv_nxt:
            if self.config.reassembly and seq_gt(fin_seq, self.rcv_nxt):
                return  # already queued with its data
            self._request_ack(immediate=True)
            return
        self._fin_advance()

    def _fin_advance(self) -> None:
        self.rcv_nxt = seq_add(self.rcv_nxt, 1)
        self._request_ack(immediate=True)
        if self.state in (TcpState.ESTABLISHED, TcpState.SYN_RCVD):
            self.state = TcpState.CLOSE_WAIT
            self.ctx.on_remote_fin(self)
        elif self.state is TcpState.FIN_WAIT_1:
            # Our FIN unacked yet: simultaneous close.
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()
        elif self.state is TcpState.TIME_WAIT:
            self._time_wait_timer.start(2 * self.config.msl)

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self._rto_timer.cancel()
        self._persist_timer.cancel()
        self._time_wait_timer.start(2 * self.config.msl)

    def __repr__(self):
        return f"<TcpConnection {self.tuple} {self.state.value}>"
