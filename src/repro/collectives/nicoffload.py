"""NIC-offloaded collective engine: firmware-resident state machines.

The host doorbells **once** per collective operation; the firmware DMAs
the vector into NIC SRAM, runs the schedule entirely on the interface —
forwarding and combining incoming frames as they arrive — and posts a
**single CQE** when the operation completes.  Contrast with the host
engine (:mod:`repro.collectives.host`) where every schedule step costs
a host-side post, doorbell, CQE and wakeup.

Both engines interpret the same step table
(:func:`repro.collectives.schedule.schedule`, ring variant here).
:meth:`CollectiveUnit._pump` is this engine's whole interpreter: two
cursors, the next step to send and the next step to receive, each held
as its index and its :class:`~repro.collectives.schedule.Step`; step ``i``
goes out once step ``i-1``'s receive is complete, and every DATA or
TOKEN frame must be the next piece of the step being received — any
other ``(step, offset, count)`` fails the op with ``REMOTE_ABORTED`` and
aborts the ring, so the neighbours fail the same way.

Transport: each ring neighbor pair is joined by a firmware-internal TCP
connection (the same on-NIC stack QPs use), so retransmission heals
drops and the collective result stays exact under fault injection —
that property is pinned by gate scenarios.  Frames above the group's
``eager_threshold`` go rendezvous: an RTS/CTS exchange on the same
connection pair (the CTS rides the reverse direction) models SRAM
staging admission and costs one extra round trip per step.

Determinism: every charge goes through ``nic.run`` — the rows
``coll_get_wr``, ``coll_frame`` and ``coll_combine`` of the stage table
(:mod:`repro.hw.stages`) — or DMA events, whose product and stepwise
reference paths agree on timestamps and tie order, so NIC-offloaded
results are bit-identical under ``tests/reference_paths.py`` and across
cluster shardings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from .. import obs
from ..errors import ConnectionReset, DmaError
from ..mem import SGE, Access
from ..net.addresses import Endpoint, IPv6Address
from ..net.packet import BytesPayload
from ..core.firmware import (RDMA_WINDOW_CREDIT, FwEndpoint, QpipFirmware)
from ..core.wr import Completion, WROpcode, WRStatus
from ..hw.stages import COLL_COMBINE, COLL_FRAME, COLL_GET_WR
from . import frames
from .group import (ELEM, CollectiveStats, combine_into, pack_vector,
                    unpack_vector)
from .schedule import Schedule, Step, schedule

# Collective CQEs carry a synthetic qp_num so they can never collide
# with real QP numbers in application-side bookkeeping.
COLL_QPN_BASE = 1_000_000

# How long after group creation the outbound ring connection SYNs.  All
# ranks install their listeners within the first few mgmt commands, so
# a generous fixed delay guarantees no SYN races a missing listener.
CONNECT_DELAY_US = 30_000.0


@dataclass
class CollGroupConfig:
    """Everything the firmware needs to join a collective ring."""

    group: int
    rank: int
    world: int
    right_addr: Optional[IPv6Address]    # None when world == 1
    port: int
    eager_threshold: int
    cq: object                           # CompletionQueue for the single CQE
    connect_delay_us: float = CONNECT_DELAY_US


@dataclass
class CollOp:
    """One posted collective operation (the host-side descriptor)."""

    wr_id: int
    algo: str
    seq: int
    root: int
    nelems: int
    sge: Optional[SGE] = None


class CollectiveUnit:
    """Per-group firmware state machine (one instance per NIC per group)."""

    def __init__(self, fw: QpipFirmware, config: CollGroupConfig, done):
        self.fw = fw
        self.nic = fw.nic
        self.sim = fw.sim
        self.config = config
        self.done = done
        self.stats = CollectiveStats()
        self.host_ring: Deque[CollOp] = deque()
        self.posted_seq = 0
        self.out_ep: Optional[FwEndpoint] = None
        self.in_ep: Optional[FwEndpoint] = None
        self.out_established = False
        self.ready = False
        self.failed: Optional[WRStatus] = None
        self.start_wanted = False
        self.op: Optional[CollOp] = None
        self._op_started = 0.0
        self._pending: Dict[FwEndpoint, Deque[Tuple[bytes, str, bool]]] = {}
        self._stash: List[Tuple[frames.FrameHeader, bytes]] = []
        self._frame_elems = frames.max_frame_elems(self.nic.mtu)
        self._get_wr_span = self.nic.span(COLL_GET_WR)
        self._frame_span = self.nic.span(COLL_FRAME)
        # schedule cursors: next step to send, next step to receive (each
        # as index and Step, None past the end; a cursor reaching the
        # other's index takes its Step), and elements of that receive
        # taken so far
        self.acc: List[float] = []
        self._steps = Schedule(config.rank, config.world, 0)
        self._total = 0
        self.send_idx = 0
        self.recv_idx = 0
        self._send_step: Optional[Step] = None
        self._recv_step: Optional[Step] = None
        self.recv_got = 0
        self.rts_sent = False
        self.cts_granted = False
        if config.world <= 1:
            self.ready = True
            fw._notify_host(done, config.group)
        else:
            self._listener = fw.stack.tcp.listen(
                Endpoint(fw.addr, config.port), fw._conn_config(),
                self._ctx_factory)
            self.sim.call_later(config.connect_delay_us, self._connect_out)

    # -- ring setup ---------------------------------------------------------

    def _ctx_factory(self) -> FwEndpoint:
        ep = FwEndpoint(self.fw, qp=None)
        ep.coll_unit = self
        return ep

    def _connect_out(self) -> None:
        ep = FwEndpoint(self.fw, qp=None)
        ep.coll_unit = self
        local = Endpoint(self.fw.addr, self.fw.stack.tcp.ephemeral_port())
        remote = Endpoint(self.config.right_addr, self.config.port)
        ep.conn = self.fw.stack.tcp.connect(
            local, remote, self.fw._conn_config(), ep)
        ep.conn.enable_credit_window(RDMA_WINDOW_CREDIT)
        self.out_ep = ep

    def on_established(self, ep: FwEndpoint) -> None:
        if ep is self.out_ep:
            self.out_established = True
        else:
            self.in_ep = ep
        if self.out_established and self.in_ep is not None and not self.ready:
            self.ready = True
            self.fw._notify_host(self.done, self.config.group)
            if self.start_wanted or self.host_ring:
                self.start_wanted = False
                self.fw._push_action(("coll_start", self))

    def on_closed(self, ep: FwEndpoint, exc: Optional[Exception]) -> None:
        if not self.ready and not self.done.triggered:
            self.done.fail(exc or ConnectionReset(
                f"collective group {self.config.group}: ring setup failed"))
            self.failed = WRStatus.REMOTE_ABORTED
            return
        if self.failed is None:
            self._fail(WRStatus.REMOTE_ABORTED)

    # -- host-facing surface (used by verbs) --------------------------------

    def alloc_seq(self) -> int:
        seq, self.posted_seq = self.posted_seq, self.posted_seq + 1
        return seq

    # -- op lifecycle -------------------------------------------------------

    def start_next(self):
        """Doorbell service: begin the next posted op (action handler)."""
        if self.op is not None or not self.host_ring:
            return
        if self.failed is not None:
            while self.host_ring:
                op = self.host_ring.popleft()
                self._post_op_cqe(op, WRStatus.FLUSHED)
            return
        if not self.ready:
            self.start_wanted = True
            return
        op = self.host_ring.popleft()
        self.op = op
        self._op_started = self.sim.now
        yield self.nic.run(self._get_wr_span)
        rec = obs.RECORDER
        if rec is not None:
            rec.event("coll", "coll.start", track=self._track(),
                      group=self.config.group, seq=op.seq, algo=op.algo,
                      rank=self.config.rank, nelems=op.nelems)
            rec.metrics.counter("coll.ops_started").add()
        rank = self.config.rank
        self._steps = schedule(op.algo, "ring", self.config.world, rank,
                               op.nelems, op.root)
        self._total = len(self._steps)
        self.send_idx = self.recv_idx = self.recv_got = 0
        self._send_step = self._recv_step = self._step_at(0)
        self.rts_sent = self.cts_granted = False
        # Allreduce ranks and the broadcast root feed in their vector.
        if op.nelems and (op.algo == "allreduce" or (
                op.algo == "broadcast" and rank == op.root and self._steps)):
            yield from self._dma_vector_in(op)
            if self.op is None:     # DMA/protection failure ended the op
                return
        else:
            self.acc = [0.0] * op.nelems
        if not self._steps:
            # Degenerate: one rank or an empty vector.  No wire traffic.
            yield from self._complete()
            return
        self._begin_span(f"collective.{self._steps[0].phase}")
        self._pump()
        yield from self._drain_stash()
        if self._done():
            yield from self._complete()

    # -- receive path -------------------------------------------------------

    def on_deliver(self, ep: FwEndpoint, payload):
        yield self.nic.run(self._frame_span)
        if ep.conn is not None:
            ep.conn.set_receive_credit(RDMA_WINDOW_CREDIT)
        try:
            hdr, body = frames.decode_frame(payload.to_bytes())
        except Exception:
            self._fail(WRStatus.REMOTE_ABORTED)
            return
        if hdr.group != self.config.group:
            self._fail(WRStatus.REMOTE_ABORTED)
            return
        if self.op is None or hdr.seq != (self.op.seq & 0xFFFF):
            self._stash.append((hdr, bytes(body)))
            return
        yield from self._handle_frame(hdr, bytes(body))

    def _drain_stash(self):
        while self.op is not None and self._stash:
            seq = self.op.seq & 0xFFFF
            if self._stash[0][0].seq != seq:
                break
            hdr, body = self._stash.pop(0)
            yield from self._handle_frame(hdr, body)

    def _handle_frame(self, hdr: frames.FrameHeader, body: bytes):
        if hdr.algo != frames.ALGO_CODES[self.op.algo]:
            self._fail(WRStatus.REMOTE_ABORTED)
            return
        if hdr.kind == frames.KIND_RTS:
            # Grant immediately on the reverse path: the combine engine
            # consumes at line rate, admission is only a staging handshake.
            self._queue_frame(self.in_ep, frames.encode_frame(
                frames.KIND_CTS, hdr.algo, hdr.phase, hdr.group, hdr.seq,
                hdr.step, hdr.offset, hdr.count), "rendezvous")
        elif hdr.kind == frames.KIND_CTS:
            self.cts_granted = True
            yield from self._advance()
        else:
            yield from self._on_arrival(hdr, body)

    def _on_arrival(self, hdr: frames.FrameHeader, body: bytes):
        """A DATA or TOKEN frame: it must be the next piece of the step
        being received, else the op fails (and aborts the ring)."""
        step = self._recv_step
        if (step is None or step.recv is None
                or not frames.is_next_piece(hdr, step, self.recv_idx,
                                            self.recv_got)):
            self._fail(WRStatus.REMOTE_ABORTED)
            return
        if body:
            yield self._combine(body)
            values = unpack_vector(body)
            if step.op == "combine":
                combine_into(self.acc, hdr.offset, values)
            else:
                self.acc[hdr.offset:hdr.offset + hdr.count] = values
        self.recv_got += hdr.count
        if step.op == "forward":
            self.stats.steps += 1
        if step.send is None and step.send_to is not None:
            self._queue_frame(self.out_ep, frames.encode_frame(
                hdr.kind, hdr.algo, hdr.phase, hdr.group, hdr.seq,
                hdr.step, hdr.offset, hdr.count, body), step.phase)
        if self.recv_got >= step.recv[1]:
            self.recv_got = 0
            self._finish_recv_step()
        yield from self._advance()

    def _combine(self, body: bytes):
        """The firmware combine loop over one frame body (a core wait)."""
        per_byte = self.nic.timing.coll_combine_per_byte
        return self.nic.run(self.nic.span(
            COLL_COMBINE.sized(per_byte * len(body))))

    # -- schedule pump ------------------------------------------------------

    def _advance(self):
        self._pump()
        if self._done():
            yield from self._complete()

    def _done(self) -> bool:
        return (self.op is not None and self.recv_idx >= self._total
                and self.send_idx >= self._total)

    def _step_at(self, idx: int) -> Optional[Step]:
        return self._steps[idx] if idx < self._total else None

    def _finish_recv_step(self) -> None:
        step = self._recv_step
        self.recv_idx += 1
        nxt = self._recv_step = (self._send_step
                                 if self.recv_idx == self.send_idx
                                 else self._step_at(self.recv_idx))
        if step.op != "forward":
            self.stats.steps += 1
        if nxt is not None and nxt.phase != step.phase:
            self._end_span(f"collective.{step.phase}")
            self._begin_span(f"collective.{nxt.phase}")

    def _pump(self) -> None:
        """Move both cursors as far as the schedule allows: empty
        receives finish at once; step ``i`` originates its range once
        step ``i-1``'s receive is complete (a relaying step, once its own
        receive is), above ``eager_threshold`` only after RTS/CTS."""
        progressed = True
        while progressed:
            progressed = False
            step = self._recv_step
            if (step is not None and step.op != "token"
                    and step.recv is not None and step.recv[1] == 0):
                self._finish_recv_step()
                progressed = True
                continue
            i = self.send_idx
            if i >= self._total or (i and self.recv_idx < i):
                continue
            step = self._send_step
            if step.send is None:
                if self.recv_idx > i:      # relayed on arrival
                    self._advance_send()
                    progressed = True
                continue
            off, cnt = step.send
            algo = frames.ALGO_CODES[self.op.algo]
            if (step.op != "forward" and cnt * ELEM
                    > self.config.eager_threshold and not self.cts_granted):
                if not self.rts_sent:
                    self._queue_frame(self.out_ep, frames.encode_frame(
                        frames.KIND_RTS, algo, frames.PHASE_CODES[step.phase],
                        self.config.group, self.op.seq, i, off, cnt),
                        "rendezvous")
                    self.rts_sent = True
                continue
            out = frames.step_frames(step, i, self.acc, self._frame_elems,
                                     algo, self.config.group, self.op.seq)
            for j, data in enumerate(out):
                # A send-only step is over when its last frame leaves.
                self._queue_frame(self.out_ep, data, step.phase,
                                  notify=step.recv is None
                                  and j == len(out) - 1)
                if step.op == "forward":
                    self.stats.steps += 1
            self._advance_send()
            progressed = True

    def _advance_send(self) -> None:
        self.send_idx += 1
        self._send_step = (self._recv_step if self.send_idx == self.recv_idx
                           else self._step_at(self.send_idx))
        self.rts_sent = False
        self.cts_granted = False

    # -- transmit side ------------------------------------------------------

    def _queue_frame(self, ep: Optional[FwEndpoint], data: bytes,
                     phase: str, notify: bool = False) -> None:
        if ep is None:
            self._fail(WRStatus.REMOTE_ABORTED)
            return
        self._pending.setdefault(ep, deque()).append((data, phase, notify))
        # Accounted at SRAM handoff, not at wire fetch: a frame queued in
        # the same handler that completes the op must still show in the
        # stats snapshot the completing CQE triggers.
        self.stats.add_phase_bytes(phase, len(data))
        self.fw._queue_tx(ep)

    def has_pending(self, ep: FwEndpoint) -> bool:
        return bool(self._pending.get(ep))

    def fetch_next(self, ep: FwEndpoint):
        """Transmit-FSM service: hand one queued frame to the connection."""
        yield self.nic.run(self._frame_span)
        q = self._pending.get(ep)
        if not q or ep.conn is None:
            return
        data, _phase, notify = q.popleft()
        msg_id = next(ep._msg_ids)
        try:
            ep.conn.send_message(BytesPayload(data), msg_id=msg_id)
        except ConnectionReset:
            self._fail(WRStatus.REMOTE_ABORTED)
            return
        # ACK bookkeeping is charged via "send_done"; no CQE (wr=None).
        ep.msg_map[msg_id] = None
        if notify and self.op is not None:
            self._finish_recv_step()
            yield from self._advance()

    # -- completion / failure ----------------------------------------------

    def _dma_vector_in(self, op: CollOp):
        t = self.nic.timing
        nbytes = op.nelems * ELEM
        sge = op.sge
        if sge is None or sge.length < nbytes:
            self._fail(WRStatus.LOCAL_LENGTH_ERROR)
            return
        try:
            region = self.fw.translation.check(sge.lkey, sge.addr, nbytes,
                                               Access.LOCAL_READ)
        except Exception:
            self._fail(WRStatus.LOCAL_PROTECTION_ERROR)
            return
        try:
            dma = self.nic.dma_from_host(nbytes)
        except DmaError:
            self._fail(WRStatus.LOCAL_DMA_ERROR)
            return
        if not t.overlap_dma:
            yield dma
        self.acc = unpack_vector(region.aspace.read(sge.addr, nbytes))

    def _complete(self):
        t = self.nic.timing
        op = self.op
        if op is None:
            return
        writes_back = (op.algo == "allreduce"
                       or (op.algo == "broadcast"
                           and self.config.rank != op.root))
        if writes_back and op.sge is not None and op.nelems:
            data = pack_vector(self.acc)
            try:
                region = self.fw.translation.check(
                    op.sge.lkey, op.sge.addr, len(data), Access.LOCAL_WRITE)
            except Exception:
                self._fail(WRStatus.LOCAL_PROTECTION_ERROR)
                return
            try:
                dma = self.nic.dma_to_host(len(data))
            except DmaError:
                self._fail(WRStatus.LOCAL_DMA_ERROR)
                return
            if not t.overlap_dma:
                yield dma
            region.aspace.write(op.sge.addr, data)
        if self._steps:
            self._end_span(f"collective.{self._steps[-1].phase}")
        rec = obs.RECORDER
        if rec is not None:
            if op.algo == "barrier":
                rec.event("coll", "collective.barrier_release",
                          track=self._track(), group=self.config.group,
                          seq=op.seq, rank=self.config.rank)
            rec.metrics.counter("coll.ops_completed").add()
        self.stats.wall_time_us += self.sim.now - self._op_started
        self.op = None
        self._post_op_cqe(op, WRStatus.SUCCESS)
        if self.host_ring:
            self.fw._push_action(("coll_start", self))

    def _post_op_cqe(self, op: CollOp, status: WRStatus) -> None:
        self.fw._post_cqe(self.config.cq, Completion(
            op.wr_id, COLL_QPN_BASE + self.config.group, WROpcode.COLLECTIVE,
            status=status, byte_len=op.nelems * ELEM if status is
            WRStatus.SUCCESS else 0))

    def _fail(self, status: WRStatus) -> None:
        """Fail the active op (and everything queued behind it) loudly."""
        if self.failed is not None:
            return
        self.failed = status
        rec = obs.RECORDER
        if rec is not None:
            rec.event("coll", "coll.failed", track=self._track(),
                      group=self.config.group, status=status.name)
            rec.metrics.counter("coll.failures").add()
        if self.op is not None:
            op, self.op = self.op, None
            self._post_op_cqe(op, status)
        while self.host_ring:
            self._post_op_cqe(self.host_ring.popleft(), WRStatus.FLUSHED)
        for ep in (self.in_ep, self.out_ep):
            if ep is not None and ep.conn is not None:
                ep.conn.abort()

    # -- observability ------------------------------------------------------

    def _track(self) -> str:
        return f"{self.nic.attachment.name}.coll"

    def _span_key(self, name: str):
        return ("coll", self.nic.name, self.config.group,
                self.op.seq if self.op else -1, name)

    def _begin_span(self, name: str) -> None:
        rec = obs.RECORDER
        if rec is not None:
            rec.begin("coll", name, self._span_key(name), track=self._track(),
                      group=self.config.group, rank=self.config.rank,
                      seq=self.op.seq, algo=self.op.algo)

    def _end_span(self, name: str) -> None:
        rec = obs.RECORDER
        if rec is not None:
            rec.end(self._span_key(name))
