"""NIC-offloaded collective engine: firmware-resident state machines.

The host doorbells **once** per collective operation; the firmware DMAs
the vector into NIC SRAM, runs the ring schedule entirely on the
interface — forwarding and combining incoming frames as they arrive —
and posts a **single CQE** when the operation completes.  Contrast with
the host engine (:mod:`repro.collectives.host`) where every schedule
step costs a host-side post, doorbell, CQE and wakeup.

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
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from .. import obs
from ..errors import ConnectionReset, DmaError, VerbsError
from ..mem import SGE, Access
from ..net.addresses import Endpoint, IPv6Address
from ..net.packet import BytesPayload
from ..core.firmware import (RDMA_WINDOW_CREDIT, FwEndpoint, QpipFirmware)
from ..core.wr import Completion, WROpcode, WRStatus
from ..hw.stages import COLL_COMBINE, COLL_FRAME, COLL_GET_WR
from . import frames
from .group import (ELEM, CollectiveStats, ag_recv_chunk, ag_send_chunk,
                    chunk_bounds, combine_into, pack_vector, rs_recv_chunk,
                    rs_send_chunk, unpack_vector)

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
        # allreduce schedule cursors
        self.acc: List[float] = []
        self._bounds: List[Tuple[int, int]] = []
        self.send_idx = 0
        self.recv_idx = 0
        self.recv_got = 0
        self.rts_sent = False
        self.cts_granted = False
        self.bcast_received = 0
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
        world, rank = self.config.world, self.config.rank
        if op.algo == "allreduce":
            yield from self._start_allreduce(op)
        elif op.algo == "broadcast":
            yield from self._start_broadcast(op)
        else:   # barrier
            if world == 1:
                yield from self._complete()
                return
            self._begin_span("collective.barrier")
            if rank == 0:
                self._queue_token(0)
            yield from self._drain_stash()

    def _start_allreduce(self, op: CollOp):
        world, rank = self.config.world, self.config.rank
        if op.nelems:
            yield from self._dma_vector_in(op)
            if self.op is None:     # DMA/protection failure ended the op
                return
        else:
            self.acc = []
        if world == 1 or op.nelems == 0:
            # Degenerate: the reduction is this rank's own contribution
            # (or empty).  No wire traffic.
            yield from self._complete()
            return
        self._bounds = chunk_bounds(op.nelems, world)
        self.send_idx = self.recv_idx = self.recv_got = 0
        self.rts_sent = self.cts_granted = False
        self._begin_span("collective.reduce_scatter")
        self._pump_allreduce()
        yield from self._drain_stash()
        if self._allreduce_done():
            yield from self._complete()

    def _start_broadcast(self, op: CollOp):
        world, rank = self.config.world, self.config.rank
        if op.nelems == 0 or world == 1:
            yield from self._complete()
            return
        self._begin_span("collective.broadcast")
        if rank == op.root:
            yield from self._dma_vector_in(op)
            if self.op is None:
                return
            frames_out = self._data_frames(0, 0, 0, op.nelems)
            for i, data in enumerate(frames_out):
                last = i == len(frames_out) - 1
                self._queue_frame(self.out_ep, data, "broadcast", notify=last)
                self.stats.steps += 1
        else:
            self.acc = [0.0] * op.nelems
            self.bcast_received = 0
            yield from self._drain_stash()

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
        op = self.op
        algo_code = frames.ALGO_CODES[op.algo]
        if hdr.algo != algo_code:
            self._fail(WRStatus.REMOTE_ABORTED)
            return
        if hdr.kind == frames.KIND_TOKEN:
            yield from self._on_token(hdr)
        elif hdr.kind == frames.KIND_RTS:
            # Grant immediately on the reverse path: the combine engine
            # consumes at line rate, admission is only a staging handshake.
            self._queue_frame(self.in_ep, frames.encode_frame(
                frames.KIND_CTS, hdr.algo, hdr.phase, hdr.group, hdr.seq,
                hdr.step, hdr.offset, hdr.count), "rendezvous")
        elif hdr.kind == frames.KIND_CTS:
            self.cts_granted = True
            self._pump_allreduce()
            if self._allreduce_done():
                yield from self._complete()
        elif op.algo == "allreduce":
            yield from self._on_data_allreduce(hdr, body)
        else:
            yield from self._on_data_broadcast(hdr, body)

    def _on_data_allreduce(self, hdr: frames.FrameHeader, body: bytes):
        world = self.config.world
        if body:
            yield self._combine(body)
        values = unpack_vector(body)
        if self.recv_idx < world - 1:
            combine_into(self.acc, hdr.offset, values)
        else:
            self.acc[hdr.offset:hdr.offset + len(values)] = values
        self.recv_got += hdr.count
        _off, expected = self._recv_chunk()
        if self.recv_got >= expected:
            self.recv_got = 0
            self._finish_recv_step()
        self._pump_allreduce()
        if self._allreduce_done():
            yield from self._complete()

    def _on_data_broadcast(self, hdr: frames.FrameHeader, body: bytes):
        op = self.op
        if body:
            yield self._combine(body)
        values = unpack_vector(body)
        self.acc[hdr.offset:hdr.offset + len(values)] = values
        self.bcast_received += hdr.count
        self.stats.steps += 1
        right = (self.config.rank + 1) % self.config.world
        if right != op.root:
            self._queue_frame(self.out_ep, frames.encode_frame(
                frames.KIND_DATA, hdr.algo, hdr.phase, hdr.group, hdr.seq,
                hdr.step, hdr.offset, hdr.count, body), "broadcast")
        if self.bcast_received >= op.nelems:
            yield from self._complete()

    def _combine(self, body: bytes):
        """The firmware combine loop over one frame body (a core wait)."""
        per_byte = self.nic.timing.coll_combine_per_byte
        return self.nic.run(self.nic.span(
            COLL_COMBINE.sized(per_byte * len(body))))

    def _on_token(self, hdr: frames.FrameHeader):
        rank = self.config.rank
        if rank == 0:
            if hdr.step == 0:
                self._queue_token(1)
            else:
                yield from self._complete()
        else:
            self._queue_token(hdr.step)
            if hdr.step == 1:
                yield from self._complete()

    # -- allreduce schedule -------------------------------------------------

    def _chunk_at(self, idx: int, recv: bool) -> Tuple[int, int]:
        world, rank = self.config.world, self.config.rank
        if idx < world - 1:
            chunk = (rs_recv_chunk if recv else rs_send_chunk)(
                rank, world, idx)
        else:
            chunk = (ag_recv_chunk if recv else ag_send_chunk)(
                rank, world, idx - (world - 1))
        return self._bounds[chunk]

    def _recv_chunk(self) -> Tuple[int, int]:
        return self._chunk_at(self.recv_idx, recv=True)

    def _finish_recv_step(self) -> None:
        self.recv_idx += 1
        self.stats.steps += 1
        if self.recv_idx == self.config.world - 1:
            self._end_span("collective.reduce_scatter")
            self._begin_span("collective.allgather")

    def _pump_allreduce(self) -> None:
        world = self.config.world
        total = 2 * (world - 1)
        progressed = True
        while progressed:
            progressed = False
            if self.recv_idx < total:
                _off, cnt = self._recv_chunk()
                if cnt == 0:
                    self._finish_recv_step()
                    progressed = True
                    continue
            if self.send_idx < total and (
                    self.send_idx == 0 or self.recv_idx >= self.send_idx):
                off, cnt = self._chunk_at(self.send_idx, recv=False)
                if cnt == 0:
                    self._advance_send()
                    progressed = True
                elif (cnt * ELEM > self.config.eager_threshold
                        and not self.cts_granted):
                    if not self.rts_sent:
                        self._queue_frame(self.out_ep, frames.encode_frame(
                            frames.KIND_RTS,
                            frames.ALGO_CODES["allreduce"],
                            self._send_phase(), self.config.group,
                            self.op.seq, self.send_idx, off, cnt),
                            "rendezvous")
                        self.rts_sent = True
                else:
                    phase_name = frames.PHASE_NAMES[self._send_phase()]
                    for data in self._data_frames(
                            self._send_phase(), self.send_idx, off, cnt):
                        self._queue_frame(self.out_ep, data, phase_name)
                    self._advance_send()
                    progressed = True

    def _send_phase(self) -> int:
        return (frames.PHASE_REDUCE_SCATTER
                if self.send_idx < self.config.world - 1
                else frames.PHASE_ALLGATHER)

    def _advance_send(self) -> None:
        self.send_idx += 1
        self.rts_sent = False
        self.cts_granted = False

    def _allreduce_done(self) -> bool:
        total = 2 * (self.config.world - 1)
        return (self.op is not None and self.op.algo == "allreduce"
                and self.recv_idx >= total and self.send_idx >= total)

    def _data_frames(self, phase: int, step: int, offset: int,
                     count: int) -> List[bytes]:
        """Fragment ``count`` elements at ``offset`` into DATA frames."""
        op = self.op
        out: List[bytes] = []
        done = 0
        while done < count:
            n = min(self._frame_elems, count - done)
            off = offset + done
            out.append(frames.encode_frame(
                frames.KIND_DATA, frames.ALGO_CODES[op.algo], phase,
                self.config.group, op.seq, step, off, n,
                pack_vector(self.acc[off:off + n])))
            done += n
        return out

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

    def _queue_token(self, round_: int) -> None:
        self._queue_frame(self.out_ep, frames.encode_frame(
            frames.KIND_TOKEN, frames.ALGO_CODES["barrier"], 0,
            self.config.group, self.op.seq, round_, 0, 0), "barrier")
        self.stats.steps += 1

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
            yield from self._complete()

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
        if op.algo == "allreduce" and self.config.world > 1 and op.nelems:
            self._end_span("collective.allgather")
        elif op.algo == "broadcast" and self.config.world > 1 and op.nelems:
            self._end_span("collective.broadcast")
        elif op.algo == "barrier" and self.config.world > 1:
            self._end_span("collective.barrier")
        rec = obs.RECORDER
        if rec is not None:
            if op.algo == "barrier":
                rec.event("coll", "collective.barrier_release",
                          track=self._track(), group=self.config.group,
                          seq=op.seq, rank=self.config.rank)
            rec.metrics.counter("coll.ops_completed").add()
        self.stats.wall_time_us += self.sim.now - self._op_started
        self.op = None
        self.acc = [] if op.algo == "barrier" else self.acc
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
