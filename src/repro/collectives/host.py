"""Host-level collective engine: the schedule runs in the application.

Every frame of every schedule step costs the full verbs round trip —
build WR, post, doorbell, firmware send, remote CQE, host wakeup.  That
per-step host overhead is exactly what the NIC-offloaded engine
(:mod:`repro.collectives.nicoffload`) eliminates, so comparing the two
engines on the same fabric isolates the offload benefit.

Both engines interpret the same step table
(:func:`repro.collectives.schedule.schedule`), speak the same wire
framing (:mod:`repro.collectives.frames`) and share the one
accumulation rule (:func:`repro.collectives.group.combine_into`), so
for the same seed and vector their numerical results are
bit-identical.  :meth:`HostCollectiveMember._execute` is the whole
interpreter: per step, send the originated range, then receive the
expected one frame by frame — combining, copying, or relaying it.  A
frame outside the expected range raises :class:`ReproError` naming the
rank and step, and the member aborts its links so its neighbours fail
rather than hang.

The wiring depends on the variant: the **ring** joins each rank to its
two neighbours by one QP per direction; **recursive doubling**
(power-of-two worlds) opens one QP per round's partner.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Generator, List, Optional, Sequence

from .. import obs
from ..core import QPTransport, WROpcode
from ..errors import ReproError
from ..net.addresses import Endpoint
from . import frames
from .group import (ELEM, CollectiveStats, CollectiveWorkSpec, combine_into,
                    initial_vector, unpack_vector)
from .schedule import Step, schedule

# Host-side elementwise combine: a scalar float loop, slower than the
# block memcpy rate (HostTiming.copy_per_byte, ~1/360 µs/B).
HOST_COMBINE_PER_BYTE = 1 / 180.0

BUF_SIZE = 16 * 1024        # registered buffer size (>= one frame at mtu 16K)
RECV_BUFS = 8               # posted receive ring per inbound QP
MAX_SENDS = 2               # app-level sends in flight per QP


class _CollPump:
    """CQ dispatcher for one member: routes completions by QP number.

    Unlike the NBD pump, received frames are copied out and the buffer
    re-posted *immediately* — inside :meth:`pump_once` — so the peer's
    receive credit is never starved by a rank that is deep in its own
    send loop.  That property is what makes the send-all-then-receive
    step structure deadlock-free for chunks spanning many frames.
    """

    def __init__(self, iface, cq):
        self.iface = iface
        self.cq = cq
        self._qps: Dict[int, object] = {}
        self._posted: Dict[int, deque] = {}
        self._inbox: Dict[int, deque] = {}
        self._sends: Dict[int, int] = {}
        self.dead = False

    def add_qp(self, qp, recv_bufs) -> None:
        self._qps[qp.qp_num] = qp
        self._posted[qp.qp_num] = deque(recv_bufs)
        self._inbox[qp.qp_num] = deque()
        self._sends[qp.qp_num] = 0

    def pump_once(self) -> Generator:
        cqes = yield from self.iface.wait(self.cq)
        for cqe in cqes:
            if cqe.opcode is WROpcode.RECV:
                if not cqe.ok:
                    self.dead = True
                    continue
                buf = self._posted[cqe.qp_num].popleft()
                self._inbox[cqe.qp_num].append(buf.read(cqe.byte_len))
                yield from self.iface.post_recv(self._qps[cqe.qp_num],
                                                [buf.sge()])
                self._posted[cqe.qp_num].append(buf)
            else:
                self._sends[cqe.qp_num] -= 1
                if not cqe.ok:
                    self.dead = True

    def recv(self, qp) -> Generator:
        """Next received frame (raw bytes) on ``qp``, or None if broken."""
        inbox = self._inbox[qp.qp_num]
        while not inbox:
            if self.dead:
                return None
            yield from self.pump_once()
        return inbox.popleft()

    def wait_send_slot(self, qp) -> Generator:
        while self._sends[qp.qp_num] >= MAX_SENDS and not self.dead:
            yield from self.pump_once()

    def note_send(self, qp) -> None:
        self._sends[qp.qp_num] += 1


class HostCollectiveMember:
    """One rank of a ``world``-rank host-engine collective group.

    ``addr_of(r)`` is rank ``r``'s NIC address.  The member asks it only
    for the peers it connects to, and works identically in
    single-process runs and on cluster shards where remote ranks have no
    local node record.
    """

    def __init__(self, node, rank: int, world: int,
                 spec: CollectiveWorkSpec, addr_of: Callable[[int], object],
                 group: int = 0):
        self.node = node
        self.iface = node.iface
        self.host = node.host
        self.sim = node.host.sim
        self.rank = rank
        self.world = world
        self.addr_of = addr_of
        self.spec = spec
        self.group = group
        self.stats = CollectiveStats()
        spec.validate_world(self.world)
        mtu = self.iface.fw.nic.mtu
        self._frame_elems = min(frames.max_frame_elems(mtu),
                                (BUF_SIZE - frames.HEADER_SIZE) // ELEM)
        self._send_bufs: Dict[int, List] = {}
        self._send_idx: Dict[int, int] = {}
        self.pump: Optional[_CollPump] = None
        # Peer rank -> QP a schedule step sends to / receives from.
        self._send_qps: Dict[int, object] = {}
        self._recv_qps: Dict[int, object] = {}
        self._qps: List = []

    # -- wiring --------------------------------------------------------------

    def setup(self) -> Generator:
        """Establish the group links (run as a process on every rank)."""
        self.cq = yield from self.iface.create_cq()
        self.pump = _CollPump(self.iface, self.cq)
        if self.world == 1:
            return
        if self.spec.variant == "rd":
            yield from self._setup_rd()
        else:
            yield from self._setup_ring()

    def _alloc_send_bufs(self, qp) -> Generator:
        bufs = []
        for _ in range(MAX_SENDS):
            buf = yield from self.iface.register_memory(BUF_SIZE)
            bufs.append(buf)
        self._send_bufs[qp.qp_num] = bufs
        self._send_idx[qp.qp_num] = 0

    def _recv_ring(self, qp) -> Generator:
        bufs = []
        for _ in range(RECV_BUFS):
            buf = yield from self.iface.register_memory(BUF_SIZE)
            yield from self.iface.post_recv(qp, [buf.sge()])
            bufs.append(buf)
        return bufs

    def _setup_ring(self) -> Generator:
        iface = self.iface
        right = (self.rank + 1) % self.world
        in_qp = yield from iface.create_qp(QPTransport.TCP, self.cq,
                                           max_recv_wr=64)
        recv_bufs = yield from self._recv_ring(in_qp)
        listener = yield from iface.listen(self.spec.port)
        out_qp = yield from iface.create_qp(QPTransport.TCP, self.cq)
        yield from self._alloc_send_bufs(out_qp)
        accept_done = {}

        def acceptor():
            yield from iface.accept(listener, in_qp)
            accept_done["ok"] = True

        acc = self.sim.process(acceptor())
        yield self.sim.timeout(1000.0 + 100.0 * self.rank)
        yield from iface.connect(
            out_qp, Endpoint(self.addr_of(right), self.spec.port))
        yield acc
        if not accept_done.get("ok"):
            raise ReproError(f"rank {self.rank}: collective ring accept failed")
        self.pump.add_qp(in_qp, recv_bufs)
        self.pump.add_qp(out_qp, [])
        self._recv_qps[(self.rank - 1) % self.world] = in_qp
        self._send_qps[right] = out_qp
        self._qps = [in_qp, out_qp]

    def _setup_rd(self) -> Generator:
        """One QP per recursive-doubling round; the lower rank of each
        pair listens on ``port + 1 + round``, the higher connects."""
        iface = self.iface
        rounds = self.world.bit_length() - 1
        listeners = {}
        for k in range(rounds):
            if self.rank < self.rank ^ (1 << k):
                listeners[k] = yield from iface.listen(self.spec.port + 1 + k)
        recv_rings = []
        for k in range(rounds):
            qp = yield from iface.create_qp(QPTransport.TCP, self.cq,
                                            max_recv_wr=64)
            recv_rings.append((yield from self._recv_ring(qp)))
            yield from self._alloc_send_bufs(qp)
            self._qps.append(qp)
        accept_done = {}

        def acceptor(k, qp):
            yield from iface.accept(listeners[k], qp)
            accept_done[k] = True

        procs = []
        for k in range(rounds):
            if k in listeners:
                procs.append(self.sim.process(acceptor(k, self._qps[k])))
        yield self.sim.timeout(1000.0 + 100.0 * self.rank)
        for k in range(rounds):
            partner = self.rank ^ (1 << k)
            if self.rank > partner:
                yield from iface.connect(
                    self._qps[k],
                    Endpoint(self.addr_of(partner), self.spec.port + 1 + k))
        for p in procs:
            yield p
        if len(accept_done) != len(listeners):
            raise ReproError(f"rank {self.rank}: rd pair accept failed")
        for k, (qp, bufs) in enumerate(zip(self._qps, recv_rings)):
            self.pump.add_qp(qp, bufs)
            self._send_qps[self.rank ^ (1 << k)] = qp
            self._recv_qps[self.rank ^ (1 << k)] = qp

    # -- framed send/recv ----------------------------------------------------

    def _send_frame(self, qp, data: bytes, phase: str) -> Generator:
        yield from self.pump.wait_send_slot(qp)
        if self.pump.dead:
            raise ReproError(f"rank {self.rank}: collective link broken")
        idx = self._send_idx[qp.qp_num]
        self._send_idx[qp.qp_num] = (idx + 1) % MAX_SENDS
        buf = self._send_bufs[qp.qp_num][idx]
        buf.write(data)
        yield from self.iface.post_send(qp, [buf.sge(0, len(data))])
        self.pump.note_send(qp)
        self.stats.add_phase_bytes(phase, len(data))

    # -- collectives ---------------------------------------------------------

    def run(self, values: Optional[Sequence[float]] = None) -> Generator:
        """Execute the spec's operation; returns the result vector
        (allreduce/broadcast) or None (barrier)."""
        spec = self.spec
        if values is None and spec.algo != "barrier":
            values = initial_vector(spec, self.rank, self.world)
        acc = list(values or [])
        steps = schedule(spec.algo, spec.variant, self.world, self.rank,
                         len(acc), spec.root)
        t0 = self.sim.now
        rec = obs.RECORDER
        if rec is not None:
            rec.event("coll", "coll.start", track=self._track(),
                      group=self.group, seq=0, algo=spec.algo,
                      rank=self.rank, nelems=spec.vector_len,
                      engine="host")
            rec.metrics.counter("coll.ops_started").add()
        try:
            yield from self._execute(steps, acc)
        except ReproError:
            # Abort every link so each neighbour fails too, not hangs.
            for qp in self._qps:
                yield from self.iface.destroy_qp(qp)
            raise
        if rec is not None and spec.algo == "barrier" and steps:
            rec.event("coll", "collective.barrier_release",
                      track=self._track(), group=self.group, seq=0,
                      rank=self.rank)
        self.stats.wall_time_us += self.sim.now - t0
        if rec is not None:
            rec.metrics.counter("coll.ops_completed").add()
        return None if spec.algo == "barrier" else acc

    def _execute(self, steps: Sequence[Step], acc: List[float]) -> Generator:
        """Interpret the schedule: one span per phase; per step, send the
        originated range, then receive (and relay) the expected one."""
        algo = frames.ALGO_CODES[self.spec.algo]
        phase = None
        for i, step in enumerate(steps):
            if step.phase != phase:
                if phase is not None:
                    self._end_span(f"collective.{phase}")
                phase = step.phase
                self._begin_span(f"collective.{phase}")
            if step.send is not None:
                for data in frames.step_frames(step, i, acc,
                                               self._frame_elems, algo,
                                               self.group, 0):
                    yield from self._send_frame(
                        self._send_qps[step.send_to], data, phase)
                    if step.op == "forward":
                        self.stats.steps += 1
            if step.recv is not None:
                yield from self._receive(i, step, acc, algo)
            if step.op != "forward":
                self.stats.steps += 1
        if phase is not None:
            self._end_span(f"collective.{phase}")

    def _receive(self, i: int, step: Step, acc: List[float],
                 algo: int) -> Generator:
        """Take step ``i``'s ``recv`` range frame by frame (a token step
        takes one frame), relaying each onward when the step sends
        nothing of its own."""
        qp = self._recv_qps[step.recv_from]
        relay = (self._send_qps[step.send_to]
                 if step.send is None and step.send_to is not None else None)
        off, cnt = step.recv
        got = 0
        token = step.op == "token"
        while got < cnt or token:
            data = yield from self.pump.recv(qp)
            if data is None:
                raise ReproError(f"rank {self.rank}: collective link broken")
            hdr, body = frames.decode_frame(data)
            if (hdr.group != self.group or hdr.algo != algo
                    or not frames.is_next_piece(hdr, step, i, got)):
                raise ReproError(
                    f"rank {self.rank}: step {i} expects elements "
                    f"[{off + got}, {off + cnt}), got {hdr}")
            token = False
            if body:
                if step.op == "combine":
                    yield self.host.cpu.submit(
                        HOST_COMBINE_PER_BYTE * len(body), "collective")
                    combine_into(acc, hdr.offset, unpack_vector(body))
                else:
                    yield self.host.cpu.submit(
                        self.host.copy_cost(len(body)), "collective")
                    acc[hdr.offset:hdr.offset + hdr.count] = \
                        unpack_vector(body)
            got += hdr.count
            if step.op == "forward":
                self.stats.steps += 1
            if relay is not None:
                yield from self._send_frame(relay, frames.encode_frame(
                    hdr.kind, algo, hdr.phase, self.group, 0, hdr.step,
                    hdr.offset, hdr.count, body), step.phase)

    # -- observability -------------------------------------------------------

    def _track(self) -> str:
        return f"{self.iface.fw.nic.attachment.name}.coll"

    def _span_key(self, name: str):
        return ("coll-host", self.iface.fw.nic.name, self.group, 0, name)

    def _begin_span(self, name: str) -> None:
        rec = obs.RECORDER
        if rec is not None:
            rec.begin("coll", name, self._span_key(name), track=self._track(),
                      group=self.group, rank=self.rank, seq=0,
                      algo=self.spec.algo, engine="host")

    def _end_span(self, name: str) -> None:
        rec = obs.RECORDER
        if rec is not None:
            rec.end(self._span_key(name))
