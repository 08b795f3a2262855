"""The verbs library: PostSend / PostRecv / Poll / Wait plus connection
and memory management (paper §4.1's "application software library" and
"kernel driver" rolled into one per-process handle).

Host-side costs follow Table 1: posting a send and reaping its
completion costs ~2.5 µs of host CPU, against ~30 µs through the
host-based stack.
"""

from __future__ import annotations

import itertools
from typing import Generator, List, Optional

from .. import obs
from ..errors import (PostDeadlineExceeded, QPStateError, QueueFull,
                      VerbsError)
from ..hw.host import Host
from ..hw.timing import QpipHostTiming
from ..mem import Access, AddressSpace, MemoryRegion, SGE
from ..net.addresses import Endpoint
from ..sim import Event
from .cq import CompletionQueue
from .firmware import MgmtCommand, QpipFirmware
from .qp import QPState, QPTransport, QueuePair
from .wr import Completion, WorkRequest, WROpcode


class QpipBuffer:
    """A registered, page-backed message buffer."""

    def __init__(self, aspace: AddressSpace, region: MemoryRegion):
        self.aspace = aspace
        self.region = region

    @property
    def addr(self) -> int:
        return self.region.addr

    @property
    def length(self) -> int:
        return self.region.length

    @property
    def lkey(self) -> int:
        return self.region.lkey

    def sge(self, offset: int = 0, length: Optional[int] = None) -> SGE:
        if length is None:
            length = self.length - offset
        if offset < 0 or offset + length > self.length:
            raise VerbsError("SGE outside registered buffer")
        return SGE(self.addr + offset, length, self.lkey)

    def write(self, data: bytes, offset: int = 0) -> None:
        if offset + len(data) > self.length:
            raise VerbsError("write beyond buffer end")
        self.aspace.write(self.addr + offset, data)

    def read(self, length: Optional[int] = None, offset: int = 0) -> bytes:
        if length is None:
            length = self.length - offset
        return self.aspace.read(self.addr + offset, length)


class QpipInterface:
    """One process's handle onto a QPIP adapter."""

    DRIVER_CALL = 4.0     # host µs per privileged mgmt command

    # Default ceiling on how long a backpressured post may yield waiting
    # for queue space before failing with PostDeadlineExceeded (µs).
    POST_DEADLINE = 1_000_000.0

    def __init__(self, firmware: QpipFirmware, host: Host,
                 process_name: str = "app",
                 timing: Optional[QpipHostTiming] = None):
        self.fw = firmware
        self.host = host
        self.sim = host.sim
        self.timing = timing or QpipHostTiming()
        self.aspace = host.new_address_space(process_name)
        self.post_timeout: Optional[float] = self.POST_DEADLINE
        self._qp_nums = itertools.count(1)
        self._cq_nums = itertools.count(1)
        self._wr_ids = itertools.count(1)

    def alloc_wr_id(self) -> int:
        """Reserve a WR id up front (lets callers key completion state
        before the post's CPU charge yields control)."""
        return next(self._wr_ids)

    # -- control path (kernel driver: mgmt commands) -------------------------

    def _mgmt(self, kind: str, *args) -> Generator:
        yield self.host.cpu.submit_wait(self.DRIVER_CALL, category="qpip-driver")
        done = Event(self.sim)
        self.fw.nic.post_mgmt(MgmtCommand(kind, args, done))
        result = yield done
        return result

    def register_memory(self, nbytes: int,
                        access: Access = Access.local()) -> Generator:
        """Allocate and register a buffer; returns a :class:`QpipBuffer`."""
        rng = self.aspace.alloc(nbytes)
        region = yield from self._mgmt("register", self.aspace, rng.addr,
                                       nbytes, access)
        return QpipBuffer(self.aspace, region)

    def create_cq(self, capacity: int = 1024) -> Generator:
        cq = CompletionQueue(self.sim, next(self._cq_nums), capacity,
                             span_scope=str(self.fw.addr))
        # Blocking waiters are woken through the driver's "lightweight
        # interrupt service routine" (paper §4.1) — far cheaper than the
        # full network ISR + softirq path.
        cq.interrupt_hook = lambda waiter: self.host.cpu.submit(
            2.0, category="qpip-intr", fn=waiter.succeed, priority=-10)
        yield self.host.cpu.submit_wait(self.DRIVER_CALL, category="qpip-driver")
        return cq

    def create_qp(self, transport: QPTransport, send_cq: CompletionQueue,
                  recv_cq: Optional[CompletionQueue] = None,
                  max_send_wr: int = 256, max_recv_wr: int = 256,
                  rdma: bool = False) -> Generator:
        """``rdma=True`` enables the framed one-sided extension
        (RDMA WRITE/READ, see ``repro.core.rdma``)."""
        qp = QueuePair(next(self._qp_nums), transport, send_cq,
                       recv_cq or send_cq, max_send_wr, max_recv_wr,
                       rdma=rdma)
        result = yield from self._mgmt("create_qp", qp)
        return result

    def connect(self, qp: QueuePair, remote: Endpoint,
                local_port: Optional[int] = None) -> Generator:
        """TCP active open; returns when the connection is ESTABLISHED.

        The SYN handshake runs entirely in the interface (paper §3); the
        host blocks here until notified.
        """
        yield from self._mgmt("connect", qp, remote, local_port)

    def listen(self, port: int) -> Generator:
        """Start monitoring a TCP port; returns a listener id."""
        listener_id = yield from self._mgmt("listen", port)
        return listener_id

    def accept(self, listener_id: int, qp: QueuePair) -> Generator:
        """Offer an idle QP to the listener; returns when mated."""
        yield from self._mgmt("accept", listener_id, qp)
        return qp

    def bind_udp(self, qp: QueuePair, port: Optional[int] = None) -> Generator:
        bound = yield from self._mgmt("bind_udp", qp, port)
        return bound

    def disconnect(self, qp: QueuePair) -> Generator:
        yield from self._mgmt("disconnect", qp)

    def coll_create(self, group: int, rank: int, world: int,
                    right_addr, port: int, cq: CompletionQueue,
                    eager_threshold: int = 4096,
                    connect_delay_us: Optional[float] = None) -> Generator:
        """Install a NIC-resident collective group (repro.collectives).

        Returns once the firmware's ring connections to both neighbors
        are established; completions for posted ops land on ``cq``.
        """
        from ..collectives.nicoffload import CONNECT_DELAY_US, CollGroupConfig
        config = CollGroupConfig(
            group=group, rank=rank, world=world, right_addr=right_addr,
            port=port, eager_threshold=eager_threshold, cq=cq,
            connect_delay_us=(CONNECT_DELAY_US if connect_delay_us is None
                              else connect_delay_us))
        result = yield from self._mgmt("coll_create", config)
        return result

    def destroy_qp(self, qp: QueuePair) -> Generator:
        yield from self._mgmt("destroy_qp", qp)

    # -- data path (pure user level: no kernel involvement) --------------------

    def _enqueue(self, qp: QueuePair, wr: WorkRequest, which: str,
                 timeout: Optional[float]) -> Generator:
        """Enqueue with watermark backpressure.

        A full work queue no longer rejects the post: the poster yields
        until the firmware drains the queue below its low watermark, up
        to ``timeout`` µs (``None``: the interface default,
        ``0``: non-blocking, raise :class:`QueueFull` immediately).
        A QP that dies while we wait fails the post with
        :class:`QpTornDown` — never silence."""
        budget = self.post_timeout if timeout is None else timeout
        deadline = None if budget is None else self.sim.now + budget
        enqueue = qp.enqueue_send if which == "send" else qp.enqueue_recv
        while True:
            try:
                enqueue(wr)
                return
            except QueueFull:
                if budget == 0:
                    raise
                if deadline is not None and self.sim.now >= deadline:
                    raise PostDeadlineExceeded(
                        f"QP{qp.qp_num} {which} queue still full after "
                        f"{budget:g}us")
                space = qp.space_event(self.sim, which)
                if deadline is not None:
                    handle = self.sim.call_later(
                        deadline - self.sim.now,
                        lambda ev=space: ev.succeed() if not ev.triggered
                        else None)
                    yield space
                    handle.cancel()
                else:
                    yield space

    def _post(self, qp: QueuePair, wr: WorkRequest, which: str,
              timeout: Optional[float]) -> Generator:
        yield from self._enqueue(qp, wr, which, timeout)
        rec = obs.RECORDER
        if rec is not None:
            scope_cq = qp.recv_cq if which == "recv" else qp.send_cq
            rec.begin("verbs", f"wr.{which}",
                      ("wr", scope_cq.span_scope, qp.qp_num,
                       wr.wr_id, which),
                      track=f"qp{qp.qp_num}.host",
                      wr_id=wr.wr_id, qp=qp.qp_num,
                      opcode=wr.opcode.name, bytes=wr.length)
            rec.metrics.counter(f"verbs.{which}_posted").add()
        cost = self.timing.post_descriptor + self.timing.doorbell
        yield self.host.cpu.submit(
            cost, category="qpip-post",
            fn=lambda: self.fw.nic.ring_doorbell((qp.qp_num, which)))
        return wr.wr_id

    def coll_post(self, group: int, algo: str, nelems: int = 0,
                  sge: Optional[SGE] = None, root: int = 0,
                  wr_id: Optional[int] = None) -> Generator:
        """Post one collective op: a single doorbell, a single CQE.

        This is the entire host-side cost of a NIC-offloaded collective —
        the per-step forwarding and combining happens in firmware.
        """
        from ..collectives.nicoffload import CollOp
        unit = self.fw.collectives.get(group)
        if unit is None:
            raise VerbsError(f"no collective group {group} on this interface")
        if wr_id is None:
            wr_id = next(self._wr_ids)
        op = CollOp(wr_id, algo, unit.alloc_seq(), root, nelems, sge)
        unit.host_ring.append(op)
        rec = obs.RECORDER
        if rec is not None:
            rec.event("verbs", "coll.post", track=f"coll{group}.host",
                      group=group, wr_id=wr_id, algo=algo, nelems=nelems)
            rec.metrics.counter("verbs.coll_posted").add()
        cost = self.timing.post_descriptor + self.timing.doorbell
        yield self.host.cpu.submit(
            cost, category="qpip-post",
            fn=lambda: self.fw.nic.ring_doorbell((group, "coll")))
        return wr_id

    def post_send(self, qp: QueuePair, sges: List[SGE],
                  dest: Optional[Endpoint] = None,
                  wr_id: Optional[int] = None,
                  timeout: Optional[float] = None) -> Generator:
        """Post one send WR; returns its wr_id immediately after the doorbell."""
        wr = WorkRequest(wr_id if wr_id is not None else next(self._wr_ids),
                         WROpcode.SEND, list(sges), dest=dest)
        result = yield from self._post(qp, wr, "send", timeout)
        return result

    def post_recv(self, qp: QueuePair, sges: List[SGE],
                  wr_id: Optional[int] = None,
                  timeout: Optional[float] = None) -> Generator:
        wr = WorkRequest(wr_id if wr_id is not None else next(self._wr_ids),
                         WROpcode.RECV, list(sges))
        result = yield from self._post(qp, wr, "recv", timeout)
        return result

    def post_rdma_write(self, qp: QueuePair, sges: List[SGE],
                        remote_addr: int, rkey: int,
                        wr_id: Optional[int] = None,
                        timeout: Optional[float] = None) -> Generator:
        """One-sided write into the peer's registered buffer.

        Completes locally when the data is ACKed; the target process is
        never involved (paper §2.1's RDMA semantics)."""
        wr = WorkRequest(wr_id if wr_id is not None else next(self._wr_ids),
                         WROpcode.RDMA_WRITE, list(sges),
                         remote_addr=remote_addr, rkey=rkey)
        result = yield from self._post(qp, wr, "send", timeout)
        return result

    def post_rdma_read(self, qp: QueuePair, sink: SGE, remote_addr: int,
                       rkey: int, wr_id: Optional[int] = None,
                       timeout: Optional[float] = None) -> Generator:
        """One-sided read from the peer's registered buffer into ``sink``;
        completes when the response stream has been placed."""
        wr = WorkRequest(wr_id if wr_id is not None else next(self._wr_ids),
                         WROpcode.RDMA_READ, [sink],
                         remote_addr=remote_addr, rkey=rkey)
        result = yield from self._post(qp, wr, "send", timeout)
        return result

    def poll(self, cq: CompletionQueue, max_entries: int = 16) -> Generator:
        """Non-blocking poll: returns (possibly empty) list of completions."""
        yield self.host.cpu.submit_wait(self.timing.poll_cq, category="qpip-poll")
        cqes = cq.pop_many(max_entries)
        if cqes:
            yield self.host.cpu.submit_wait(
                self.timing.completion_check * len(cqes), category="qpip-poll")
        return cqes

    def wait(self, cq: CompletionQueue) -> Generator:
        """Blocking wait: spin once, then sleep until the CQ interrupt."""
        cqes = yield from self.poll(cq)
        while not cqes:
            yield cq.wait_event()
            yield self.host.cpu.submit_wait(self.timing.wait_block,
                                            category="qpip-wait")
            cqes = yield from self.poll(cq)
        return cqes

    def spin(self, cq: CompletionQueue, poll_interval: float = 0.5) -> Generator:
        """Busy-poll (processor-cache spin, §5.1) until completions arrive.

        Behaves as ``poll``, sleep ``poll_interval``, repeat — every
        poll charged to the host CPU at the instant that loop would
        charge it — but an empty poll parks the process instead of
        stepping through the idle gap: the polls in between are
        accounted in one go when a CQE arrives or someone else needs the
        CPU (:class:`_ParkedSpin`), so a wait costs O(1) kernel events
        however long it lasts.
        """
        cpu = self.host.cpu
        poll_cost = self.timing.poll_cq
        while True:
            yield cpu.submit_wait(poll_cost, category="qpip-poll")
            at_pop = True           # a poll, real or replayed, just ended
            while at_pop:
                cqes = cq.pop_many(16)
                if cqes:
                    yield cpu.submit_wait(
                        self.timing.completion_check * len(cqes),
                        category="qpip-poll")
                    return cqes
                parked = _ParkedSpin(cq, cpu, poll_interval, poll_cost)
                step, at_pop = yield parked.wake
                yield step


class _ParkedSpin:
    """A spinning process between an empty poll and its next real step.

    The process sleeps on ``wake`` and owns no heap entry.  ``settle``
    — called by the CQ on a push, by the CPU before anyone else uses it
    or reads its accounting, and by ``Simulator.run`` before it stops at
    ``until`` — replays the poll grid up to now with the stepwise loop's
    own arithmetic (:meth:`WorkQueue.replay_periodic`), then takes that
    loop's next scheduling step *as of the instant the loop would have
    taken it*: the sleep before the next poll, or the submit of the poll
    in flight.  ``wake`` fires with ``(step, at_pop)``; the process
    waits on ``step`` and is then exactly where the loop would be — at
    the start of a poll, or (``at_pop``) at the ring pop ending one.

    Only a CPU with no dispatch chain running can be fast-forwarded;
    otherwise the spinner settles at once, which is one ordinary sleep.
    """

    __slots__ = ("cq", "cpu", "interval", "poll_cost", "anchor", "wake")

    def __init__(self, cq: CompletionQueue, cpu, interval: float,
                 poll_cost: float):
        self.cq = cq
        self.cpu = cpu
        self.interval = interval
        self.poll_cost = poll_cost
        sim = cq.sim
        self.anchor = sim.now       # pop instant of the last empty poll
        self.wake = Event(sim)
        if cpu.parked is not None:
            cpu.parked.settle()     # two spinners share this CPU
        cq.spinners.append(self)
        cpu.parked = self
        sim.parked[self] = None
        if cpu.dispatching:
            self.settle()

    def settle(self) -> None:
        cq, cpu, sim = self.cq, self.cpu, self.cq.sim
        if cpu.parked is not self:
            return                  # already settled
        cq.spinners.remove(self)
        cpu.parked = None
        del sim.parked[self]
        polls, last_pop, started = cpu.replay_periodic(
            self.anchor, self.interval, self.poll_cost, "qpip-poll")
        cq.polls += polls
        cq.empty_polls += polls
        if started is None:
            step = sim.call_as_of(last_pop, sim.timeout, self.interval)
        else:
            step = sim.call_as_of(started, cpu.submit, self.poll_cost,
                                  "qpip-poll")
        self.wake.succeed((step, started is not None))
