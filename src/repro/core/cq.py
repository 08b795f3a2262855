"""Completion queues.

Paper §2.1: "When a WR completes, a token is added to the completion
queue and can be detected by the application through polling or an
event.  The binding of multiple queues to a CQ permits applications to
group related QPs into a single monitoring point."

The CQ ring lives in host memory; the NIC DMAs entries in.  Polling
spins in the processor cache (cheap, §5.1); waiting arms an interrupt.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, List, Optional

from .. import obs
from ..errors import VerbsError
from ..sim import Event, Simulator
from .wr import Completion, WROpcode

CQE_BYTES = 32


class CompletionQueue:
    """One completion ring."""

    def __init__(self, sim: Simulator, cq_num: int, capacity: int = 1024,
                 span_scope: str = ""):
        if capacity <= 0:
            raise VerbsError("CQ capacity must be positive")
        self.sim = sim
        self.cq_num = cq_num
        # Disambiguates WR span keys across hosts: qp_num and wr_id are
        # per-firmware counters, so a shared recorder watching several
        # hosts would otherwise collide identical (qp, wr, dir) tuples.
        self.span_scope = span_scope
        self.capacity = capacity
        self._ring: Deque[Completion] = deque()
        self._waiters: Deque[Event] = deque()
        # Parked busy-pollers (QpipInterface.spin): settled on the next
        # push.  Unlike ``_waiters`` they burn host CPU instead of
        # taking an interrupt, so waking them costs nothing extra.
        self.spinners: List = []
        # Host polls of this ring, and how many found it empty; elided
        # spin polls are counted here when they are settled.
        self.polls = 0
        self.empty_polls = 0
        self.overruns = 0
        self.total_completions = 0
        self.error_completions = 0
        # Armed by the driver when a consumer blocks: the NIC raises an
        # interrupt on the next CQE instead of relying on polling.
        self.interrupt_hook = None
        # Passive taps called on every pushed CQE (after ring insert).
        # The recovery layer uses one as its failure detector / liveness
        # feed without stealing entries from the polling application.
        self.observers: List = []

    def __len__(self) -> int:
        return len(self._ring)

    # -- NIC side -----------------------------------------------------------

    def push(self, cqe: Completion) -> None:
        """Called (post-DMA) by the NIC firmware."""
        if len(self._ring) >= self.capacity:
            self.overruns += 1      # catastrophic in IB; we count and drop
            return
        self._ring.append(cqe)
        self.total_completions += 1
        if not cqe.ok:
            self.error_completions += 1
        rec = obs.RECORDER
        if rec is not None:
            which = "recv" if cqe.opcode is WROpcode.RECV else "send"
            elapsed = rec.end(("wr", self.span_scope, cqe.qp_num,
                               cqe.wr_id, which),
                              status=cqe.status.name, bytes=cqe.byte_len)
            rec.event("verbs", "cqe", track=f"qp{cqe.qp_num}.host",
                      wr_id=cqe.wr_id, qp=cqe.qp_num,
                      opcode=cqe.opcode.name, status=cqe.status.name,
                      bytes=cqe.byte_len)
            rec.metrics.counter("cq.cqe").add()
            rec.metrics.counter(f"cq.cqe.{cqe.status.name}").add()
            if elapsed is not None and cqe.ok:
                rec.metrics.histogram(f"wr.{which}.latency_us").add(elapsed)
        if self.observers:
            # Copy: a tap may deregister (or add) observers mid-delivery.
            for observer in list(self.observers):
                observer(cqe)
        waiters = self._waiters
        while waiters:
            waiter = waiters.popleft()
            if not waiter.triggered:
                if self.interrupt_hook is not None:
                    self.interrupt_hook(waiter)
                else:
                    waiter.succeed()
                break
        while self.spinners:
            self.spinners[0].settle()

    # -- host side -----------------------------------------------------------

    def pop(self) -> Optional[Completion]:
        self.polls += 1
        if self._ring:
            return self._ring.popleft()
        self.empty_polls += 1
        return None

    def pop_many(self, limit: int) -> List[Completion]:
        self.polls += 1
        out = []
        while self._ring and len(out) < limit:
            out.append(self._ring.popleft())
        if not out:
            self.empty_polls += 1
        return out

    def wait_event(self) -> Event:
        """Event fired when the CQ becomes non-empty."""
        ev = Event(self.sim)
        if self._ring:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev
