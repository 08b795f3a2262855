"""Programmable NIC chassis (LANai-9-class).

Provides the mechanical resources the QPIP firmware runs on:

* a single RISC core, modelled as a serial :class:`WorkQueue` whose busy
  accounting *is* the paper's "network interface occupancy";
* a doorbell FIFO fed by posted PCI writes (the LANai's "specialized
  doorbell mechanism where writes to a region of PCI address space are
  stored in a FIFO in the interface SRAM", §4.1);
* two host-DMA engines sharing the PCI bus, and send/receive wire engines;
* a cycle counter for per-stage instrumentation (the paper's Tables 2 & 3
  were measured "using the LANai 9 cycle counter");
* :meth:`ProgrammableNic.run`, the one executor that charges the rows of
  the stage table (:mod:`repro.hw.stages`) on the core.

The firmware program itself lives in :mod:`repro.core.firmware`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from .. import obs
from ..errors import DmaError
from ..fabric.link import Attachment
from ..net.packet import Packet
from ..sim import Event, Simulator, WorkQueue
from .host import Host
from .stages import FAULT_STALL, timed
from .timing import LanaiTiming

LANAI_MHZ = 133.0


def _total(stages) -> float:
    total = 0.0
    for _name, us in stages:
        total += us
    return total


class CycleCounter:
    """Per-stage time attribution, read like the LANai cycle counter."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.by_stage: dict = {}
        self.samples: dict = {}

    def record(self, stages) -> float:
        """Attribute each ``(name, µs)`` stage of one span; returns the
        span's total."""
        by_stage, samples = self.by_stage, self.samples
        total = 0.0
        for name, us in stages:
            by_stage[name] = by_stage.get(name, 0.0) + us
            samples[name] = samples.get(name, 0) + 1
            total += us
        return total

    def mean(self, stage: str) -> float:
        n = self.samples.get(stage, 0)
        return self.by_stage.get(stage, 0.0) / n if n else 0.0

    def reset(self) -> None:
        self.by_stage.clear()
        self.samples.clear()


class ProgrammableNic:
    """The hardware substrate for an on-NIC protocol implementation."""

    def __init__(self, sim: Simulator, host: Host, timing: Optional[LanaiTiming] = None,
                 mtu: int = 16384, name: str = "qpnic", sram_bytes: int = 2 << 20,
                 doorbell_capacity: Optional[int] = None):
        self.sim = sim
        self.host = host
        self.timing = timing or LanaiTiming()
        self.mtu = mtu
        self.name = name
        self.sram_bytes = sram_bytes
        # NIC firmware submits are always plain (no callback, default
        # priority), so the serial core can use the eager busy-horizon
        # fast path in WorkQueue.
        self.processor = WorkQueue(sim, name=f"{host.name}.{name}.fw", eager=True)
        self.cycles = CycleCounter(sim)
        self._core_track = f"{host.name}.{name}.core"
        self.attachment = Attachment(f"{host.name}.{name}", self._on_wire_receive)
        self.attachment.mtu = mtu
        self.doorbell_fifo: Deque = deque()
        self.rx_queue: Deque[Packet] = deque()
        self.mgmt_queue: Deque = deque()
        # The firmware installs this to be poked when new work appears.
        self.wake: Optional[Callable[[], None]] = None
        self.doorbells_rung = 0
        self.packets_rx = 0
        self.packets_tx = 0
        # -- fault machinery (see repro.faults) --------------------------
        # Bounded SRAM doorbell FIFO: None = unbounded (ideal hardware).
        self.doorbell_capacity = doorbell_capacity
        self.doorbells_dropped = 0
        self.doorbell_overflow = False     # sticky status bit; fw rescans
        # Called as hook(kind, nbytes) before each host DMA; returning
        # True fails the transfer with DmaError.  kind is "data" for
        # payload movement, "cqe" for completion/notification writes.
        self.dma_fault_hook: Optional[Callable[[str, int], bool]] = None
        self.dma_faults = 0
        self.stalls_injected = 0

    # -- host-facing mechanisms (costs charged by the caller on host CPU) --

    def ring_doorbell(self, token) -> None:
        """Posted PCI write into the doorbell FIFO."""
        self.doorbells_rung += 1
        if (self.doorbell_capacity is not None
                and len(self.doorbell_fifo) >= self.doorbell_capacity):
            # SRAM FIFO full: the posted write is lost.  Set the sticky
            # overflow bit so the firmware knows to rescan its QPs.
            self.doorbells_dropped += 1
            self.doorbell_overflow = True
            self._poke()
            return
        self.doorbell_fifo.append(token)
        self._poke()

    def post_mgmt(self, command) -> None:
        """Privileged command from the kernel driver (management FSM input)."""
        self.mgmt_queue.append(command)
        self._poke()

    # -- firmware-facing mechanisms -----------------------------------------

    def span(self, *rows):
        """One callback-free span of ``rows`` (table rows, or pairs from
        :meth:`Stage.sized`): the argument for :meth:`run`'s single-span
        form, priced against this NIC's timing."""
        return ((timed(self.timing, *rows), None),)

    def run(self, spans):
        """Run firmware stages on the core: the one way occupancy is charged.

        ``spans`` is a sequence of ``(stages, at_end)``: ``stages`` is
        ``((name, µs), ...)`` built from the stage table (:meth:`span`,
        :func:`timed`) and occupies the core back to back as one charge,
        while the cycle counter and the ``fw.stage`` trace still see
        every stage; ``at_end`` is ``None`` or a callable run at the
        instant the span completes (a segment's wire handoff, a
        doorbell's token), after which the next span is recorded.

        Returns what the caller yields, once: a plain delay for one span
        without a callback, else one ``sim.burst`` walk.  All spans are
        charged up front, which is legal because the firmware process is
        the core's only submitter, so the busy horizon advances as
        charging at each boundary would (a :meth:`stall` injected
        mid-walk queues behind all of it).  ``tests/reference_paths.py``
        holds the stepwise form this is checked against.
        """
        stages, at_end = spans[0]
        charge = self.processor.try_charge
        delay = charge(self._record(stages), category=stages[0][0])
        if at_end is None and len(spans) == 1:
            return delay
        steps = []
        for stages, next_end in spans[1:]:
            steps.append((delay, self._boundary(at_end, stages)))
            delay = charge(_total(stages), category=stages[0][0])
            at_end = next_end
        steps.append((delay, at_end))
        return self.sim.burst(steps)

    def _boundary(self, at_end, stages):
        def boundary():
            if at_end is not None:
                at_end()
            self._record(stages)
        return boundary

    def _record(self, stages) -> float:
        """Cycle-counter and trace records for one span; returns its
        total duration."""
        total = self.cycles.record(stages)
        rec = obs.RECORDER
        if rec is not None:
            track = self._core_track
            for name, us in stages:
                rec.complete("fw.stage", name, us, track=track)
                rec.metrics.histogram(f"fw.stage_us.{name}").add(us)
        return total

    def dma_to_host(self, nbytes: int, kind: str = "data") -> Event:
        self._dma_check(kind, nbytes)
        return self.host.pci.dma(nbytes, category=f"{self.name}.dma-rx",
                                 setup=self.timing.dma_setup)

    def dma_to_host_call(self, nbytes: int, fn: Callable,
                         kind: str = "data") -> None:
        """Posted host-write whose completion calls ``fn`` — the CQE/
        notification path.  One deferred-call heap item on the fast path
        instead of a timer handle plus an Event with one callback."""
        self._dma_check(kind, nbytes)
        self.host.pci.dma_call(nbytes, fn, category=f"{self.name}.dma-rx",
                               setup=self.timing.dma_setup)

    def dma_from_host(self, nbytes: int, kind: str = "data") -> Event:
        self._dma_check(kind, nbytes)
        return self.host.pci.dma(nbytes, category=f"{self.name}.dma-tx",
                                 setup=self.timing.dma_setup)

    def _dma_check(self, kind: str, nbytes: int) -> None:
        if self.dma_fault_hook is not None and self.dma_fault_hook(kind, nbytes):
            self.dma_faults += 1
            raise DmaError(f"{self.name}: DMA fault ({kind}, {nbytes}B)")

    def stall(self, duration: float):
        """Occupy the firmware core for ``duration`` µs (injected stall:
        a wedged firmware loop, an SRAM ECC scrub, a debug interrupt).
        All FSM stages queue behind it on the serial core."""
        self.stalls_injected += 1
        return self.run(self.span(FAULT_STALL.sized(duration)))

    def wire_time(self, pkt: Packet) -> float:
        """Serialization time of a packet on the attached link."""
        link = self.attachment.link
        if link is None:
            return 0.0
        return pkt.wire_size / link.direction_from(self.attachment).bandwidth

    def wire_transmit(self, pkt: Packet) -> None:
        self.packets_tx += 1
        rec = obs.RECORDER
        if rec is not None:
            rec.event("nic", "nic.tx", track=f"{self.attachment.name}.wire",
                      pkt=pkt.trace_id, bytes=pkt.wire_size)
            rec.metrics.counter(f"nic.{self.attachment.name}.tx_pkts").add()
        self.attachment.transmit(pkt)

    def _on_wire_receive(self, pkt: Packet, _at: Attachment) -> None:
        self.packets_rx += 1
        rec = obs.RECORDER
        if rec is not None:
            rec.event("nic", "nic.rx", track=f"{self.attachment.name}.wire",
                      pkt=pkt.trace_id, bytes=pkt.wire_size)
            rec.metrics.counter(f"nic.{self.attachment.name}.rx_pkts").add()
        self.rx_queue.append(pkt)
        self._poke()

    def _poke(self) -> None:
        if self.wake is not None:
            self.wake()

    # -- instrumentation -------------------------------------------------------

    def occupancy(self) -> float:
        """Fraction of time the NIC core was busy since last reset."""
        return self.processor.utilization()

    def reset_stats(self) -> None:
        self.processor.reset_stats()
        self.cycles.reset()
