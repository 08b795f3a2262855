"""Programmable NIC chassis (LANai-9-class).

Provides the mechanical resources the QPIP firmware runs on:

* a single RISC core, modelled as a serial :class:`WorkQueue` whose busy
  accounting *is* the paper's "network interface occupancy";
* a doorbell FIFO fed by posted PCI writes (the LANai's "specialized
  doorbell mechanism where writes to a region of PCI address space are
  stored in a FIFO in the interface SRAM", §4.1);
* two host-DMA engines sharing the PCI bus, and send/receive wire engines;
* a cycle counter for per-stage instrumentation (the paper's Tables 2 & 3
  were measured "using the LANai 9 cycle counter").

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
from .timing import LanaiTiming

LANAI_MHZ = 133.0


class CycleCounter:
    """Per-stage time attribution, read like the LANai cycle counter.

    ``enabled=False`` makes instrumentation free: hot callers check the
    flag before calling :meth:`record`, so a disabled counter costs one
    attribute read per stage instead of four dict operations.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.enabled = True
        self.by_stage: dict = {}
        self.samples: dict = {}

    def record(self, stage: str, duration: float) -> None:
        self.by_stage[stage] = self.by_stage.get(stage, 0.0) + duration
        self.samples[stage] = self.samples.get(stage, 0) + 1

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

    def record_stage(self, name: str, duration: float) -> None:
        """Cycle-counter and obs bookkeeping for one stage, without
        charging the core — burst paths charge separately and call this
        at each span's start time."""
        cyc = self.cycles
        if cyc.enabled:
            cyc.record(name, duration)
        rec = obs.RECORDER
        if rec is not None:
            rec.complete("fw.stage", name, duration,
                         track=f"{self.host.name}.{self.name}.core")
            rec.metrics.histogram(f"fw.stage_us.{name}").add(duration)

    def stage(self, name: str, duration: float):
        """Run one timed FSM stage on the NIC core.

        Returns a yieldable wait: a plain delay on the fast path, a
        completion event otherwise."""
        self.record_stage(name, duration)
        return self.processor.submit_wait(duration, category=name)

    def stages(self, pairs):
        """Run several back-to-back FSM stages as one core occupancy.

        ``pairs`` is ``[(name, duration), ...]``.  The core is busy for
        the summed duration — identical start/finish times to yielding
        each stage in turn — while the cycle counter still attributes
        time per stage.  Only legal when nothing observable happens
        between the stages (the firmware's parse/build sequences).
        ``tests/reference_paths.py`` holds the one-submission-per-stage
        form this is checked against.
        """
        cyc = self.cycles
        if cyc.enabled:
            for name, duration in pairs:
                cyc.record(name, duration)
        rec = obs.RECORDER
        if rec is not None:
            track = f"{self.host.name}.{self.name}.core"
            for name, duration in pairs:
                rec.complete("fw.stage", name, duration, track=track)
                rec.metrics.histogram(f"fw.stage_us.{name}").add(duration)
        total = 0.0
        for _name, duration in pairs:
            total += duration
        return self.processor.submit_wait(total, category=pairs[0][0])

    def stages_burst(self, pairs, boundary_fn, post_pairs):
        """One core walk for two merged stage spans with a callback at
        the boundary — the batched form of::

            yield self.stages(pairs)
            boundary_fn()
            yield self.stages(post_pairs)

        The whole walk costs one heap push and a single suspension of
        the calling process.  Both spans are charged on the serial core
        up front, which is legal because the firmware process is the
        core's only submitter: the horizon advances exactly as if the
        second span were charged at the boundary.  ``boundary_fn`` runs
        at the exact boundary time, and the second span's cycle/obs
        records are made there too, so wire timestamps, trace records,
        and per-stage attribution are identical to the unbatched path.

        Returns a walker the caller must ``yield``, or ``None`` when the
        fast path does not apply (caller falls back to the plain form;
        nothing has been charged or recorded).
        """
        if self.processor._busy:
            return None
        d_pre = self.stages(pairs)          # records pre-span cycles/obs now
        total = 0.0
        for _name, duration in post_pairs:
            total += duration
        d_post = self.processor.try_charge(total, category=post_pairs[0][0])
        if d_post is None:  # pragma: no cover - eager queue, guarded above
            return None

        def boundary():
            boundary_fn()
            cyc = self.cycles
            if cyc.enabled:
                for name, duration in post_pairs:
                    cyc.record(name, duration)
            rec = obs.RECORDER
            if rec is not None:
                track = f"{self.host.name}.{self.name}.core"
                for name, duration in post_pairs:
                    rec.complete("fw.stage", name, duration, track=track)
                    rec.metrics.histogram(f"fw.stage_us.{name}").add(duration)

        return self.sim.burst(((d_pre, boundary), (d_post, None)))

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
        if self.cycles.enabled:
            self.cycles.record("fault_stall", duration)
        return self.processor.submit_wait(duration, category="fault_stall")

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
