"""The host machine: CPU with utilization accounting, PCI bus, memory.

All kernel/application "work" charges time on the CPU work queue, so CPU
utilization — the paper's headline metric — is measured, not asserted.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..mem import AddressSpace, PhysicalMemory
from ..sim import Event, Simulator, WorkQueue
from .timing import HostTiming, PciTiming

INTERRUPT_PRIORITY = -10     # interrupts preempt queued process work


class PciBus:
    """Shared PCI segment: DMA transfers serialize at bus bandwidth."""

    def __init__(self, sim: Simulator, timing: PciTiming, name: str = "pci"):
        self.sim = sim
        self.timing = timing
        # DMA submissions are plain (no callback, default priority), so
        # the bus can use WorkQueue's eager busy-horizon fast path.
        self.queue = WorkQueue(sim, name=name, eager=True)
        self.bytes_moved = 0

    def dma(self, nbytes: int, category: str = "dma",
            setup: float = 0.0) -> Event:
        """Move ``nbytes`` across the bus; event fires at completion."""
        self.bytes_moved += nbytes
        duration = setup + nbytes / self.timing.bandwidth
        return self.queue.submit(duration, category=category)

    def dma_call(self, nbytes: int, fn: Callable, category: str = "dma",
                 setup: float = 0.0) -> None:
        """Like :meth:`dma`, but completion is delivered by calling
        ``fn`` — one deferred-call heap item on the fast path instead of
        a timer handle plus an Event with one callback.  Same transfer
        time and tie ordering either way."""
        self.bytes_moved += nbytes
        duration = setup + nbytes / self.timing.bandwidth
        self.queue.submit_call(duration, fn, category=category)

    def doorbell_cost(self) -> float:
        return self.timing.doorbell_write


class Host:
    """A processor/memory complex with one accounted CPU and a PCI bus."""

    def __init__(self, sim: Simulator, name: str,
                 timing: Optional[HostTiming] = None,
                 pci_timing: Optional[PciTiming] = None,
                 memory_bytes: int = 1 << 30):
        self.sim = sim
        self.name = name
        self.timing = timing or HostTiming()
        self.cpu = WorkQueue(sim, name=f"{name}.cpu")
        self.pci = PciBus(sim, pci_timing or PciTiming(), name=f"{name}.pci")
        self.memory = PhysicalMemory(memory_bytes, name=f"{name}.mem")
        self.interrupts_delivered = 0

    def new_address_space(self, label: str) -> AddressSpace:
        return AddressSpace(self.memory, name=f"{self.name}.{label}")

    # -- CPU convenience -----------------------------------------------------

    def cpu_work(self, duration: float, category: str,
                 fn: Optional[Callable] = None, priority: int = 0) -> Event:
        return self.cpu.submit(duration, category=category, fn=fn,
                               priority=priority)

    def raise_interrupt(self, handler: Callable, category: str = "interrupt") -> Event:
        """Deliver an interrupt: entry cost then the handler, ahead of
        queued process-context work."""
        self.interrupts_delivered += 1
        return self.cpu.submit(self.timing.interrupt_entry, category=category,
                               fn=handler, priority=INTERRUPT_PRIORITY)

    def copy_cost(self, nbytes: int) -> float:
        return nbytes * self.timing.copy_per_byte

    def checksum_cost(self, nbytes: int) -> float:
        return nbytes * self.timing.checksum_per_byte

    # -- measurement ---------------------------------------------------------

    def reset_cpu_stats(self) -> None:
        self.cpu.reset_stats()

    def cpu_utilization(self) -> float:
        return self.cpu.utilization()

    def __repr__(self):
        return f"<Host {self.name}>"
