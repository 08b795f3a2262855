"""NIC-level fault injection.

Wire faults (see :mod:`repro.faults.inject`) exercise the transport;
these faults exercise the *interface*: the firmware core, the host-DMA
engines, the doorbell FIFO, and the finite SRAM resources the paper's
LANai 9 actually has (§4.1: 2 MB SRAM holding firmware, queues, and the
translation table).

All knobs route through :class:`NicFaultController` so a chaos scenario
can arm them declaratively and read the resulting counters back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..core.firmware import QpipFirmware
from ..hw.lanai import ProgrammableNic


@dataclass
class DmaFaultWindow:
    """Fault host-DMA ``data`` transfers inside a time window.

    ``rate``   per-transfer failure probability;
    ``start``/``stop``  active window (µs; stop=None: forever);
    ``count``  at most this many faults (None: unlimited).

    Completion-queue writes (DMA kind ``"cqe"``) are deliberately never
    faulted: CQEs are how errors are *reported*, and the flush guarantee
    (every posted WR gets a completion) depends on them landing.
    """

    rate: float = 1.0
    start: float = 0.0
    stop: Optional[float] = None
    count: Optional[int] = None


class NicFaultController:
    """Arms NIC faults on one interface.

    * :meth:`fail_dma` — host-DMA transfer errors (surface as
      ``LOCAL_DMA_ERROR`` completions and a QP flush);
    * :meth:`stall` / :meth:`stall_at` — wedge the serial firmware core,
      delaying every FSM behind the stall;
    * :meth:`limit_doorbell_fifo` — bound the SRAM doorbell FIFO so
      posted writes can be lost (firmware recovers by rescanning);
    * :meth:`limit_qps` / :meth:`limit_memory_regions` — SRAM resource
      exhaustion: further ``create_qp`` / ``register_memory`` mgmt
      commands fail with :class:`repro.errors.ResourceExhausted`.
    """

    def __init__(self, nic: ProgrammableNic,
                 firmware: Optional[QpipFirmware] = None,
                 rng: Optional[random.Random] = None):
        self.nic = nic
        self.firmware = firmware
        self.rng = rng or random.Random(0)
        self._dma_windows: List[DmaFaultWindow] = []
        nic.dma_fault_hook = self._dma_hook

    # -- DMA faults --------------------------------------------------------

    def _dma_hook(self, kind: str, nbytes: int) -> bool:
        if kind != "data":
            return False      # never fault CQE/notification writes
        now = self.nic.sim.now
        for window in self._dma_windows:
            if now < window.start:
                continue
            if window.stop is not None and now >= window.stop:
                continue
            if window.count is not None and window.count <= 0:
                continue
            if self.rng.random() >= window.rate:
                continue
            if window.count is not None:
                window.count -= 1
            return True
        return False

    def fail_dma(self, rate: float = 1.0, start: float = 0.0,
                 stop: Optional[float] = None,
                 count: Optional[int] = None) -> DmaFaultWindow:
        window = DmaFaultWindow(rate=rate, start=start, stop=stop,
                                count=count)
        self._dma_windows.append(window)
        return window

    # -- firmware stalls ---------------------------------------------------

    def stall_at(self, at: float, duration: float) -> None:
        """Schedule a firmware stall at absolute sim time ``at``."""
        delay = max(0.0, at - self.nic.sim.now)
        self.nic.sim.call_later(delay, self.nic.stall, duration)

    # -- resource limits ---------------------------------------------------

    def limit_doorbell_fifo(self, capacity: Optional[int]) -> None:
        self.nic.doorbell_capacity = capacity

    def _fw(self) -> QpipFirmware:
        if self.firmware is None:
            raise ValueError("NicFaultController needs the firmware handle "
                             "for resource-limit faults")
        return self.firmware

    def limit_qps(self, max_qps: Optional[int]) -> None:
        self._fw().max_qps = max_qps

    def limit_memory_regions(self, max_regions: Optional[int]) -> None:
        self._fw().max_regions = max_regions

    # -- observability -----------------------------------------------------

    def counts(self) -> dict:
        counters = {
            "dma_faults": self.nic.dma_faults,
            "stalls_injected": self.nic.stalls_injected,
            "doorbells_dropped": self.nic.doorbells_dropped,
        }
        if self.firmware is not None:
            counters["mgmt_rejections"] = self.firmware.mgmt_rejections
            counters["dma_wr_errors"] = self.firmware.dma_wr_errors
        return counters
