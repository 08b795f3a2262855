"""Cancellable, restartable one-shot timers for protocol engines.

TCP needs timers that are constantly rescheduled (RTO, delayed ACK,
persist, TIME_WAIT).  :class:`Timer` wraps the kernel's callback handles
with a generation counter so stale expirations are ignored.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .engine import SimulationError, Simulator


class Timer:
    """One-shot timer.  ``start`` re-arms, ``cancel`` disarms."""

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "timer"):
        self.sim = sim
        self.name = name
        self._callback = callback
        self._handle = None
        self._deadline: Optional[float] = None
        self.fire_count = 0

    @property
    def armed(self) -> bool:
        return self._handle is not None

    @property
    def deadline(self) -> Optional[float]:
        return self._deadline

    @property
    def remaining(self) -> Optional[float]:
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self.sim.now)

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` µs from now."""
        if delay < 0:
            raise SimulationError(f"negative timer delay: {delay}")
        self.cancel()
        self._deadline = self.sim.now + delay
        self._handle = self.sim.call_later(delay, self._fire)

    def start_if_idle(self, delay: float) -> None:
        """Arm only when not already armed (TCP RTO semantics)."""
        if not self.armed:
            self.start(delay)

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
            self._deadline = None

    def _fire(self) -> None:
        self._handle = None
        self._deadline = None
        self.fire_count += 1
        self._callback()


class Watchdog:
    """Deadman timer: fires ``callback`` unless fed within ``timeout`` µs.

    The recovery layer arms one per supervised QP: every completion or
    successful post calls :meth:`feed`; if the peer goes silent (firmware
    stall, half-open connection from a mid-transfer kill) the expiry
    callback escalates to QP teardown instead of hanging forever.
    """

    def __init__(self, sim: Simulator, timeout: float,
                 callback: Callable[[], Any], name: str = "watchdog"):
        if timeout <= 0:
            raise SimulationError("watchdog timeout must be positive")
        self.sim = sim
        self.timeout = timeout
        self.name = name
        self.expirations = 0
        self.last_fed: Optional[float] = None
        self._callback = callback
        self._timer = Timer(sim, self._expire, name=name)

    def feed(self) -> None:
        """Record liveness: push the expiry a full ``timeout`` out."""
        if self._timer.armed:
            self.last_fed = self.sim.now
            self._timer.start(self.timeout)

    def arm(self) -> None:
        self.last_fed = self.sim.now
        self._timer.start(self.timeout)

    def disarm(self) -> None:
        self._timer.cancel()

    def _expire(self) -> None:
        self.expirations += 1
        self._callback()


class PeriodicTimer:
    """Fires ``callback`` every ``period`` µs until stopped."""

    def __init__(self, sim: Simulator, period: float, callback: Callable[[], Any],
                 name: str = "periodic"):
        if period <= 0:
            raise SimulationError("period must be positive")
        self.sim = sim
        self.period = period
        self.name = name
        self._callback = callback
        self._timer = Timer(sim, self._tick, name=name)
        self.running = False

    def start(self) -> None:
        if not self.running:
            self.running = True
            self._timer.start(self.period)

    def stop(self) -> None:
        self.running = False
        self._timer.cancel()

    def _tick(self) -> None:
        if not self.running:
            return
        self._callback()
        if self.running:
            self._timer.start(self.period)
