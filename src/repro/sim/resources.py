"""Queueing resources built on the event kernel.

* :class:`Store` — unbounded (or bounded) FIFO of items with blocking gets.
* :class:`WorkQueue` — a serial "processor": callers submit timed work
  items and receive an event that fires when the item completes.  This is
  the building block for host CPUs, NIC firmware processors, DMA engines
  and link transmitters, and it tracks busy time per category so that CPU
  utilization and NIC occupancy fall out of the model for free.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from .engine import Event, SimulationError, Simulator


class Store:
    """FIFO item store: ``put`` never blocks unless a capacity is set."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "store"):
        if capacity is not None and capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: deque = deque()
        self._getters: deque = deque()
        self.total_put = 0
        self.total_got = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self.is_full:
            return False
        self.total_put += 1
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            self.total_got += 1
            getter.succeed(item)
            return True
        self._items.append(item)
        return True

    def put(self, item: Any) -> None:
        """Put, raising when full (SAN queues overflow loudly, not silently)."""
        if not self.try_put(item):
            raise SimulationError(f"store {self.name!r} overflow (capacity={self.capacity})")

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.sim)
        if self._items:
            self.total_got += 1
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev



class WorkItem:
    """A unit of timed work on a :class:`WorkQueue`."""

    __slots__ = ("duration", "category", "priority", "fn", "done", "submitted_at", "started_at")

    def __init__(self, duration: float, category: str, priority: int,
                 fn: Optional[Callable], done: Event, submitted_at: float):
        self.duration = duration
        self.category = category
        self.priority = priority
        self.fn = fn
        self.done = done
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None


class WorkQueue:
    """A serial processor with priority FIFO dispatch and busy accounting.

    Work runs one item at a time (non-preemptive).  Lower ``priority``
    values run first among queued items; ties are FIFO.  Each completed
    item charges its ``duration`` of busy time to its ``category``.

    Queues constructed with ``eager=True`` (NIC cores, DMA engines —
    anything fed exclusively by default-priority, callback-free work)
    take a fast path: the serial core is modelled as an advancing busy
    horizon and each submission costs a single pre-triggered event at
    ``horizon + duration``, instead of an inner heap entry plus a
    dispatch callback plus a completion event.  Identical start/finish
    times, identical FIFO order; a submission with a callback or
    non-default priority (or an in-flight dispatch chain) falls back to
    the general path and serializes after the horizon.
    ``tests/reference_paths.py`` runs whole workloads on the general
    path alone to hold the two to the same timestamps and tie order.
    """

    def __init__(self, sim: Simulator, name: str = "cpu",
                 eager: bool = False):
        self.sim = sim
        self.name = name
        self.eager = eager
        self._heap: list = []
        self._seq = 0
        self._busy = False
        self._busy_until = 0.0
        self.busy_time = 0.0
        self.busy_by_category: dict = {}
        self._stats_epoch = 0.0
        self.items_completed = 0
        # A sole user whose periodic work is being elided (see
        # :meth:`replay_periodic`): an object with ``settle()``, called
        # before anyone else submits work or reads the accounting.
        self.parked = None

    @property
    def dispatching(self) -> bool:
        """True while general-path work is in flight or queued — work
        that will move the queue on later without another submit."""
        return self._busy or bool(self._heap)

    def replay_periodic(self, t: float, gap: float, duration: float,
                        category: str):
        """Account, in one call, for a sole user that from time ``t``
        repeated "idle ``gap``, then submit ``duration`` and wait for
        it" up to ``sim.now`` while nobody else touched the queue.

        Charges every repetition that has finished strictly before now
        — the same additions, in the same order, as that many
        :meth:`submit_wait` calls — and advances the busy horizon with
        the arithmetic ``submit`` uses (``finish = start + duration``
        from ``start = max(horizon, now)``, completion seen at ``now +
        (finish - now)``), so every instant is the float the stepwise
        caller would have computed.  Returns ``(count, t, start)``:
        ``count`` repetitions were charged, the last finished at ``t``
        (unchanged if none), and ``start`` is the submit instant of a
        repetition still in flight now (``None`` in the idle gap).  A
        repetition finishing at exactly ``now`` counts as in flight: its
        caller runs after everything already queued for this instant.
        The in-flight one is *not* charged; replay its submit with
        ``sim.call_as_of(start, self.submit, duration, category)``.
        """
        now = self.sim.now
        horizon = self._busy_until
        busy_time = self.busy_time
        cat_time = self.busy_by_category.get(category, 0.0)
        count = 0
        while True:
            start = t + gap
            if start > now:
                start = None
                break
            finish = (start if start >= horizon else horizon) + duration
            done_at = start + (finish - start)
            if done_at >= now:
                break
            horizon = finish
            t = done_at
            busy_time += duration
            cat_time += duration
            count += 1
        if count:
            self._busy_until = horizon
            self.busy_time = busy_time
            self.busy_by_category[category] = cat_time
            self.items_completed += count
        return count, t, start

    def submit(self, duration: float, category: str = "work", priority: int = 0,
               fn: Optional[Callable] = None) -> Event:
        """Enqueue ``duration`` µs of work; the returned event fires on completion.

        ``fn`` (if given) runs at completion time, before the event fires.
        """
        if self.parked is not None:
            self.parked.settle()
        if duration < 0:
            raise SimulationError(f"negative work duration: {duration}")
        sim = self.sim
        if fn is None and priority == 0 and not self._busy:
            now = sim.now
            start = self._busy_until
            if start < now:
                start = now
            # Eager queues always take the fast path; priority-capable
            # queues (host CPUs) only when the core is idle *right now*
            # — then the item starts immediately in both models and,
            # being non-preemptible, cannot be reordered by a later
            # higher-priority arrival.
            if self.eager or (start == now and not self._heap):
                finish = start + duration
                self._busy_until = finish
                self.busy_time += duration
                by_cat = self.busy_by_category
                by_cat[category] = by_cat.get(category, 0.0) + duration
                self.items_completed += 1
                # Fire via call_later → succeed so the waiter's resume
                # order among same-time events is decided at completion
                # time, exactly like the general path below (handle →
                # _complete → succeed).  A plain Timeout here would give
                # the waiter a submission-time sequence number and flip
                # exact-time ties between this and the general path.
                done = Event(sim)
                sim.call_later(finish - now, done.succeed)
                return done
        done = Event(sim)
        item = WorkItem(duration, category, priority, fn, done, sim.now)
        self._seq += 1
        heapq.heappush(self._heap, (priority, self._seq, item))
        if not self._busy:
            self._dispatch()
        return done

    def submit_wait(self, duration: float, category: str = "work"):
        """:meth:`submit` for callers that ``yield`` the result immediately.

        On the fast path this returns a plain delay (float) — the
        process trampoline turns it into a reusable wake cell, skipping
        the Timeout allocation entirely.  Under contention it returns
        the normal completion event.  Never use this when the result is
        stored and yielded later: a plain delay starts counting when
        yielded, not when submitted.
        """
        if self.parked is not None:
            self.parked.settle()
        if duration < 0:
            raise SimulationError(f"negative work duration: {duration}")
        if not self._busy:
            sim = self.sim
            now = sim.now
            start = self._busy_until
            if start < now:
                start = now
            if self.eager or (start == now and not self._heap):
                finish = start + duration
                self._busy_until = finish
                self.busy_time += duration
                by_cat = self.busy_by_category
                by_cat[category] = by_cat.get(category, 0.0) + duration
                self.items_completed += 1
                return finish - now
        return self.submit(duration, category=category)

    def try_charge(self, duration: float, category: str = "work"):
        """Charge ``duration`` on the eager fast path and return the
        completion delay (float), or ``None`` when the fast path does
        not apply (the caller must fall back to :meth:`submit`).  No
        state changes on a ``None`` return.
        """
        if self.parked is not None:
            self.parked.settle()
        if duration < 0:
            raise SimulationError(f"negative work duration: {duration}")
        if not self._busy:
            sim = self.sim
            now = sim.now
            start = self._busy_until
            if start < now:
                start = now
            if self.eager or (start == now and not self._heap):
                finish = start + duration
                self._busy_until = finish
                self.busy_time += duration
                by_cat = self.busy_by_category
                by_cat[category] = by_cat.get(category, 0.0) + duration
                self.items_completed += 1
                return finish - now
        return None

    def submit_call(self, duration: float, fn: Callable,
                    category: str = "work") -> None:
        """Enqueue work whose completion is delivered by *calling* ``fn``
        instead of firing an Event.  On the fast path this is one burst
        walker in the kernel heap (no Event, no callback list, no timer
        handle); otherwise it degrades to :meth:`submit` plus a
        completion callback.  Identical completion time and same-time
        tie ordering either way.
        """
        delay = self.try_charge(duration, category)
        if delay is not None:
            self.sim.defer(delay, fn)
        else:
            done = self.submit(duration, category=category)
            done.callbacks.append(lambda _ev: fn())

    def _dispatch(self) -> None:
        if not self._heap:
            self._busy = False
            return
        self._busy = True
        _prio, _seq, item = heapq.heappop(self._heap)
        now = self.sim.now
        start = self._busy_until
        if start < now:
            start = now
        item.started_at = start
        self._busy_until = start + item.duration
        self.sim.call_later(self._busy_until - now, self._complete, item)

    def _complete(self, item: WorkItem) -> None:
        self.busy_time += item.duration
        by_cat = self.busy_by_category
        by_cat[item.category] = by_cat.get(item.category, 0.0) + item.duration
        self.items_completed += 1
        if item.fn is not None:
            item.fn()
        item.done.succeed()
        self._dispatch()

    # -- accounting -------------------------------------------------------

    def reset_stats(self) -> None:
        if self.parked is not None:
            self.parked.settle()
        self.busy_time = 0.0
        self.busy_by_category = {}
        self.items_completed = 0
        self._stats_epoch = self.sim.now

    def utilization(self) -> float:
        """Fraction of time busy since the last ``reset_stats``."""
        if self.parked is not None:
            self.parked.settle()
        elapsed = self.sim.now - self._stats_epoch
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
