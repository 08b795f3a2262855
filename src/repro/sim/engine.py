"""Deterministic discrete-event simulation kernel.

The kernel is a small, simpy-flavoured engine with two programming models:

* **Callback scheduling** — ``sim.call_later(delay, fn, *args)`` — used by
  the protocol engines (TCP timers, NIC firmware dispatch), mirroring how
  real stacks are written.
* **Coroutine processes** — generator functions that ``yield`` events
  (``sim.timeout(...)``, store gets, work-queue completions) — used by
  applications and benchmarks.

Time is a float in **microseconds**. All ties are broken by a monotonically
increasing sequence number, so a given program is bit-for-bit deterministic.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Any, Callable, Generator, Iterable, Optional

_PENDING = object()


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event is *triggered* (succeed or fail) at most once.  Once triggered
    it is queued on the event heap and its callbacks run when the simulator
    reaches it, in deterministic order.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully; callbacks run ``delay`` from now."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        heapq.heappush(sim._heap, (sim.now + delay, sim._seq, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside any waiting process.  A failed
        event with *no* listeners crashes the simulation (loud failure).
        """
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._enqueue(delay, self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled out-of-band (no crash)."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        sim._seq += 1
        heapq.heappush(sim._heap, (sim.now + delay, sim._seq, self))


class _ProcWake:
    """Reusable heap entry for a process sleeping on a plain delay.

    A process waits on at most one thing at a time, so one wake cell per
    process can be re-pushed for every ``yield <float>`` without
    allocating a Timeout (event object + callback list) per wait.

    ``fired`` implements the two-hop fire: the first pop re-pushes the
    cell at the same time with a fresh sequence number and only the
    second pop resumes the process.  The general work-queue path resumes
    waiters via completion-handle → ``succeed`` → heap push, so *its*
    resume order among same-time events is set at fire time; the wake
    cell must match that or a waiter's order on exact-time ties would
    depend on which of the two paths its queue happened to take.
    """

    __slots__ = ("proc", "fired")

    def __init__(self, proc: "Process"):
        self.proc = proc
        self.fired = False


class _BurstWalk:
    """One heap item that walks a pre-planned burst of timed steps.

    A burst is a sequence of ``(time, fn)`` steps at non-decreasing
    times.  Scheduling the burst costs one heap push; each step then
    fires with the same same-time tie ordering as the two-hop
    :class:`_ProcWake` rule (first pop re-pushes with a fresh seq *only
    when another item shares the fire time*; the second pop runs the
    step).  After a step fires, the walker re-pushes itself for the next
    step with a fresh sequence number — exactly when a process-driven
    chain would push its next wake after resuming and doing the step's
    work — so entries created between steps order identically to the
    unbatched path.

    ``proc`` parks a process on the burst: a generator may ``yield`` the
    walker and is resumed when the final step has fired.  A single-step
    walker with no process is the :meth:`Simulator.defer` primitive, the
    allocation-light replacement for ``call_later(d, ev.succeed)`` plus
    an Event with one callback.
    """

    __slots__ = ("times", "fns", "idx", "fired", "proc")

    def __init__(self, times, fns):
        self.times = times
        self.fns = fns
        self.idx = 0
        self.fired = False
        self.proc: Optional["Process"] = None


# Sentinel passed to Process._resume when a plain-delay wake fires: looks
# like a processed, successful Event carrying None.
_WAKE_VALUE = Event.__new__(Event)
_WAKE_VALUE.callbacks = None
_WAKE_VALUE._value = None
_WAKE_VALUE._ok = True
_WAKE_VALUE._defused = False


class Process(Event):
    """Drives a generator; the process *is* an event that fires on return.

    The generator may yield any :class:`Event` — or a plain non-negative
    ``float``, shorthand for a Timeout of that many microseconds that
    costs no event allocation.  The process resumes with the event's
    value (or has the event's exception thrown into it).
    """

    __slots__ = ("_gen", "_wake")

    def __init__(self, sim: "Simulator", generator: Generator):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        super().__init__(sim)
        self._gen = generator
        self._wake: Optional[_ProcWake] = None
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, event: Event) -> None:
        sim = self.sim
        while True:
            try:
                if event._ok:
                    target = self._gen.send(event._value)
                else:
                    event._defused = True
                    target = self._gen.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                sim._enqueue(0.0, self)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                sim._enqueue(0.0, self)
                return
            if not isinstance(target, Event):
                if type(target) is float and target >= 0:
                    # Plain-delay wait: re-push this process's
                    # reusable wake cell instead of building a
                    # Timeout (no event object, no callback list).
                    wake = self._wake
                    if wake is None:
                        wake = self._wake = _ProcWake(self)
                    sim._seq += 1
                    heapq.heappush(sim._heap,
                                   (sim.now + target, sim._seq, wake))
                    return
                if type(target) is _BurstWalk:
                    # Park on an in-flight burst; the walker resumes
                    # this process after its final step fires.
                    target.proc = self
                    return
                event = Event(sim)
                event.fail(SimulationError(
                    f"process yielded a non-event: {target!r}"))
                event.defuse()
                continue
            if target.sim is not sim:
                raise SimulationError("event belongs to a different simulator")
            if target.callbacks is None:
                # Already-processed events resume the process immediately.
                event = target
                continue
            target.callbacks.append(self._resume)
            return


class AnyOf(Event):
    """Fires when any child event is processed; value is ``{event: value}``
    for the children that have completed by then."""

    __slots__ = ("_events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._done: dict = {}
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev.processed:
                self._on_child(ev)
                return
            ev.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done[event] = event._value
        self.succeed(dict(self._done))


class _CallbackHandle:
    """Cancellable handle returned by :meth:`Simulator.call_later`.

    Cancellation is lazy: the handle stays in the heap (marked dead) and
    is skipped when popped.  The simulator counts dead handles and
    compacts the heap when they are the majority, so timer-heavy
    protocols (TCP re-arming its RTO on every ACK) do not drown the
    heap in corpses.
    """

    __slots__ = ("_fn", "_args", "cancelled", "time", "_sim")

    def __init__(self, sim: "Simulator", fn: Callable, args: tuple, time: float):
        self._sim = sim
        self._fn = fn
        self._args = args
        self.cancelled = False
        self.time = time

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self._fn = None
        self._args = ()
        self._sim._note_cancelled()


class Simulator:
    """The event loop: a priority heap of (time, seq, item)."""

    #: Compaction floor: heaps smaller than this are never compacted
    #: (the rebuild would cost more than the dead entries).
    COMPACT_MIN_HEAP = 64

    def __init__(self):
        self.now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._dead_handles: int = 0
        self.compactions: int = 0
        # Window log for cross-simulator injection (repro.cluster): the
        # kernel seq value after the last event at each processed time,
        # appended by run_window().  Parallel arrays for bisect.
        self._log_times: list = []
        self._log_seqs: list = []
        self._injected: int = 0
        # Parked waiters (see :meth:`call_as_of`): objects with a
        # ``settle()`` method, each standing for a process whose periodic
        # wake-ups are being elided and that therefore owns no heap
        # entry.  ``run(until=...)`` settles them before it stops, so the
        # state at ``until`` is what the stepwise process would have left.
        self.parked: dict = {}

    # -- scheduling primitives ------------------------------------------

    def _enqueue(self, delay: float, item) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, item))

    def _note_cancelled(self) -> None:
        """A handle in the heap died; compact when >50% of the heap is dead.

        Compaction preserves behaviour exactly: pop order of the
        remaining ``(time, seq, item)`` entries is a total order, so any
        heap over the same live entries drains identically.
        """
        self._dead_handles += 1
        if (self._dead_handles >= self.COMPACT_MIN_HEAP
                and self._dead_handles * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        live = [entry for entry in self._heap
                if not (type(entry[2]) is _CallbackHandle and entry[2].cancelled)]
        heapq.heapify(live)
        # In-place so the run loop's local binding of the heap stays valid.
        self._heap[:] = live
        self._dead_handles = 0
        self.compactions += 1

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def call_later(self, delay: float, fn: Callable, *args) -> _CallbackHandle:
        """Run ``fn(*args)`` after ``delay``; returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        time = self.now + delay
        handle = _CallbackHandle(self, fn, args, time)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle))
        return handle

    def defer(self, delay: float, fn: Callable) -> _BurstWalk:
        """Run ``fn()`` after ``delay`` via a single-step burst walker.

        Tie-order-equivalent to ``call_later(delay, done.succeed)`` plus
        an Event whose one callback is ``fn`` — the pattern every eager
        completion used to allocate — but costs one heap item and no
        Event/callback list.  The walker fires with the two-hop rule, so
        ``fn`` runs in the same position among same-time events as the
        event pop it replaces.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        walk = _BurstWalk((self.now + delay,), (fn,))
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, walk))
        return walk

    def burst(self, steps) -> _BurstWalk:
        """Schedule a burst: ``steps`` is a sequence of ``(delay, fn)``
        pairs with non-decreasing delays from now (``fn`` may be None
        for a pure wait step).  One heap push schedules the whole burst;
        each step fires at its exact time with the tie ordering of the
        general work-queue path (see :class:`_BurstWalk`).  Returns the
        walker; a process may ``yield`` it to park until the final step
        fires.
        """
        times = []
        fns = []
        prev = 0.0
        now = self.now
        for delay, fn in steps:
            if delay < prev:
                raise SimulationError(
                    f"burst delays must be non-decreasing: {delay} < {prev}")
            prev = delay
            times.append(now + delay)
            fns.append(fn)
        if not times:
            raise SimulationError("burst requires at least one step")
        walk = _BurstWalk(times, fns)
        self._seq += 1
        heapq.heappush(self._heap, (times[0], self._seq, walk))
        return walk

    def call_as_of(self, when: float, fn: Callable, *args) -> Any:
        """Run ``fn(*args)`` with the clock set back to ``when``.

        For replaying the one scheduling decision an elided process
        would have taken at ``when``: ``now + (when - now)`` is not
        ``when`` in floating point, so the only way to land ``fn``'s
        ``call_later`` / ``timeout`` on the exact instant the stepwise
        process would have produced is to let it compute ``when +
        delay`` itself.  Everything ``fn`` schedules must fall at or
        after the real ``now``.
        """
        now = self.now
        if when > now:
            raise SimulationError(f"call_as_of {when} is in the future (now={now})")
        self.now = when
        try:
            return fn(*args)
        finally:
            self.now = now

    def _settle_parked(self, until: float) -> bool:
        """Make every parked waiter concrete as of ``until`` (the run is
        about to stop there); true if the heap has entries afterwards."""
        if not self.parked:
            return False
        self.now = until
        for waiter in list(self.parked):
            waiter.settle()
        return bool(self._heap)

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or budget spent.

        ``until`` is an absolute simulation time; the clock is advanced to
        exactly ``until`` if the run stops there.
        """
        budget = max_events
        # The dispatch body is inlined here (and in run_window) rather
        # than a per-event method: at tens of thousands of events per
        # run the call overhead is measurable.  _compact rewrites the
        # heap in place, so the local binding stays valid.
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        while heap or (until is not None and self._settle_parked(until)):
            if until is not None and heap[0][0] > until:
                # Parked waiters own no heap entry: settling them may
                # put steps at or before ``until``, so look again.
                if self._settle_parked(until):
                    continue
                self.now = until
                return
            if budget is not None:
                if budget <= 0:
                    raise SimulationError("max_events budget exhausted")
                budget -= 1
            _time, _seq, item = pop(heap)
            self.now = _time
            kind = type(item)
            if kind is _ProcWake:
                if not item.fired and heap and heap[0][0] == _time:
                    # Two-hop fire: see _ProcWake.  Keeps same-time tie
                    # ordering identical to the general work-queue path.
                    # The hop is needed only when another item shares
                    # this fire time; with a strictly-later heap top the
                    # re-push would pop straight back, so resume now.
                    item.fired = True
                    self._seq += 1
                    push(heap, (_time, self._seq, item))
                    continue
                item.fired = False
                self._events_processed += 1
                item.proc._resume(_WAKE_VALUE)
                continue
            if kind is _BurstWalk:
                if not item.fired and heap and heap[0][0] == _time:
                    item.fired = True
                    self._seq += 1
                    push(heap, (_time, self._seq, item))
                    continue
                item.fired = False
                self._events_processed += 1
                idx = item.idx
                item.idx = idx + 1
                fn = item.fns[idx]
                if fn is not None:
                    fn()
                if item.idx < len(item.fns):
                    # Next step is pushed only now — after this step's
                    # work ran — so entries created between steps order
                    # exactly as in the unbatched process-driven chain.
                    self._seq += 1
                    push(heap, (item.times[item.idx], self._seq, item))
                elif item.proc is not None:
                    proc, item.proc = item.proc, None
                    proc._resume(_WAKE_VALUE)
                continue
            if kind is _CallbackHandle:
                if not item.cancelled:
                    item._fn(*item._args)
                elif self._dead_handles > 0:
                    self._dead_handles -= 1
                continue
            event = item
            callbacks, event.callbacks = event.callbacks, None
            for cb in callbacks:
                cb(event)
            self._events_processed += 1
            if not event._ok and not event._defused and not callbacks:
                raise event._value
        if until is not None and self.now < until:
            self.now = until

    def run_process(self, generator: Generator, until: Optional[float] = None) -> Any:
        """Convenience: run a single process to completion and return its value."""
        proc = self.process(generator)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError("process did not finish before the run ended")
        if not proc._ok:
            raise proc._value
        return proc._value

    # -- cross-simulator injection (repro.cluster) -----------------------
    #
    # A sharded cluster run places each fabric partition in its own
    # Simulator.  Packets that cross a cut trunk are delivered by
    # injecting a callback into the destination kernel at the exact
    # simulated timestamp the single-process run would have used.  The
    # only delicate part is the *tie-break*: in one process the delivery
    # callback would carry the seq assigned when the sender transmitted
    # (at time t_send), so it must order before any local event scheduled
    # after t_send and after any scheduled at or before t_send.
    #
    # run_window() keeps a log of (time, seq-after-that-time) pairs; an
    # injected entry gets the fractional key ``seq_at(t_send) + 0.5``.
    # Fractional keys never collide with the integer seqs of native
    # entries, and a third tuple element (a per-kernel injection counter,
    # assigned by the caller in a globally deterministic order)
    # disambiguates injected entries whose keys tie.  Injected heap
    # entries are 4-tuples; only run_window() tolerates them, so a
    # kernel that has ever seen inject() must be driven by run_window().

    def seq_at(self, t: float) -> int:
        """Seq floor for time ``t``: the kernel seq after the last
        processed event time ≤ ``t`` (0 before any logged window)."""
        idx = bisect_right(self._log_times, t) - 1
        return self._log_seqs[idx] if idx >= 0 else 0

    def inject(self, at_time: float, sent_time: float,
               fn: Callable, *args) -> _CallbackHandle:
        """Schedule ``fn(*args)`` at absolute ``at_time``, ordered among
        local events as if it had been scheduled at ``sent_time``."""
        if at_time < self.now:
            raise SimulationError(
                f"inject at {at_time} is in the past (now={self.now})")
        handle = _CallbackHandle(self, fn, args, at_time)
        self._injected += 1
        heapq.heappush(self._heap, (at_time, self.seq_at(sent_time) + 0.5,
                                    self._injected, handle))
        return handle

    def trim_window_log(self, before: float) -> None:
        """Drop log entries no longer reachable by seq_at() queries with
        ``t >= before`` (the entry at ``before``'s floor is kept)."""
        idx = bisect_right(self._log_times, before) - 1
        if idx > 0:
            del self._log_times[:idx]
            del self._log_seqs[:idx]

    def next_live_time(self) -> float:
        """Time of the next live heap item, or ``inf`` when idle.  Prunes
        dead timers off the heap top so an armed-then-cancelled RTO does
        not masquerade as pending work (a conservative sync window would
        otherwise stall on it)."""
        heap = self._heap
        while heap:
            item = heap[0][-1]
            if type(item) is _CallbackHandle and item.cancelled:
                heapq.heappop(heap)
                if self._dead_handles > 0:
                    self._dead_handles -= 1
                continue
            return heap[0][0]
        return float("inf")

    def run_window(self, until: float) -> None:
        """Run one conservative sync window: like ``run(until=until)``
        but tolerant of injected 4-tuple heap entries, and appending to
        the window log so later injections can interpolate seqs.

        A separate copy of the run loop (rather than a flag in ``run``)
        keeps the single-process hot path untouched.
        """
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        times = self._log_times
        seqs = self._log_seqs
        while heap:
            entry = heap[0]
            _time = entry[0]
            if _time > until:
                break
            pop(heap)
            item = entry[-1]
            if _time != self.now:
                times.append(self.now)
                seqs.append(self._seq)
                self.now = _time
            kind = type(item)
            if kind is _ProcWake:
                if not item.fired and heap and heap[0][0] == _time:
                    item.fired = True
                    self._seq += 1
                    push(heap, (_time, self._seq, item))
                    continue
                item.fired = False
                self._events_processed += 1
                item.proc._resume(_WAKE_VALUE)
                continue
            if kind is _BurstWalk:
                if not item.fired and heap and heap[0][0] == _time:
                    item.fired = True
                    self._seq += 1
                    push(heap, (_time, self._seq, item))
                    continue
                item.fired = False
                self._events_processed += 1
                idx = item.idx
                item.idx = idx + 1
                fn = item.fns[idx]
                if fn is not None:
                    fn()
                if item.idx < len(item.fns):
                    self._seq += 1
                    push(heap, (item.times[item.idx], self._seq, item))
                elif item.proc is not None:
                    proc, item.proc = item.proc, None
                    proc._resume(_WAKE_VALUE)
                continue
            if kind is _CallbackHandle:
                if not item.cancelled:
                    item._fn(*item._args)
                elif self._dead_handles > 0:
                    self._dead_handles -= 1
                continue
            event = item
            callbacks, event.callbacks = event.callbacks, None
            for cb in callbacks:
                cb(event)
            self._events_processed += 1
            if not event._ok and not event._defused and not callbacks:
                raise event._value
        self.now = until
        times.append(until)
        seqs.append(self._seq)
