"""Structured span/event tracer with stable IDs.

A :class:`TraceRecorder` collects :class:`TraceEvent` records keyed by
simulated time.  Three shapes of record exist, mirroring the Chrome
``trace_event`` phases they export to:

* instant events (``ph="i"``) — point observations ("packet dropped");
* async span begin/end pairs (``ph="b"``/``ph="e"``) sharing a span id —
  a WR's life from ``post_send`` to its CQE, across NICs and the wire;
* complete events (``ph="X"``) with a known duration — firmware pipeline
  stages, whose occupancy is known when the stage starts.

Span IDs come from a deterministic counter, so two identical simulations
produce byte-identical traces.  Exports: JSONL (one event per line, easy
to grep/join) and Chrome ``trace_event`` JSON, loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .metrics import MetricsRegistry


class TraceEvent:
    """One trace record.  ``fields`` is a small dict of JSON-able extras."""

    __slots__ = ("ts", "ph", "cat", "name", "span", "dur", "track", "fields")

    def __init__(self, ts: float, ph: str, cat: str, name: str,
                 span: Optional[int] = None, dur: Optional[float] = None,
                 track: str = "", fields: Optional[dict] = None):
        self.ts = ts
        self.ph = ph
        self.cat = cat
        self.name = name
        self.span = span
        self.dur = dur
        self.track = track
        self.fields = fields

    def to_dict(self) -> dict:
        d = {"ts": self.ts, "ph": self.ph, "cat": self.cat,
             "name": self.name}
        if self.span is not None:
            d["span"] = self.span
        if self.dur is not None:
            d["dur"] = self.dur
        if self.track:
            d["track"] = self.track
        if self.fields:
            d["fields"] = self.fields
        return d

    def __repr__(self):
        extra = f" span={self.span}" if self.span is not None else ""
        return (f"<TraceEvent {self.ts:.3f}us {self.ph} "
                f"{self.cat}:{self.name}{extra}>")


class TraceRecorder:
    """Bounded in-memory recorder bound to one simulator.

    Hot paths never call this directly; they check the module-level
    ``repro.obs.RECORDER`` first (``None`` when tracing is off), so a
    disabled recorder costs one global load per hook.
    """

    def __init__(self, sim, capacity: int = 1_000_000):
        self.sim = sim
        self.capacity = capacity
        self.records: List[TraceEvent] = []
        self.dropped = 0
        self.metrics = MetricsRegistry()
        self._next_span = 0
        self._open: Dict[tuple, Tuple[int, float, str, str, str]] = {}

    # -- recording ---------------------------------------------------------

    def _append(self, ev: TraceEvent) -> None:
        if len(self.records) >= self.capacity:
            # The counter is created by the first drop, so a run that
            # drops nothing (every gate golden) gains no metrics key.
            self.dropped += 1
            self.metrics.counter("obs.dropped_events").add()
            return
        self.records.append(ev)

    def event(self, cat: str, name: str, track: str = "",
              **fields) -> None:
        """Record an instant event at the current simulated time."""
        self._append(TraceEvent(self.sim.now, "i", cat, name,
                                track=track, fields=fields or None))

    def begin(self, cat: str, name: str, key: tuple, track: str = "",
              **fields) -> int:
        """Open an async span under ``key``; returns its stable span id.

        Re-beginning a live key (e.g. a replayed WR after recovery)
        closes the stale span as abandoned first, so exports never hold
        dangling begins.
        """
        if key in self._open:
            self.end(key, abandoned=True)
        self._next_span += 1
        span = self._next_span
        self._open[key] = (span, self.sim.now, cat, name, track)
        self._append(TraceEvent(self.sim.now, "b", cat, name, span=span,
                                track=track, fields=fields or None))
        return span

    def end(self, key: tuple, **fields) -> Optional[float]:
        """Close the span under ``key``; returns its duration in µs.

        An unknown key records an ``obs:orphan_end`` instant instead of
        raising — completion paths outrun instrumentation during flushes
        and that must never take the simulation down.
        """
        entry = self._open.pop(key, None)
        if entry is None:
            self._append(TraceEvent(self.sim.now, "i", "obs", "orphan_end",
                                    fields={"key": repr(key)}))
            return None
        span, t0, cat, name, track = entry
        self._append(TraceEvent(self.sim.now, "e", cat, name, span=span,
                                track=track, fields=fields or None))
        return self.sim.now - t0

    def complete(self, cat: str, name: str, dur: float, track: str = "",
                 **fields) -> None:
        """Record a duration-known event starting now (firmware stages)."""
        self._append(TraceEvent(self.sim.now, "X", cat, name, dur=dur,
                                track=track, fields=fields or None))

    def open_spans(self) -> int:
        return len(self._open)

    # -- export ------------------------------------------------------------

    def to_jsonl(self, path: str) -> int:
        """One JSON object per line; returns the number of lines."""
        with open(path, "w") as fh:
            for ev in self.records:
                fh.write(json.dumps(ev.to_dict(), sort_keys=True))
                fh.write("\n")
        return len(self.records)

    def chrome_trace(self) -> dict:
        """The capture as a Chrome ``trace_event`` object.

        Tracks become named threads of one process; async spans use
        ``b``/``e`` with the span id, stage occupancy uses complete
        (``X``) events.  Timestamps are already in microseconds — the
        trace_event native unit — so sim time maps through unchanged.
        """
        events: List[dict] = []
        tids: Dict[str, int] = {}

        def tid(track: str) -> int:
            t = tids.get(track)
            if t is None:
                t = tids[track] = len(tids) + 1
                events.append({"ph": "M", "pid": 1, "tid": t,
                               "name": "thread_name",
                               "args": {"name": track or "events"}})
            return t

        events.append({"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
                       "args": {"name": "repro simulation"}})
        for ev in self.records:
            out = {"pid": 1, "tid": tid(ev.track), "ts": ev.ts,
                   "ph": ev.ph, "cat": ev.cat or "span",
                   "name": ev.name or "span"}
            if ev.ph in ("b", "e"):
                out["id"] = ev.span
            if ev.ph == "X":
                out["dur"] = ev.dur
            if ev.ph == "i":
                out["s"] = "t"          # thread-scoped instant
            if ev.fields:
                out["args"] = ev.fields
            events.append(out)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome(self, path: str) -> int:
        trace = self.chrome_trace()
        with open(path, "w") as fh:
            json.dump(trace, fh)
            fh.write("\n")
        return len(trace["traceEvents"])
