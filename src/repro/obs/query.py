"""Trace-based test assertions.

``TraceQuery`` wraps a recorded event stream and lets tests assert on
*causality* — the order messages moved through the layers — instead of
only on endpoint state.  Failures raise :class:`TraceAssertionError`
(an ``AssertionError`` subclass, so pytest renders it natively) with
enough of the surrounding trace to debug from the failure message.
"""

from __future__ import annotations

from typing import List, Optional

from .trace import TraceEvent


class TraceAssertionError(AssertionError):
    pass


def _match(ev: TraceEvent, cat: Optional[str], name: Optional[str],
           fields: dict) -> bool:
    if cat is not None and ev.cat != cat:
        return False
    if name is not None and ev.name != name:
        return False
    if fields:
        have = ev.fields or {}
        for k, v in fields.items():
            if k == "ph":               # reserved: match the event phase
                if ev.ph != v:
                    return False
            elif k == "track":          # reserved: match the track name
                if ev.track != v:
                    return False
            elif have.get(k) != v:
                return False
    return True


class TraceQuery:
    """Filter and assert over a list of :class:`TraceEvent` records.

    Field kwargs match against ``TraceEvent.fields``, with two reserved
    names matching event attributes instead: ``ph`` (the phase — pass
    ``ph="b"`` to count span *begins* without their matching ends) and
    ``track`` (disambiguates identically-named events from different
    hosts, e.g. both nodes' ``qp.error`` for their local QP 1).
    """

    def __init__(self, source):
        # Accepts a TraceRecorder or a plain list of events.
        self.records: List[TraceEvent] = list(getattr(source, "records",
                                                      source))

    # -- filtering ---------------------------------------------------------

    def events(self, cat: Optional[str] = None, name: Optional[str] = None,
               **fields) -> List[TraceEvent]:
        return [ev for ev in self.records if _match(ev, cat, name, fields)]

    def count(self, cat: Optional[str] = None, name: Optional[str] = None,
              **fields) -> int:
        return len(self.events(cat, name, **fields))

    def first(self, cat: Optional[str] = None, name: Optional[str] = None,
              **fields) -> Optional[TraceEvent]:
        for ev in self.records:
            if _match(ev, cat, name, fields):
                return ev
        return None

    def last(self, cat: Optional[str] = None, name: Optional[str] = None,
             **fields) -> Optional[TraceEvent]:
        for ev in reversed(self.records):
            if _match(ev, cat, name, fields):
                return ev
        return None

    def _describe(self, limit: int = 12) -> str:
        shown = [repr(ev) for ev in self.records[:limit]]
        if len(self.records) > limit:
            shown.append(f"... {len(self.records) - limit} more")
        return "\n  ".join(shown) or "<empty trace>"

    # -- assertions --------------------------------------------------------

    def assert_span_order(self, *names: str, cat: Optional[str] = None,
                          **fields) -> List[TraceEvent]:
        """Assert the named events occur as a time-ordered subsequence.

        Each name must appear at or after the previous match; unrelated
        events in between are fine.  Returns the matched events, so
        callers can chain further checks on their fields.
        """
        if not names:
            raise ValueError("assert_span_order needs at least one name")
        matched: List[TraceEvent] = []
        idx = 0
        for name in names:
            while idx < len(self.records):
                ev = self.records[idx]
                idx += 1
                if _match(ev, cat, name, fields):
                    matched.append(ev)
                    break
            else:
                raise TraceAssertionError(
                    f"event {name!r} not found after "
                    f"{[e.name for e in matched]!r} (cat={cat!r}, "
                    f"fields={fields!r}); trace:\n  {self._describe()}")
        return matched

    def assert_no_event(self, cat: Optional[str] = None,
                        name: Optional[str] = None,
                        after: float = float("-inf"), **fields) -> None:
        """Assert no matching event exists at/after simulated time ``after``."""
        for ev in self.records:
            if ev.ts >= after and _match(ev, cat, name, fields):
                raise TraceAssertionError(
                    f"forbidden event present: {ev!r} fields={ev.fields!r} "
                    f"(after={after})")

    def assert_latency_between(self, first: str, second: str,
                               max_us: float, min_us: float = 0.0,
                               cat: Optional[str] = None,
                               **fields) -> float:
        """Assert sim-time from first ``first`` to next ``second`` is in
        ``[min_us, max_us]``; returns the measured latency."""
        start = self.first(cat, first, **fields)
        if start is None:
            raise TraceAssertionError(
                f"no {first!r} event (cat={cat!r}); "
                f"trace:\n  {self._describe()}")
        end = None
        for ev in self.records:
            if ev.ts >= start.ts and _match(ev, cat, second, fields):
                end = ev
                break
        if end is None:
            raise TraceAssertionError(
                f"no {second!r} event after {first!r} at {start.ts:.3f}us; "
                f"trace:\n  {self._describe()}")
        latency = end.ts - start.ts
        if not min_us <= latency <= max_us:
            raise TraceAssertionError(
                f"latency {first!r}->{second!r} = {latency:.3f}us outside "
                f"[{min_us}, {max_us}]us")
        return latency
