"""Cross-layer observability: spans, metrics, pcapng, trace assertions.

It builds on the packet capture of ``tools/wiretap.py`` and adds:

* :class:`TraceRecorder` — span/event tracer following a WR from
  ``post_send`` through firmware stages, the wire, and the remote CQE;
  exports JSONL and Perfetto-loadable Chrome ``trace_event`` JSON.
* :class:`MetricsRegistry` — counters, gauges, and exact-percentile
  simulated-time histograms, instrumented across firmware, host stack,
  TCP, fabric, and recovery.
* :mod:`repro.obs.pcapng` — Wireshark-loadable captures from wiretaps.
* :class:`TraceQuery` — assertion API for tests
  (``assert_span_order`` / ``assert_no_event`` / ``assert_latency_between``).

Zero-cost-when-disabled contract: hot paths guard every hook with::

    from .. import obs
    ...
    rec = obs.RECORDER
    if rec is not None:
        rec.event("link", "drop", ...)

``RECORDER`` is ``None`` unless a test or the CLI calls :func:`install`
(or enters :func:`capture`), so the disabled cost is one module-attribute
load and a falsy check — and, like the fast paths, an *enabled* recorder
must never change simulated results (see ``tests/test_obs_overhead.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .metrics import Counter, ExactHistogram, Gauge, MetricsRegistry
from .query import TraceAssertionError, TraceQuery
from .trace import TraceEvent, TraceRecorder

#: The active recorder, or None when tracing is off.  Hot paths read this
#: directly; everything else goes through install/uninstall/capture.
RECORDER: Optional[TraceRecorder] = None


def install(sim, capacity: int = 1_000_000) -> TraceRecorder:
    """Activate tracing on ``sim``; returns the new recorder."""
    global RECORDER
    RECORDER = TraceRecorder(sim, capacity=capacity)
    return RECORDER


def uninstall() -> Optional[TraceRecorder]:
    """Deactivate tracing; returns the recorder that was active."""
    global RECORDER
    previous, RECORDER = RECORDER, None
    return previous


@contextmanager
def capture(sim, capacity: int = 1_000_000):
    """``with obs.capture(sim) as rec:`` — scoped tracing for tests."""
    rec = install(sim, capacity=capacity)
    try:
        yield rec
    finally:
        if RECORDER is rec:
            uninstall()


__all__ = [
    "Counter", "ExactHistogram", "Gauge", "MetricsRegistry",
    "TraceAssertionError", "TraceEvent", "TraceQuery", "TraceRecorder",
    "RECORDER", "install", "uninstall", "capture",
]
