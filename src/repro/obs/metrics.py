"""Metrics registry: counters, gauges, exact-percentile histograms.

The registry stores every sample, so ``percentile`` answers with an
*exact* order statistic via the nearest-rank definition::

    percentile(p) = sorted_samples[ceil(p/100 * n) - 1]    (p > 0)
    percentile(0) = min(samples)

The registry itself never reads any clock; what a sample means is the
caller's choice.  Simulation call sites record simulated time or
simulated counts; :mod:`repro.serve` reuses the same registry for
wall-clock service latencies.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Union


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A named last-value-wins instrument, tracking its seen extremes."""

    __slots__ = ("name", "value", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def set(self, x: float) -> None:
        self.value = x
        self.min = x if self.min is None else min(self.min, x)
        self.max = x if self.max is None else max(self.max, x)


class ExactHistogram:
    """Stores all samples; percentiles are exact order statistics."""

    __slots__ = ("name", "samples", "_sorted")

    def __init__(self, name: str = "hist"):
        self.name = name
        self.samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def add(self, x: float) -> None:
        self.samples.append(x)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError("empty histogram has no mean")
        return sum(self.samples) / len(self.samples)

    def percentile(self, p: float) -> float:
        """Exact nearest-rank percentile; ``p`` in [0, 100].

        Raises :class:`ValueError` on an empty histogram — an absent
        latency distribution is a measurement bug, not a zero.
        """
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        if not self.samples:
            raise ValueError("percentile of an empty histogram")
        s = self._sorted
        if s is None:
            s = self._sorted = sorted(self.samples)
        if p == 0:
            return s[0]
        # max(1, ...): p/100*n can underflow to 0.0 for denormal p, and
        # rank 0 would wrap the index around to the maximum sample.
        rank = max(1, math.ceil(p / 100.0 * len(s)))
        return s[rank - 1]

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.percentile(0),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.percentile(100),
        }


Instrument = Union[Counter, Gauge, ExactHistogram]


class MetricsRegistry:
    """Dotted-name bag of instruments (``fw.stage_us.build_tcp_hdr``)."""

    def __init__(self):
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name)
        elif not isinstance(inst, cls):
            raise TypeError(f"metric {name!r} is {type(inst).__name__}, "
                            f"not {cls.__name__}")
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> ExactHistogram:
        return self._get(name, ExactHistogram)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> Dict[str, object]:
        """Flat JSON-friendly dict, sorted by metric name."""
        out: Dict[str, object] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Counter):
                out[name] = inst.value
            elif isinstance(inst, Gauge):
                out[name] = {"value": inst.value, "min": inst.min,
                             "max": inst.max}
            else:
                out[name] = (inst.summary() if inst.count
                             else {"count": 0})
        return out

    def dump(self) -> Dict[str, dict]:
        """Lossless, picklable export: every sample, not just summaries.

        ``snapshot()`` is for reports; ``dump()`` is for merging
        registries from cluster shard workers — histogram percentiles
        over a merged registry must be computed from the union of the
        raw samples, which a summary cannot provide.
        """
        out: Dict[str, dict] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Counter):
                out[name] = {"type": "counter", "value": inst.value}
            elif isinstance(inst, Gauge):
                out[name] = {"type": "gauge", "value": inst.value,
                             "min": inst.min, "max": inst.max}
            else:
                out[name] = {"type": "histogram",
                             "samples": list(inst.samples)}
        return out

    def render(self) -> str:
        """Human-readable report, one metric per line."""
        lines = ["metrics:"]
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Counter):
                lines.append(f"  {name:40s} {inst.value:>12,}")
            elif isinstance(inst, Gauge):
                lines.append(f"  {name:40s} {inst.value!r:>12} "
                             f"(min {inst.min!r}, max {inst.max!r})")
            elif inst.count:
                s = inst.summary()
                lines.append(
                    f"  {name:40s} n={s['count']:<7,} mean={s['mean']:.2f} "
                    f"p50={s['p50']:.2f} p90={s['p90']:.2f} "
                    f"p99={s['p99']:.2f} max={s['max']:.2f}")
            else:
                lines.append(f"  {name:40s} n=0")
        return "\n".join(lines)
