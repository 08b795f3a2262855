"""Declarative fault plans.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec` entries.
Each spec names one fault kind and scopes it by probability, burst
length, active time window, and an optional packet predicate.  Plans are
pure data: the same plan can be installed on several injection points,
each with its own RNG stream (see :mod:`repro.faults.inject`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigError
from ..net.packet import Packet

FAULT_KINDS = ("drop", "duplicate", "reorder", "delay", "corrupt")


@dataclass
class FaultSpec:
    """One scripted fault.

    ``kind``    one of :data:`FAULT_KINDS`.  ``reorder`` and ``delay``
                are the same mechanism (extra delivery delay lets later
                traffic overtake); they are kept distinct for counters
                and intent.
    ``rate``    per-packet trigger probability in [0, 1].
    ``start``/``stop``  active sim-time window in µs (stop=None: forever).
    ``burst``   once triggered, also hit the next ``burst - 1`` matching
                packets unconditionally (correlated loss / error bursts).
    ``delay``/``jitter``  base extra delay plus uniform jitter (µs), for
                ``delay`` and ``reorder`` kinds.
    ``copies``  extra deliveries for ``duplicate``.
    ``match``   optional predicate on the :class:`Packet`; None = all.
    """

    kind: str
    rate: float = 1.0
    start: float = 0.0
    stop: Optional[float] = None
    burst: int = 1
    delay: float = 0.0
    jitter: float = 0.0
    copies: int = 1
    match: Optional[Callable[[Packet], bool]] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r} "
                              f"(one of {FAULT_KINDS})")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate {self.rate} outside [0, 1]")
        if self.burst < 1:
            raise ConfigError("burst must be >= 1")
        if self.copies < 1:
            raise ConfigError("copies must be >= 1")
        if self.delay < 0 or self.jitter < 0:
            raise ConfigError("delay and jitter must be non-negative")
        if self.stop is not None and self.stop < self.start:
            raise ConfigError("fault window ends before it starts")

    def active(self, now: float) -> bool:
        return now >= self.start and (self.stop is None or now < self.stop)

    def matches(self, pkt: Packet) -> bool:
        return self.match is None or bool(self.match(pkt))

    def describe(self) -> str:
        window = ""
        if self.start or self.stop is not None:
            stop = "inf" if self.stop is None else f"{self.stop:g}"
            window = f" @[{self.start:g},{stop})us"
        extra = ""
        if self.kind in ("delay", "reorder"):
            extra = f" +{self.delay:g}us" + \
                (f"~{self.jitter:g}" if self.jitter else "")
        elif self.kind == "duplicate" and self.copies > 1:
            extra = f" x{self.copies}"
        burst = f" burst={self.burst}" if self.burst > 1 else ""
        return f"{self.kind} p={self.rate:g}{extra}{burst}{window}"


class FaultPlan:
    """An ordered collection of fault specs with a builder interface::

        plan = (FaultPlan()
                .drop(0.02)
                .corrupt(0.01, start=5_000, stop=50_000)
                .reorder(0.05, delay=40.0, jitter=20.0))
    """

    def __init__(self, specs: Optional[List[FaultSpec]] = None):
        self.specs: List[FaultSpec] = list(specs or [])

    # -- builder -----------------------------------------------------------

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def drop(self, rate: float, **kw) -> "FaultPlan":
        return self.add(FaultSpec("drop", rate=rate, **kw))

    def duplicate(self, rate: float, copies: int = 1, **kw) -> "FaultPlan":
        return self.add(FaultSpec("duplicate", rate=rate, copies=copies, **kw))

    def reorder(self, rate: float, delay: float, jitter: float = 0.0,
                **kw) -> "FaultPlan":
        return self.add(FaultSpec("reorder", rate=rate, delay=delay,
                                  jitter=jitter, **kw))

    def corrupt(self, rate: float, **kw) -> "FaultPlan":
        return self.add(FaultSpec("corrupt", rate=rate, **kw))

    # -- container protocol ------------------------------------------------

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def describe(self) -> str:
        if not self.specs:
            return "no faults"
        return "; ".join(s.describe() for s in self.specs)

    def __repr__(self):
        return f"<FaultPlan {self.describe()}>"


@dataclass(frozen=True)
class FaultEntry:
    """A pure-data, hashable twin of :class:`FaultSpec` (no predicate).

    This is the form fault plans take inside frozen cluster/scenario
    specs: picklable across worker processes and loadable from
    YAML/JSON.  :meth:`to_spec` compiles it back into the live form.
    """

    kind: str
    rate: float = 1.0
    start: float = 0.0
    stop: Optional[float] = None
    burst: int = 1
    delay: float = 0.0
    jitter: float = 0.0
    copies: int = 1

    def __post_init__(self):
        self.to_spec()          # reuse FaultSpec's validation

    def to_spec(self) -> FaultSpec:
        return FaultSpec(kind=self.kind, rate=self.rate, start=self.start,
                         stop=self.stop, burst=self.burst, delay=self.delay,
                         jitter=self.jitter, copies=self.copies)

    def to_dict(self) -> Dict[str, object]:
        """Minimal dict form: defaults are omitted (stable YAML/JSON)."""
        out: Dict[str, object] = {}
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if f.name == "kind" or value != f.default:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEntry":
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown fault entry keys {sorted(unknown)}")
        return cls(**data)


#: Valid injection-point directions per target kind.
_BINDING_DIRECTIONS = {"host": ("tx", "rx"), "trunk": ("a2b", "b2a")}


@dataclass(frozen=True)
class FaultBinding:
    """A fault plan bound to one named injection point, as pure data.

    ``where`` addresses a link direction in a blueprint fabric:

    * ``host:<name>:tx`` — the direction leaving host ``<name>``'s NIC;
    * ``host:<name>:rx`` — the direction arriving at the NIC;
    * ``trunk:<index>:a2b`` / ``:b2a`` — one direction of trunk
      ``<index>`` in blueprint order.

    The injector RNG stream is named after ``where``, so the same
    binding behaves bit-identically however the fabric is sharded.
    """

    where: str
    entries: Tuple[FaultEntry, ...]

    def __post_init__(self):
        self.target()           # validate the address
        if not self.entries:
            raise ConfigError(f"fault binding {self.where!r} has no entries")

    def target(self) -> Tuple[str, str, str]:
        """Parse ``where`` into ``(kind, selector, direction)``."""
        parts = self.where.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"bad fault binding {self.where!r} (want "
                f"host:<name>:tx|rx or trunk:<index>:a2b|b2a)")
        kind, selector, direction = parts
        if kind not in _BINDING_DIRECTIONS:
            raise ConfigError(f"bad fault target kind {kind!r} in "
                              f"{self.where!r}")
        if direction not in _BINDING_DIRECTIONS[kind]:
            raise ConfigError(
                f"bad direction {direction!r} for {kind} binding "
                f"{self.where!r} (one of {_BINDING_DIRECTIONS[kind]})")
        if kind == "trunk" and not selector.isdigit():
            raise ConfigError(f"trunk selector must be an index: "
                              f"{self.where!r}")
        return kind, selector, direction

    def plan(self) -> FaultPlan:
        return FaultPlan([e.to_spec() for e in self.entries])

    def rng_stream_name(self) -> str:
        return f"fault.{self.where}"

    def to_dict(self) -> Dict[str, object]:
        return {"where": self.where,
                "plan": [e.to_dict() for e in self.entries]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultBinding":
        unknown = set(data) - {"where", "plan"}
        if unknown:
            raise ConfigError(f"unknown fault binding keys "
                              f"{sorted(unknown)}")
        if "where" not in data or "plan" not in data:
            raise ConfigError("fault binding needs 'where' and 'plan'")
        return cls(where=data["where"],
                   entries=tuple(FaultEntry.from_dict(e)
                                 for e in data["plan"]))
