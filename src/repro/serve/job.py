"""The unit of service work: one submitted scenario run.

A :class:`Job` is the server-side record of a client submission — the
validated scenario spec, the client-supplied idempotency ``key``, and
everything the service learns while executing it (attempts, timestamps,
the result bundle or a structured error).  Jobs are plain data: the
exact dict :meth:`to_dict` returns is what the HTTP API serves, what
the journal persists, and what a recovered server reloads.

State machine (terminal states in caps)::

    queued -> running -> DONE
                 |-----> FAILED        (invariant violation, bad spec,
                 |                      retry budget exhausted)
                 |-----> QUARANTINED   (circuit breaker: poison job)
                 |-----> INTERRUPTED   (drain/crash, not retryable)
                 '-----> queued        (worker died/wedged; supervised
                                        retry with backoff)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from ..errors import ConfigError

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"
INTERRUPTED = "interrupted"

STATES = (QUEUED, RUNNING, DONE, FAILED, QUARANTINED, INTERRUPTED)
TERMINAL_STATES = frozenset((DONE, FAILED, QUARANTINED, INTERRUPTED))


@dataclass
class Job:
    """One submission and its lifecycle record."""

    id: str
    key: str                       # client idempotency key
    client: str                    # per-client in-flight caps
    scenario: str                  # spec name: the quarantine unit
    spec: Dict                     # canonical ScenarioSpec dict
    state: str = QUEUED
    attempts: int = 0              # execution attempts started
    max_attempts: int = 3
    timeout_s: float = 60.0        # per-attempt wall-clock deadline
    submitted_at: float = 0.0      # wall epoch seconds
    started_at: Optional[float] = None    # latest attempt start
    finished_at: Optional[float] = None
    result: Optional[Dict] = None  # digests/violations bundle when done
    error: Optional[Dict] = None   # {"kind", "message"} when not
    worker_pid: Optional[int] = None      # live attempt's forked pid

    def __post_init__(self):
        if self.state not in STATES:
            raise ConfigError(f"job {self.id}: bad state {self.state!r}")
        if self.max_attempts < 1:
            raise ConfigError(f"job {self.id}: max_attempts must be >= 1")

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "Job":
        fields = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - fields
        if unknown:
            raise ConfigError(f"job record: unknown keys {sorted(unknown)}")
        return cls(**data)


def job_error(kind: str, message: str, **extra) -> Dict:
    """The one structured error shape jobs and HTTP responses share."""
    return dict(extra, kind=kind, message=message)


@dataclass
class ServeConfig:
    """Service tuning knobs (one place, all defaults overridable)."""

    data_dir: str = "serve-data"
    host: str = "127.0.0.1"
    port: int = 0                        # 0 = ephemeral; see serve.json
    pool_size: int = 2                   # concurrent forked workers
    max_queue: int = 64                  # admission: bounded job queue
    client_cap: int = 8                  # admission: per-client in-flight
    max_attempts: int = 3                # supervised retries per job
    default_timeout_s: float = 60.0      # per-attempt deadline fallback
    breaker_deaths: int = 3              # consecutive deaths -> quarantine
    breaker_reset_s: float = 30.0        # quarantine cooldown
    retry_base_s: float = 0.2            # backoff: first retry delay
    retry_max_s: float = 5.0             # backoff cap
    drain_timeout_s: float = 30.0        # SIGTERM: wait for running jobs
    snapshot_interval_s: float = 5.0     # periodic store snapshots
    seed: int = 1                        # retry-jitter RNG seed

    def __post_init__(self):
        if self.pool_size < 1 or self.max_queue < 1 or self.client_cap < 1:
            raise ConfigError("pool_size/max_queue/client_cap must be >= 1")
        if self.max_attempts < 1 or self.breaker_deaths < 1:
            raise ConfigError("max_attempts/breaker_deaths must be >= 1")
