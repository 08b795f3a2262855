"""Admission control: shed load at the door, never collapse inside.

The service keeps a *bounded* job queue.  When it is full, a submission
is rejected with a structured shed decision (HTTP 429 + ``Retry-After``)
instead of being buffered without bound — the same argument the paper
makes for NIC-resident protocol state: a system that accepts more work
than it can retire does not degrade, it collapses.  Two independent
gates:

* **queue depth** — at most ``max_queue`` jobs waiting; the
  ``Retry-After`` estimate is the backlog drained at the measured
  (EWMA) per-job service time across the worker pool;
* **per-client in-flight cap** — one client cannot occupy the whole
  queue; its queued+running jobs are capped at ``client_cap``.

Jobs re-entering after a supervised retry or a server restart bypass
the gates (:meth:`AdmissionQueue.restore`): they were already admitted
once, and re-shedding them would turn recovery into data loss.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Dict, Optional

from .job import Job, job_error

#: Retry-After clamp (seconds): always at least 1, never absurd.
RETRY_AFTER_MIN_S = 1
RETRY_AFTER_MAX_S = 60


class AdmissionQueue:
    """Bounded FIFO of queued jobs plus the client in-flight ledger."""

    def __init__(self, max_queue: int, client_cap: int, pool_size: int,
                 service_time_guess_s: float = 1.0):
        self.max_queue = max_queue
        self.client_cap = client_cap
        self.pool_size = pool_size
        self._queue: deque = deque()
        self._inflight: Dict[str, int] = {}   # client -> queued+running
        self._lock = threading.RLock()        # offer() nests check()
        self._ewma_service_s = service_time_guess_s
        self.high_water = 0
        self.closed = False

    # -- the admission decision ------------------------------------------

    def check(self, job: Job) -> Optional[Dict]:
        """The admission decision alone: None = admissible, else a
        structured shed reason.  The server journals the job *between*
        ``check`` and ``restore`` (under its submit lock, so the queue
        can only shrink in that window) — a job must never be visible
        to the supervisor before it is durable."""
        with self._lock:
            if self.closed:
                return job_error("draining",
                                 "server is draining; not accepting jobs",
                                 retry_after_s=RETRY_AFTER_MAX_S)
            if len(self._queue) >= self.max_queue:
                return job_error(
                    "queue_full",
                    f"job queue is at capacity ({self.max_queue})",
                    retry_after_s=self._retry_after_locked())
            if self._inflight.get(job.client, 0) >= self.client_cap:
                return job_error(
                    "client_cap",
                    f"client {job.client!r} already has "
                    f"{self.client_cap} jobs in flight",
                    retry_after_s=self._retry_after_locked())
            return None

    def offer(self, job: Job) -> Optional[Dict]:
        """Admit ``job`` or return a structured shed decision."""
        with self._lock:
            shed = self.check(job)
            if shed is None:
                self._admit_locked(job)
            return shed

    def restore(self, job: Job) -> None:
        """Re-admit bypassing the gates (retry / restart recovery)."""
        with self._lock:
            self._admit_locked(job)

    def _admit_locked(self, job: Job) -> None:
        self._queue.append(job)
        self._inflight[job.client] = self._inflight.get(job.client, 0) + 1
        self.high_water = max(self.high_water, len(self._queue))

    # -- the worker side -------------------------------------------------

    def take(self) -> Optional[Job]:
        """Pop the next queued job (non-blocking; None when empty)."""
        with self._lock:
            return self._queue.popleft() if self._queue else None

    def release_client(self, client: str) -> None:
        """A job of ``client`` reached a terminal state."""
        with self._lock:
            left = self._inflight.get(client, 0) - 1
            if left > 0:
                self._inflight[client] = left
            else:
                self._inflight.pop(client, None)

    def note_service_time(self, seconds: float) -> None:
        """Fold one completed job's wall time into the EWMA estimate."""
        with self._lock:
            self._ewma_service_s += 0.2 * (seconds - self._ewma_service_s)

    # -- introspection ---------------------------------------------------

    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def retry_after_s(self) -> int:
        with self._lock:
            return self._retry_after_locked()

    def _retry_after_locked(self) -> int:
        backlog = len(self._queue) + self.pool_size  # waiting + running
        est = backlog * self._ewma_service_s / max(1, self.pool_size)
        return max(RETRY_AFTER_MIN_S,
                   min(RETRY_AFTER_MAX_S, math.ceil(est)))

    def close(self) -> None:
        """Stop admitting (drain); queued jobs remain takeable."""
        with self._lock:
            self.closed = True
