"""The supervisor: forked job attempts, restarts, backoff, quarantine.

Each job attempt runs in its own forked worker process (a
:class:`repro.proc.Worker`, like the gate's scenario children and the
cluster's shard workers) so a crashing or wedging scenario can never
take the service down.  The supervisor sleeps in :func:`repro.proc.wait`
until an attempt reports or dies, something falls due (a deadline, a
retry, a snapshot) or an admission wakes it, and applies, in order:

* **worker death** (SIGKILL, segfault, OOM) → the scenario's circuit
  breaker (:class:`repro.recovery.CircuitBreaker` on a wall-clock shim)
  records a failure; while it stays closed the job is re-queued with
  exponential backoff + jitter (:class:`repro.recovery.RetryPolicy`
  semantics, interpreted in seconds);
* **wedge** (per-job deadline exceeded) → terminate, escalate to
  SIGKILL, then treated exactly like a death;
* **poison job** — ``breaker_deaths`` consecutive deaths of one
  scenario trip the breaker: the job is *quarantined* (terminal,
  structured error) instead of crash-looping the pool, and further
  jobs of that scenario are quarantined at dispatch until the cooldown
  admits a half-open probe;
* **in-worker exception / invariant violation** — deterministic
  failures are terminal immediately (a retry would reproduce them) and
  do not count against the breaker: the worker process was healthy.

Everything terminal is recorded exactly once via the store's
terminal-state guard, no matter how attempts raced.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from .. import proc
from ..gate.runner import run_scenario
from ..gate.spec import ScenarioSpec
from ..recovery.breaker import BreakerState, CircuitBreaker
from ..recovery.policy import RetryPolicy
from .admission import AdmissionQueue
from .job import (DONE, FAILED, INTERRUPTED, QUARANTINED, QUEUED, RUNNING,
                  Job, ServeConfig, job_error)
from .store import JobStore


def exec_scenario(spec_dict: Dict) -> Dict:
    """The default executor: validate and run one scenario in-process
    (the gate's single-scenario entry point), returning its bundle."""
    return run_scenario(ScenarioSpec.from_dict(spec_dict))


class _WallClockUs:
    """Adapts the wall clock to the sim-clock interface (µs ``now``)
    that :class:`~repro.recovery.CircuitBreaker` expects."""

    @property
    def now(self) -> float:
        return time.monotonic() * 1e6


class Supervisor:
    """Owns the worker pool; the only writer of job state transitions."""

    def __init__(self, store: JobStore, queue: AdmissionQueue,
                 metrics, config: ServeConfig, executor=None):
        self.store = store
        self.queue = queue
        self.metrics = metrics
        self.config = config
        self.executor = executor or exec_scenario
        self.policy = RetryPolicy(
            base_delay=config.retry_base_s,
            max_delay=config.retry_max_s,
            multiplier=2.0, jitter="full",
            max_attempts=max(2, config.max_attempts),
            first_delay=config.retry_base_s / 2.0)
        self._rng = random.Random(config.seed)
        self._clock = _WallClockUs()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._delays: Dict[str, object] = {}      # job id -> delay iter
        self._running: Dict[proc.Worker, Job] = {}
        self._retries: List[Tuple[float, int, Job]] = []  # (due, n, job)
        self._retry_n = 0
        self._wake = proc.Wake()
        self._stop = False
        self._draining = False
        self._last_snapshot = time.monotonic()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop,
                                        name="serve-supervisor",
                                        daemon=True)
        self._thread.start()

    def notify(self) -> None:
        """A job was admitted: wake the loop to dispatch it now."""
        self._wake.set()

    def worker_pids(self) -> List[int]:
        return [w.pid for w in list(self._running)]

    def breaker(self, scenario: str) -> CircuitBreaker:
        b = self._breakers.get(scenario)
        if b is None:
            b = CircuitBreaker(
                self._clock,
                failure_threshold=self.config.breaker_deaths,
                reset_timeout=self.config.breaker_reset_s * 1e6,
                name=f"serve.{scenario}")
            self._breakers[scenario] = b
        return b

    def drain(self, timeout_s: Optional[float] = None) -> int:
        """Graceful shutdown: no new dispatches, wait for running jobs,
        then kill stragglers as ``interrupted``.  Returns the straggler
        count (0 = fully clean)."""
        timeout_s = (self.config.drain_timeout_s
                     if timeout_s is None else timeout_s)
        self._draining = True
        self.queue.close()
        self._wake.set()
        if self._thread is not None:
            # The loop returns by itself once nothing is running or due.
            self._thread.join(timeout_s)
            self._halt()
        stragglers = list(self._running.items())
        for worker, job in stragglers:
            worker.kill()
            self._finish(
                job, INTERRUPTED,
                error=job_error("drain_timeout",
                                f"still running after the "
                                f"{timeout_s:g}s drain window"))
        self._running.clear()
        self.store.snapshot()
        return len(stragglers)

    def freeze_and_kill(self) -> None:
        """The in-process stand-in for SIGKILLing the whole server
        (tests): stop supervising *without* any further journal writes,
        then kill the orphan-to-be workers."""
        self._halt()
        for worker in self._running:
            worker.kill()
        self._running.clear()

    def _halt(self) -> None:
        """Stop the loop before its next state transition and join it."""
        self._stop = True
        self._wake.set()
        if self._thread is not None:
            self._thread.join(proc.GRACE_S * 3)

    # -- the supervision loop --------------------------------------------

    def _loop(self) -> None:
        while not self._stop:
            self._dispatch()
            if self._draining and not self._running:
                return
            ready = proc.wait(self._running, self._timeout(), self._wake)
            if self._stop:
                return
            now = time.monotonic()
            for worker, job in list(self._running.items()):
                if worker in ready:
                    self._reap(worker)
                elif now >= worker.started + job.timeout_s:
                    self._wedged(worker)
            self._gauges()
            if now >= self._last_snapshot + self.config.snapshot_interval_s:
                self.store.snapshot()
                self._last_snapshot = time.monotonic()

    def _timeout(self) -> float:
        """Seconds until something is due: an attempt deadline, the next
        snapshot, or — while a pool slot is free — the earliest retry.
        Admission, drain and stop end the wait early via the wake pipe."""
        due = [w.started + job.timeout_s for w, job in self._running.items()]
        due.append(self._last_snapshot + self.config.snapshot_interval_s)
        if self._retries and len(self._running) < self.config.pool_size:
            due.append(self._retries[0][0])
        return max(0.0, min(due) - time.monotonic())

    def _due_retry(self) -> Optional[Job]:
        if self._retries and self._retries[0][0] <= time.monotonic():
            return heapq.heappop(self._retries)[2]
        return None

    def _dispatch(self) -> None:
        while len(self._running) < self.config.pool_size:
            job = self._due_retry()
            if job is None and not self._draining:
                job = self.queue.take()
            if job is None:
                return
            if not self.breaker(job.scenario).allow():
                b = self.breaker(job.scenario)
                self._finish(job, QUARANTINED, error=job_error(
                    "quarantined",
                    f"scenario {job.scenario!r} is quarantined after "
                    f"{b.consecutive_failures} consecutive worker "
                    f"deaths; cooldown "
                    f"{b.cooldown_remaining / 1e6:.1f}s remains"))
                continue
            job.attempts += 1
            worker = proc.Worker(proc.reply, self.executor, job.spec)
            self.store.transition(
                job.id, RUNNING, attempts=job.attempts,
                started_at=time.time(), worker_pid=worker.pid)
            self._running[worker] = job
            if job.attempts == 1:
                self.metrics.histogram("serve.wait_s").add(
                    max(0.0, time.time() - job.submitted_at))

    def _reap(self, worker: proc.Worker) -> None:
        job = self._running[worker]
        try:
            result = worker.recv()[1]
        except proc.WorkerDied as exc:
            self._attempt_died(worker, str(exc))
            return
        except proc.WorkerError as exc:     # deterministic: no retry
            result, error = None, job_error(exc.kind, exc.text)
        else:
            violations = (result or {}).get("violations")
            error = (job_error("invariant_failed", "; ".join(violations))
                     if violations else None)
        del self._running[worker]
        worker.close()
        self.breaker(job.scenario).record_success()
        self.queue.note_service_time(worker.wall())
        self._finish(job, FAILED if error else DONE, result=result,
                     error=error)

    def _wedged(self, worker: proc.Worker) -> None:
        worker.kill()
        self.metrics.counter("serve.worker_wedged").add()
        self._attempt_died(
            worker,
            f"wedged: exceeded the {self._running[worker].timeout_s:g}s "
            f"attempt deadline; terminated")

    def _attempt_died(self, worker: proc.Worker, detail: str) -> None:
        job = self._running.pop(worker)
        worker.close()
        self.metrics.counter("serve.worker_deaths").add()
        breaker = self.breaker(job.scenario)
        breaker.record_failure()
        if breaker.state is BreakerState.OPEN:
            self._finish(job, QUARANTINED, error=job_error(
                "quarantined",
                f"scenario {job.scenario!r} quarantined: "
                f"{breaker.consecutive_failures} consecutive worker "
                f"deaths (last: {detail})"))
            return
        if job.attempts >= job.max_attempts:
            self._finish(job, FAILED, error=job_error(
                "retry_exhausted",
                f"attempt {job.attempts}/{job.max_attempts} died: "
                f"{detail}"))
            return
        delays = self._delays.get(job.id)
        if delays is None:
            delays = self._delays[job.id] = self.policy.delays(self._rng)
        try:
            delay = next(delays)
        except StopIteration:  # pragma: no cover - attempts cap first
            delay = self.policy.max_delay
        self.store.transition(job.id, QUEUED, worker_pid=None,
                              error=job_error("retrying", detail))
        self._retry_n += 1
        heapq.heappush(self._retries,
                       (time.monotonic() + delay, self._retry_n, job))
        self.metrics.counter("serve.retries").add()

    def _finish(self, job: Job, state: str, result=None,
                error=None) -> None:
        changed = self.store.transition(
            job.id, state, finished_at=time.time(), worker_pid=None,
            result=result, error=error)
        self._delays.pop(job.id, None)
        if not changed:     # already terminal: the exactly-once guard
            return
        self.queue.release_client(job.client)
        self.metrics.counter(f"serve.{state}").add()
        self.metrics.histogram("serve.total_s").add(
            max(0.0, time.time() - job.submitted_at))

    def _gauges(self) -> None:
        self.metrics.gauge("serve.queue_depth").set(self.queue.depth())
        self.metrics.gauge("serve.running").set(len(self._running))
