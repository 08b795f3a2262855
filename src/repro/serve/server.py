"""`repro serve`: the long-running simulation service (stdlib-only).

A :class:`ReproServer` wires the crash-safe :class:`~.store.JobStore`,
the :class:`~.admission.AdmissionQueue`, and the
:class:`~.supervisor.Supervisor` behind a threaded HTTP JSON API:

==========================  ===========================================
``POST /jobs``              submit ``{"key", "client", "scenario"}``;
                            202 accepted / 200 already-known (idempotent
                            by ``key``) / 409 same key, different spec /
                            400 invalid spec / 429 shed (+``Retry-After``)
                            / 503 draining
``GET /jobs``               summary list (``?key=`` looks one up)
``GET /jobs/<id>``          one job's full record
``GET /healthz``            liveness: 200 while the process runs
``GET /readyz``             readiness: 503 while draining or supervisor
                            dead — load balancers stop routing here
``GET /metricz``            service metrics snapshot
``POST /drain``             start a graceful drain (same as SIGTERM)
==========================  ===========================================

On boot the server recovers from the journal: completed results load
as-is, queued jobs re-enter the queue, and jobs caught mid-run by the
previous crash are re-queued (attempts permitting) or marked
``interrupted``.  On SIGTERM it drains: readiness flips, submissions
get 503, running jobs finish (bounded), the store snapshots, then the
process exits 0.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..errors import ReproError
from ..gate.spec import ScenarioSpec
from ..obs.metrics import MetricsRegistry
from .admission import AdmissionQueue
from .job import (INTERRUPTED, QUEUED, RUNNING, Job, ServeConfig,
                  job_error)
from .store import JobStore
from .supervisor import Supervisor

ENDPOINT_FILE = "serve.json"

_BRIEF_FIELDS = ("id", "key", "client", "scenario", "state", "attempts")


class ReproServer:
    """The service: store + admission + supervisor + HTTP front end."""

    def __init__(self, config: ServeConfig, executor=None,
                 fsync: bool = True):
        self.config = config
        self.metrics = MetricsRegistry()
        self.store = JobStore(config.data_dir, fsync=fsync)
        self.queue = AdmissionQueue(config.max_queue, config.client_cap,
                                    config.pool_size)
        self.supervisor = Supervisor(self.store, self.queue, self.metrics,
                                     config, executor=executor)
        self.draining = False
        self._stopped = False
        self._submit_lock = threading.Lock()
        self._recover()
        from .httpd import bind     # the HTTP stack loads only to serve
        self.http = bind(self, config.host, config.port)
        self._http_thread: Optional[threading.Thread] = None

    # -- boot recovery ---------------------------------------------------

    def _recover(self) -> None:
        """Re-queue or mark-interrupted whatever the last life left."""
        for job in self.store.all_jobs():
            if job.state == RUNNING:
                if job.attempts < job.max_attempts:
                    self.store.transition(
                        job.id, QUEUED, worker_pid=None,
                        error=job_error("interrupted_retry",
                                        "server restarted mid-run; "
                                        "re-queued"))
                    self.queue.restore(job)
                    self.metrics.counter("serve.recovered_requeued").add()
                else:
                    self.store.transition(
                        job.id, INTERRUPTED, worker_pid=None,
                        finished_at=time.time(),
                        error=job_error("interrupted",
                                        "server restarted mid-run with "
                                        "no attempts left"))
                    self.metrics.counter(
                        "serve.recovered_interrupted").add()
            elif job.state == QUEUED:
                self.queue.restore(job)
                self.metrics.counter("serve.recovered_requeued").add()

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        return self.http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "ReproServer":
        self.supervisor.start()
        self._http_thread = threading.Thread(
            target=self.http.serve_forever, kwargs={"poll_interval": 0.1},
            name="serve-http", daemon=True)
        self._http_thread.start()
        # Written aside and renamed into place, so a poller that sees
        # the endpoint file never reads it empty or half written.
        endpoint = os.path.join(self.config.data_dir, ENDPOINT_FILE)
        tmp = f"{endpoint}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump({"url": self.url, "host": self.config.host,
                       "port": self.port, "pid": os.getpid()}, f)
            f.write("\n")
        os.replace(tmp, endpoint)
        return self

    def drain_and_stop(self, timeout_s: Optional[float] = None) -> int:
        """Graceful shutdown; returns straggler count (0 = clean).
        Idempotent: the SIGTERM path and ``POST /drain`` may both call
        it."""
        with self._submit_lock:
            if self._stopped:
                return 0
            self._stopped = True
        self.draining = True
        stragglers = self.supervisor.drain(timeout_s)
        self.http.shutdown()
        self.http.server_close()
        self.store.close()
        return stragglers

    def simulate_crash(self) -> None:
        """Tests' stand-in for ``SIGKILL`` of the whole server: stop
        everything abruptly with no drain, no snapshot, and no further
        journal writes, leaving only what was already fsync'd."""
        self.supervisor.freeze_and_kill()
        self.http.shutdown()
        self.http.server_close()
        self.store._journal.close()

    # -- request handling ------------------------------------------------

    def handle(self, method: str, path: str,
               body: Optional[bytes]) -> Tuple[int, Dict, Dict]:
        parsed = urlparse(path)
        parts = [p for p in parsed.path.split("/") if p]
        query = parse_qs(parsed.query)
        if method == "GET":
            if parts == ["healthz"]:
                return 200, {"ok": True, "pid": os.getpid()}, {}
            if parts == ["readyz"]:
                return self._readyz()
            if parts == ["metricz"]:
                return self._metricz()
            if parts == ["jobs"]:
                if "key" in query:
                    job = self.store.lookup_key(query["key"][0])
                    if job is None:
                        return 404, _err("not_found",
                                         "no job with that key"), {}
                    return 200, {"ok": True, "job": job.to_dict()}, {}
                return self._jobs_index()
            if len(parts) == 2 and parts[0] == "jobs":
                job = self.store.get(parts[1])
                if job is None:
                    return 404, _err("not_found",
                                     f"no job {parts[1]!r}"), {}
                return 200, {"ok": True, "job": job.to_dict()}, {}
            return 404, _err("not_found", f"no route {parsed.path!r}"), {}
        if method == "POST":
            if parts == ["jobs"]:
                return self._submit(body)
            if parts == ["drain"]:
                threading.Thread(target=self._deferred_drain,
                                 daemon=True).start()
                return 202, {"ok": True, "draining": True}, {}
            return 404, _err("not_found", f"no route {parsed.path!r}"), {}
        return 405, _err("method_not_allowed", f"no {method} here"), {}

    def _deferred_drain(self) -> None:
        time.sleep(0.1)     # let the 202 flush first
        self.drain_and_stop()

    def _readyz(self) -> Tuple[int, Dict, Dict]:
        alive = (self.supervisor._thread is not None
                 and self.supervisor._thread.is_alive())
        ready = alive and not self.draining
        body = {"ok": ready, "draining": self.draining,
                "supervisor_alive": alive,
                "pool_size": self.config.pool_size,
                "max_queue": self.config.max_queue,
                "queue_depth": self.queue.depth()}
        return (200 if ready else 503), body, {}

    def _metricz(self) -> Tuple[int, Dict, Dict]:
        body = {"ok": True,
                "metrics": self.metrics.snapshot(),
                "queue_depth": self.queue.depth(),
                "queue_high_water": self.queue.high_water,
                "jobs": self.store.counts()}
        return 200, body, {}

    def _jobs_index(self) -> Tuple[int, Dict, Dict]:
        jobs = [{f: getattr(j, f) for f in _BRIEF_FIELDS}
                for j in self.store.all_jobs()]
        return 200, {"ok": True, "counts": self.store.counts(),
                     "jobs": jobs}, {}

    def _submit(self, body: Optional[bytes]) -> Tuple[int, Dict, Dict]:
        try:
            payload = json.loads(body or b"")
        except json.JSONDecodeError as exc:
            return 400, _err("bad_json", f"request body: {exc}"), {}
        if not isinstance(payload, dict) \
                or not isinstance(payload.get("scenario"), dict):
            return 400, _err("bad_request",
                             'body must be {"scenario": {...}, '
                             '"key": opt, "client": opt}'), {}
        raw = payload["scenario"]
        try:
            spec = ScenarioSpec.from_dict(raw)
        except ReproError as exc:
            return 400, _err(type(exc).__name__, str(exc)), {}
        if self.draining:
            return 503, _err("draining",
                             "server is draining; not accepting jobs",
                             retry_after_s=60), {"Retry-After": "60"}
        client = str(payload.get("client", "anonymous"))
        timeout_s = float(raw.get("timeout_s",
                                  self.config.default_timeout_s))
        with self._submit_lock:
            key = str(payload.get("key") or f"job-{spec.name}-"
                      f"{self.store._next_job}")
            existing = self.store.lookup_key(key)
            if existing is not None:
                if existing.spec != spec.to_dict():
                    return 409, _err(
                        "key_conflict",
                        f"key {key!r} was already submitted with a "
                        f"different scenario spec",
                        job_id=existing.id), {}
                self.metrics.counter("serve.duplicate").add()
                return 200, {"ok": True, "duplicate": True,
                             "job": existing.to_dict()}, {}
            job = Job(id=self.store.new_job_id(), key=key, client=client,
                      scenario=spec.name, spec=spec.to_dict(),
                      max_attempts=self.config.max_attempts,
                      timeout_s=timeout_s, submitted_at=time.time())
            shed = self.queue.check(job)
            if shed is not None:
                self.metrics.counter(
                    f"serve.shed.{shed['kind']}").add()
                retry = shed.get("retry_after_s", 1)
                return (429, {"ok": False, "error": shed},
                        {"Retry-After": str(retry)})
            self.store.submit(job)
            self.queue.restore(job)
            self.supervisor.notify()
            self.metrics.counter("serve.accepted").add()
            return 202, {"ok": True, "job": job.to_dict()}, {}


def _err(kind: str, message: str, **extra) -> Dict:
    return {"ok": False, "error": job_error(kind, message, **extra)}
