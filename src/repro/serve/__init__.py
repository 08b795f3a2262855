"""Simulation-as-a-service: a supervised, self-healing job server.

``repro serve`` is the ROADMAP's "millions of users" pillar made
operational: a long-running, stdlib-only HTTP JSON service that accepts
:class:`~repro.gate.ScenarioSpec` jobs and executes them on a pool of
forked, supervised workers — the same crash-isolation machinery the
gate and cluster layers use, with the robustness the paper argues
hardware offload buys a host: stay responsive *under* load, don't
collapse *because of* it.

The pieces (each its own module, each independently testable):

* :mod:`~repro.serve.job` — the job model and service configuration;
* :mod:`~repro.serve.store` — crash-safe journal + snapshot store;
* :mod:`~repro.serve.admission` — bounded queue, per-client caps,
  ``Retry-After`` load shedding;
* :mod:`~repro.serve.supervisor` — forked attempts, backoff restarts,
  deadline escalation, poison-job quarantine;
* :mod:`~repro.serve.server` — request routing, drain, recovery;
* :mod:`~repro.serve.httpd` — the HTTP binding, imported when a
  :class:`ReproServer` is built, so importing this package loads no
  HTTP stack;
* :mod:`~repro.serve.client` / :mod:`~repro.serve.loadgen` — the API
  client and the open-loop Poisson load generator.

See docs/serve.md for the API and the failure matrix.
"""

from .admission import AdmissionQueue
from .client import JobTimeout, ServeClient, ServeUnavailable
from .job import (DONE, FAILED, INTERRUPTED, QUARANTINED, QUEUED, RUNNING,
                  Job, ServeConfig, job_error)
from .loadgen import calibrate, render_loadgen, run_loadgen
from .server import ReproServer
from .store import JobStore, read_journal
from .supervisor import Supervisor, exec_scenario

__all__ = [
    "Job", "ServeConfig", "job_error",
    "QUEUED", "RUNNING", "DONE", "FAILED", "QUARANTINED", "INTERRUPTED",
    "JobStore", "read_journal",
    "AdmissionQueue",
    "Supervisor", "exec_scenario",
    "ReproServer",
    "ServeClient", "ServeUnavailable", "JobTimeout",
    "run_loadgen", "calibrate", "render_loadgen",
]
