"""Corpus execution: one forked child per scenario, hard wall-clock caps.

The gate must never hang and never let one bad scenario take down the
run: each scenario executes in its own forked process with a deadline.
A child that wedges is terminated (then killed), a child that dies
mid-run is reaped — either way the scenario becomes a structured
:class:`ScenarioFailed`, and the rest of the corpus keeps going.

Inside the child every requested sharding runs *in-process* (the same
sync protocol, one OS process) — the container is small and the crash
isolation boundary is the scenario, not the shard.  The first sharding
is the reference; every other is required bit-for-bit identical via
:func:`~repro.cluster.assert_equivalent` before invariants are checked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from .. import proc
from ..cluster import assert_equivalent, run_cluster
from .digest import evaluate_invariants, scenario_digests
from .spec import ScenarioSpec


@dataclass
class ScenarioPassed:
    """A scenario that ran all shardings, matched across them, and
    upheld every invariant."""

    name: str
    wall_s: float
    workers: List[int]
    digests: Dict = field(repr=False, default_factory=dict)

    ok = True
    status = "ok"


@dataclass
class ScenarioFailed:
    """A scenario that did not produce a clean result.

    ``status`` is one of:

    * ``invariant_failed`` — ran, but an expectation was violated;
    * ``error`` — raised (including cross-sharding divergence);
    * ``timeout`` — exceeded its wall-clock cap and was terminated;
    * ``crashed`` — the child died without reporting (signal, SIGKILL).
    """

    name: str
    status: str
    detail: str
    wall_s: float
    digests: Optional[Dict] = field(repr=False, default=None)

    ok = False


ScenarioOutcome = Union[ScenarioPassed, ScenarioFailed]


def run_scenario(spec: ScenarioSpec) -> Dict:
    """Run one scenario (in this process): every sharding, cross-check,
    invariants, digests.  Returns a plain dict (pipe-friendly)."""
    cspec = spec.cluster_spec()
    reference = run_cluster(cspec, spec.workers[0])
    for workers in spec.workers[1:]:
        assert_equivalent(reference, run_cluster(cspec, workers))
    violations = evaluate_invariants(spec, reference)
    return {
        "digests": scenario_digests(reference),
        "violations": violations,
        "workers": list(spec.workers),
    }


def _reap(spec: ScenarioSpec, worker: proc.Worker) -> ScenarioOutcome:
    """Collect a child's report (its pipe is readable)."""
    try:
        payload = worker.recv()[1]
    except proc.WorkerDied as exc:
        return ScenarioFailed(spec.name, "crashed", str(exc), worker.wall())
    except proc.WorkerError as exc:
        return ScenarioFailed(spec.name, "error", exc.text, worker.wall())
    if payload["violations"]:
        return ScenarioFailed(
            spec.name, "invariant_failed",
            "\n".join(payload["violations"]), worker.wall(),
            digests=payload["digests"])
    return ScenarioPassed(spec.name, worker.wall(), payload["workers"],
                          payload["digests"])


def run_corpus(scenarios: List[ScenarioSpec], jobs: int = 1,
               progress=None) -> List[ScenarioOutcome]:
    """Run the corpus, at most ``jobs`` scenario children at a time.

    Results come back in corpus order regardless of completion order.
    ``progress`` (optional callable) receives each outcome as it lands.
    """
    jobs = max(1, jobs)
    queue = list(scenarios)
    running: Dict[proc.Worker, ScenarioSpec] = {}
    outcomes: Dict[str, ScenarioOutcome] = {}
    try:
        while queue or running:
            while queue and len(running) < jobs:
                spec = queue.pop(0)
                running[proc.Worker(proc.reply, run_scenario, spec,
                                    name="scenario worker")] = spec
            next_deadline = min(w.started + s.timeout_s
                                for w, s in running.items())
            ready = proc.wait(running,
                              max(0.0, next_deadline - time.monotonic()))
            now = time.monotonic()
            for worker, spec in list(running.items()):
                if worker in ready:
                    outcome = _reap(spec, worker)
                    worker.close()
                elif now >= worker.started + spec.timeout_s:
                    worker.kill()
                    outcome = ScenarioFailed(
                        spec.name, "timeout",
                        f"exceeded wall-clock cap of {spec.timeout_s:g}s; "
                        f"worker terminated", worker.wall())
                else:
                    continue
                del running[worker]
                outcomes[spec.name] = outcome
                if progress is not None:
                    progress(outcome)
    finally:
        for worker in running:
            worker.kill()
    return [outcomes[s.name] for s in scenarios]
