"""Open-loop Poisson load generator: prove degradation is graceful.

Closed-loop clients (submit, wait, repeat) slow themselves down exactly
when the server slows down, hiding overload.  An *open-loop* generator
keeps firing on a Poisson arrival process no matter what the server
does — the honest model of a population of independent users — so
driving the arrival rate past measured capacity answers the question
that matters for ``repro serve``: does the service shed cleanly (429 +
``Retry-After``, bounded queue, bounded accepted-job latency) or does
it collapse?

``repro serve bench`` prints the report (``--out FILE`` writes it under
``"serve_load"``).
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Dict, Iterable, List, Optional

from ..obs.metrics import ExactHistogram
from .client import JobTimeout, ServeClient, ServeUnavailable

#: Open-loop sanity cap: past this the generator itself (thread spawn +
#: HTTP round trip per arrival) becomes the bottleneck being measured.
MAX_RATE_PER_S = 200.0


def calibrate(client: ServeClient, spec: Dict, runs: int = 2,
              timeout_s: float = 60.0, nonce: str = "") -> Dict:
    """Measure per-job service time on an idle server (closed loop)."""
    ready = client.readyz()[1]
    pool = int(ready.get("pool_size", 1))
    wall = []
    for i in range(runs):
        t0 = time.monotonic()
        status, data, _ = client.submit(spec, key=f"{nonce}calibrate-{i}",
                                        client="loadgen-calibrate")
        if status == 200:
            # An idempotency-key replay completes near-instantly — its
            # timing would report a wildly inflated capacity.
            raise ServeUnavailable(
                f"calibration key {nonce}calibrate-{i!r} already known "
                f"to the server; pass a fresh nonce to re-calibrate "
                f"against a long-lived server")
        if status != 202:
            raise ServeUnavailable(
                f"calibration submit got {status}: {data}")
        client.wait(data["job"]["id"], timeout_s=timeout_s)
        wall.append(time.monotonic() - t0)
    service_s = sum(wall) / len(wall)
    return {
        "runs": runs,
        "service_s": round(service_s, 4),
        "pool_size": pool,
        "capacity_jobs_per_s": round(pool / max(service_s, 1e-6), 3),
    }


def run_phase(client: ServeClient, spec: Dict, rate_per_s: float,
              duration_s: float, seed: int, phase: str,
              wait_timeout_s: float = 60.0, nonce: str = "") -> Dict:
    """One open-loop burst at ``rate_per_s`` for ``duration_s``."""
    rng = random.Random(seed)
    lock = threading.Lock()
    submit_ms = ExactHistogram("submit_ms")
    accepted: List[str] = []
    counts = {"offered": 0, "accepted": 0, "shed": 0, "errors": 0,
              "duplicates": 0, "shed_with_retry_after": 0}
    max_depth = [0]
    stop_sampling = threading.Event()

    def sample_depth() -> None:
        while not stop_sampling.is_set():
            try:
                depth = client.metricz().get("queue_depth", 0)
                max_depth[0] = max(max_depth[0], depth)
            except ServeUnavailable:  # pragma: no cover - server gone
                return
            stop_sampling.wait(0.05)

    def fire(i: int) -> None:
        t0 = time.monotonic()
        try:
            status, data, headers = client.submit(
                spec, key=f"{nonce}{phase}-{seed}-{i}",
                client=f"loadgen-{phase}")
        except ServeUnavailable:
            with lock:
                counts["errors"] += 1
            return
        ms = (time.monotonic() - t0) * 1e3
        with lock:
            submit_ms.add(ms)
            if status == 202:
                counts["accepted"] += 1
                accepted.append(data["job"]["id"])
            elif status == 200:
                # Already-done work replayed from the store: counting it
                # as accepted (near-instant 200s) would inflate the
                # measured capacity and corrupt the load curves.
                counts["duplicates"] += 1
            elif status == 429:
                counts["shed"] += 1
                if "Retry-After" in headers:
                    counts["shed_with_retry_after"] += 1
            else:
                counts["errors"] += 1

    sampler = threading.Thread(target=sample_depth, daemon=True)
    sampler.start()
    threads: List[threading.Thread] = []
    t_end = time.monotonic() + duration_s
    next_t = time.monotonic()
    i = 0
    while next_t < t_end:
        delay = next_t - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        t = threading.Thread(target=fire, args=(i,), daemon=True)
        t.start()
        threads.append(t)
        counts["offered"] += 1
        i += 1
        next_t += rng.expovariate(rate_per_s)
    for t in threads:
        t.join(timeout=10.0)

    # Open loop ends here; now wait (bounded) for the accepted backlog.
    latency_s = ExactHistogram("latency_s")
    deadline = time.monotonic() + wait_timeout_s
    unfinished = 0
    for job_id in accepted:
        budget = deadline - time.monotonic()
        if budget <= 0:
            unfinished += 1
            continue
        try:
            job = client.wait(job_id, timeout_s=budget)
        except JobTimeout:
            unfinished += 1
            continue
        if job.get("finished_at") and job.get("submitted_at"):
            latency_s.add(job["finished_at"] - job["submitted_at"])
    stop_sampling.set()
    sampler.join(timeout=1.0)

    report = dict(counts)
    report.update({
        "phase": phase,
        "rate_per_s": round(rate_per_s, 3),
        "duration_s": duration_s,
        "max_queue_depth": max_depth[0],
        "unfinished_after_wait": unfinished,
        "submit_ms": submit_ms.summary() if submit_ms.count
        else {"count": 0},
        "latency_s": latency_s.summary() if latency_s.count
        else {"count": 0},
    })
    return report


def run_loadgen(url: str, spec: Dict, duration_s: float = 4.0,
                multipliers: Iterable[float] = (0.5, 2.0),
                seed: int = 1,
                rate_per_s: Optional[float] = None,
                nonce: Optional[str] = None) -> Dict:
    """Calibrate, then sweep arrival rates around measured capacity.

    ``rate_per_s`` overrides the sweep with one explicit rate.
    ``nonce`` distinguishes this run's idempotency keys; without one a
    fresh value is generated so re-running bench against a long-lived
    server measures real work, not replayed 200s.
    """
    if nonce is None:
        nonce = f"{os.getpid():x}.{time.time_ns():x}"
    prefix = f"{nonce}-"
    client = ServeClient(url)
    cal = calibrate(client, spec, nonce=prefix)
    report: Dict = {"url": url, "scenario": spec.get("name"),
                    "seed": seed, "nonce": nonce,
                    "calibration": cal, "phases": []}
    if rate_per_s is not None:
        plan = [("fixed", float(rate_per_s))]
    else:
        plan = [(f"{m:g}x", m * cal["capacity_jobs_per_s"])
                for m in multipliers]
    for phase, rate in plan:
        capped = rate > MAX_RATE_PER_S
        rate = min(rate, MAX_RATE_PER_S)
        entry = run_phase(client, spec, rate, duration_s, seed, phase,
                          nonce=prefix)
        if capped:
            entry["rate_capped"] = True
        report["phases"].append(entry)
    return report


def render_loadgen(report: Dict) -> str:
    cal = report["calibration"]
    lines = [
        f"serve load: scenario {report['scenario']!r} @ {report['url']}",
        f"  calibration: service={cal['service_s']:.3f}s x "
        f"{cal['pool_size']} worker(s) -> capacity "
        f"{cal['capacity_jobs_per_s']:.2f} jobs/s",
        f"  {'phase':>7} {'rate/s':>8} {'offered':>8} {'accepted':>9} "
        f"{'shed':>6} {'maxQ':>5} {'p50 lat':>9} {'p99 lat':>9}",
    ]
    for ph in report["phases"]:
        lat = ph["latency_s"]
        p50 = f"{lat['p50']:.2f}s" if lat.get("count") else "-"
        p99 = f"{lat['p99']:.2f}s" if lat.get("count") else "-"
        lines.append(
            f"  {ph['phase']:>7} {ph['rate_per_s']:>8.2f} "
            f"{ph['offered']:>8} {ph['accepted']:>9} {ph['shed']:>6} "
            f"{ph['max_queue_depth']:>5} {p50:>9} {p99:>9}")
    return "\n".join(lines)
