"""Wall-clock performance harness (``repro perf``).

The paper's experiments are *simulated-time* measurements; this module
measures the *simulator itself*: how much wall clock fixed workloads
cost.  Results land in ``BENCH_perf.json`` so CI can catch regressions
(checksum folding, wire caching, eager work queues, timer compaction,
poll-loop elision — see ``docs/performance.md``).  Events/sec is
reported but not gated: an optimisation that removes cheap events
(burst walks, elided polls) lowers it while the run gets faster.

Nothing here affects simulated results: the harness only runs existing
workloads and reads wall-clock + event counters.
"""

from __future__ import annotations

import cProfile
import fnmatch
import json
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from .. import fastpath
from ..sim import Simulator

#: Committed reference numbers for the CI regression gate.
DEFAULT_BASELINE = Path(__file__).with_name("baseline_perf.json")

#: Modules whose self-time gets its own profile bucket.  First substring
#: match wins, so the TCP engine's bucket must precede its parent
#: ``repro/net`` bucket.
_PROFILE_BUCKETS = ("repro/sim", "repro/net/tcp", "repro/net", "repro/core",
                    "repro/hw", "repro/fabric", "repro/apps")


# -- workloads --------------------------------------------------------------
#
# Each workload builds a fresh Simulator, runs to completion, and returns
# (simulator_or_None, payload_bytes).  The harness reads wall clock and
# the kernel's event counter around the call.


def _quiet(*nodes) -> None:
    """Turn off per-stage instrumentation for a perf run.

    The harness measures kernel throughput, not stage attribution, so it
    exercises the zero-cost-when-disabled hooks: cycle counters off,
    per-category busy accounting off.  Simulated results are unaffected
    (these are pure host-side counters).
    """
    for node in nodes:
        nic = node.nic
        nic.cycles.enabled = False
        nic.processor.detailed = False
        nic.host.cpu.detailed = False
        nic.host.pci.queue.detailed = False


def _ttcp_bulk(total_bytes: int, chunk: int = 16384) -> Tuple[Simulator, int]:
    from ..apps.ttcp import qpip_ttcp
    from .configs import build_qpip_pair
    sim = Simulator()
    a, b, _fabric = build_qpip_pair(sim)
    _quiet(a, b)
    res = qpip_ttcp(sim, a, b, total_bytes=total_bytes, chunk=chunk)
    return sim, res.bytes_moved


def _pingpong(iterations: int, msg_size: int = 64) -> Tuple[Simulator, int]:
    from ..apps.pingpong import qpip_tcp_rtt
    from .configs import build_qpip_pair
    sim = Simulator()
    a, b, _fabric = build_qpip_pair(sim)
    _quiet(a, b)
    qpip_tcp_rtt(sim, a, b, iterations=iterations, msg_size=msg_size)
    return sim, 2 * iterations * msg_size


def _kvstore_mixed(ops: int, value_size: int = 128) -> Tuple[Simulator, int]:
    from ..apps.kvstore import KvClient, KvServer
    from .configs import build_qpip_pair
    sim = Simulator()
    a, b, _fabric = build_qpip_pair(sim)
    _quiet(a, b)
    server = KvServer(b, slot_count=256, slot_size=256)
    sim.process(server.run())
    client = KvClient(a, b.addr)
    moved = 0

    def body():
        nonlocal moved
        info = yield server.ready
        yield sim.timeout(500)
        yield from client.connect(info)
        value = bytes(value_size)
        for i in range(ops):
            key = b"key-%d" % (i % 32)
            yield from client.put(key, value)
            moved += value_size
            if i % 3 == 0:
                got = yield from client.get_rdma(key)
            else:
                got = yield from client.get(key)
            moved += len(got)
        yield from client.disconnect()

    proc = sim.process(body())
    sim.run(until=sim.now + 120_000_000)
    if not proc.triggered:
        raise RuntimeError("kvstore perf workload did not finish")
    if not proc.ok:
        raise proc.value
    return sim, moved


def _chaos_recover(messages: int, msg_size: int = 4096) -> Tuple[None, int]:
    from ..faults import FaultPlan, run_chaos
    plan = FaultPlan()
    plan.drop(0.02)
    result = run_chaos(seed=7, workload="ttcp", plan=plan, messages=messages,
                       msg_size=msg_size, recover=True, restarts=2)
    if not result.ok:
        raise RuntimeError(f"chaos perf workload violated invariants: "
                           f"{result.violations()}")
    return None, result.bytes_delivered


def _workloads(quick: bool) -> Dict[str, Callable[[], Tuple[Optional[Simulator], int]]]:
    if quick:
        return {
            "ttcp_bulk": lambda: _ttcp_bulk(2 * 1024 * 1024),
            "pingpong": lambda: _pingpong(50),
            "kvstore_mixed": lambda: _kvstore_mixed(30),
            "chaos_recover": lambda: _chaos_recover(24),
        }
    return {
        "ttcp_bulk": lambda: _ttcp_bulk(10 * 1024 * 1024),
        "pingpong": lambda: _pingpong(200),
        "kvstore_mixed": lambda: _kvstore_mixed(100),
        "chaos_recover": lambda: _chaos_recover(64),
    }


# -- measurement ------------------------------------------------------------


def _measure(fn: Callable[[], Tuple[Optional[Simulator], int]],
             repeats: int = 1) -> Dict:
    """Run ``fn`` ``repeats`` times and report the best (min) wall time.

    The workloads are deterministic, so every repeat produces the same
    simulation; min-of-N just filters out scheduler noise on the host.
    """
    wall = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        sim, nbytes = fn()
        elapsed = time.perf_counter() - t0
        if wall is None or elapsed < wall:
            wall = elapsed
    events = sim._events_processed if sim is not None else None
    sim_us = sim.now if sim is not None else None
    out = {
        "wall_s": round(wall, 4),
        "bytes": nbytes,
        "sim_bytes_per_wall_s": round(nbytes / wall) if wall > 0 else None,
        "events": events,
        "sim_us": round(sim_us, 1) if sim_us is not None else None,
        "events_per_sec": (round(events / wall) if events and wall > 0
                           else None),
    }
    return out


def _profile_buckets(fn: Callable[[], Tuple[Optional[Simulator], int]]) -> Dict[str, float]:
    """Self-time per subsystem for one workload run, in seconds."""
    prof = cProfile.Profile()
    prof.enable()
    fn()
    prof.disable()
    buckets = {name: 0.0 for name in _PROFILE_BUCKETS}
    buckets["other"] = 0.0
    for entry in prof.getstats():
        code = entry.code
        filename = getattr(code, "co_filename", "") or ""
        path = filename.replace("\\", "/")
        for name in _PROFILE_BUCKETS:
            if name in path:
                buckets[name] += entry.inlinetime
                break
        else:
            buckets["other"] += entry.inlinetime
    return {name: round(secs, 4) for name, secs in buckets.items()}


def run_perf(quick: bool = False, profile: bool = True,
             compare_naive: bool = True,
             workload: Optional[str] = None) -> Dict:
    """Run the perf workloads; returns the ``BENCH_perf.json`` payload.

    ``workload`` is an optional glob filter (``fnmatch``) selecting a
    subset of workloads — ``repro perf --workload 'ttcp*'``.  The
    profile breakdown and the naive comparison only run when their
    subject (``ttcp_bulk``) survives the filter.
    """
    workloads = _workloads(quick)
    if workload:
        workloads = {name: fn for name, fn in workloads.items()
                     if fnmatch.fnmatch(name, workload)}
        if not workloads:
            raise ValueError(
                f"no perf workload matches {workload!r} "
                f"(have: {', '.join(_workloads(quick))})")
    report: Dict = {
        "harness": "repro-perf",
        "quick": quick,
        "fastpath": fastpath.ENABLED,
        "workloads": {},
    }
    # Quick runs are ~40 ms each: five repeats cost little and keep the
    # min-of-N walls (the gate divides two of them) steady on a noisy box.
    repeats = 5 if quick else 3
    for name, fn in workloads.items():
        report["workloads"][name] = _measure(fn, repeats=repeats)
    if profile and "ttcp_bulk" in workloads:
        report["profile"] = {"ttcp_bulk": _profile_buckets(
            workloads["ttcp_bulk"])}
    if compare_naive and fastpath.ENABLED and "ttcp_bulk" in workloads:
        # The headline number: same ttcp workload with every fast path
        # switched off.  Simulated results are identical by construction
        # (that's the determinism test's job); only wall clock moves.
        fast = report["workloads"]["ttcp_bulk"]
        prev = fastpath.set_enabled(False)
        try:
            slow = _measure(workloads["ttcp_bulk"], repeats=repeats)
        finally:
            fastpath.set_enabled(prev)
        report["naive_ttcp_bulk"] = slow
        if slow["wall_s"] > 0 and fast["wall_s"] > 0:
            report["speedup_vs_naive"] = round(
                slow["wall_s"] / fast["wall_s"], 2)
    return report


# -- regression gate --------------------------------------------------------


def _normalised_wall(report: Dict, name: str) -> Optional[float]:
    """Workload ``name``'s fixed-work wall as a multiple of the same
    run's naive ``ttcp_bulk`` wall — the calibration that cancels the
    host — or ``None`` when either was not measured."""
    naive = (report.get("naive_ttcp_bulk") or {}).get("wall_s")
    wall = report.get("workloads", {}).get(name, {}).get("wall_s")
    return wall / naive if naive and wall else None


def compare_to_baseline(report: Dict, baseline: Dict,
                        max_regression: float = 0.30) -> Tuple[bool, list]:
    """Check fixed-work wall time against a committed baseline.

    Returns ``(ok, messages)``.  Every workload does a fixed amount of
    simulated work, so its wall time is the thing a user feels; dividing
    it by the wall of the *same run's* naive-mode ``ttcp_bulk`` (the
    code path optimisations leave alone) turns it into a number that
    travels between machines.  A workload regresses when that
    normalised wall rises more than ``max_regression`` above the
    baseline's.  ``ttcp_bulk``'s normalised wall is the reciprocal of
    ``speedup_vs_naive``, so the fast paths' headline ratio is gated by
    the same rule.

    Nothing is compared — and the gate passes — when either side lacks
    the calibration run (a ``--workload`` filter that drops
    ``ttcp_bulk``, or ``REPRO_FASTPATH=0``) or the two reports ran
    different sizes; workloads missing from the baseline are skipped.
    """
    messages = []
    if not (report.get("naive_ttcp_bulk") and baseline.get("naive_ttcp_bulk")):
        return True, ["no naive ttcp_bulk calibration run on both sides "
                      "(nothing compared)"]
    if report.get("quick") != baseline.get("quick"):
        return True, ["baseline was recorded at a different size "
                      "(nothing compared)"]
    ok = True
    for name in report.get("workloads", {}):
        current = _normalised_wall(report, name)
        base = _normalised_wall(baseline, name)
        if current is None or base is None:
            messages.append(f"{name}: no wall time on both sides (skipped)")
            continue
        ratio = current / base
        line = (f"{name}: {current:.2f}x naive-ttcp wall vs baseline "
                f"{base:.2f}x ({ratio:.2f}x)")
        if ratio > 1.0 + max_regression:
            ok = False
            line += "  REGRESSION"
        messages.append(line)
    return ok, messages


def load_baseline(path: Optional[str] = None) -> Optional[Dict]:
    p = Path(path) if path else DEFAULT_BASELINE
    if not p.exists():
        return None
    with open(p) as fh:
        return json.load(fh)


def write_report(report: Dict, path: str = "BENCH_perf.json") -> str:
    """Write ``report`` to ``path``, merging with an existing file.

    Top-level keys this run did not produce are preserved — other
    subcommands park their sections in the same file (``repro cluster
    --bench`` writes ``cluster_scaling``, ``repro serve --bench`` writes
    ``serve_load``).  ``workloads`` merges one level deep so a filtered
    run (``--workload``) refreshes only what it measured.
    """
    merged = report
    p = Path(path)
    if p.exists():
        try:
            with open(p) as fh:
                merged = json.load(fh)
            if not isinstance(merged, dict):
                merged = {}
        except (OSError, ValueError):
            merged = {}
        old_workloads = merged.get("workloads")
        merged.update(report)
        if isinstance(old_workloads, dict):
            combined = dict(old_workloads)
            combined.update(report.get("workloads", {}))
            merged["workloads"] = combined
    with open(path, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def render(report: Dict) -> str:
    lines = ["repro perf" + (" (quick)" if report.get("quick") else "")]
    for name, w in report.get("workloads", {}).items():
        eps = w.get("events_per_sec")
        eps_s = f"{eps:>12,} ev/s" if eps is not None else f"{'-':>12} ev/s"
        mbps = (w.get("sim_bytes_per_wall_s") or 0) / 1e6
        norm = _normalised_wall(report, name)
        norm = (f"{norm:6.2f}x naive-ttcp" if norm is not None
                else f"{'-':>6}x naive-ttcp")
        lines.append(f"  {name:14s} {w['wall_s']:8.3f}s wall  {norm}  "
                     f"{eps_s}  {mbps:8.1f} simMB/s-wall")
    if "speedup_vs_naive" in report:
        lines.append(f"  ttcp_bulk speedup vs naive (fast paths off): "
                     f"{report['speedup_vs_naive']:.2f}x")
    prof = report.get("profile", {}).get("ttcp_bulk")
    if prof:
        hot = sorted(prof.items(), key=lambda kv: -kv[1])
        lines.append("  ttcp_bulk self-time by subsystem: "
                     + ", ".join(f"{k}={v:.3f}s" for k, v in hot if v > 0))
    return "\n".join(lines)
