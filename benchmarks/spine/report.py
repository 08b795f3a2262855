"""Metric tables, statistics, rendering and ``--compare`` for the spine benchmark.

This module imports nothing from ``repro``: the orchestrator stays a
small process (its resident size is the floor under every child's
``ru_maxrss``) and ``--compare`` works on two JSON files alone.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from typing import Dict, List, Sequence, Tuple

from layers import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, "..", "..", "BENCHMARK.json")

WORKLOAD_NAMES = ("ttcp_bulk", "pingpong_1b", "kvstore_mixed", "chaos_recover",
                  "allreduce_host_64", "allreduce_nic_64", "cluster_sharded",
                  "serve_jobs")

#: Forked workloads: on one CPU their numbers would mislead.
NEEDS_2_CPUS = ("cluster_sharded", "serve_jobs")

#: End-to-end metrics every workload reports; these are BENCHMARK.json's
#: ``end_to_end`` (never zero, one bound each, read from that file).
UNIVERSAL = (("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: End-to-end metrics the BENCHMARK.json contract cannot carry as bounded
#: entries: they are zero when all is well, exist on some workloads only,
#: or (the wall clock) spread past any bound while a neighbour on the shared
#: host holds the core.  They ride in its unbounded list; their bounds live
#: here.
EXTRA_END_TO_END = (
    ("wall_s", "s", 0.25),
    ("paper_err_pct", "%", 0.0),
    ("job_latency_p50_s", "s", 0.25),
    ("job_latency_p90_s", "s", 0.25),
    ("fail_share", "ratio", 0.0),
)

# (name, unit, better, exact): ``exact`` values must repeat digit for digit.
_COUNTS = (
    ("sim.events", "count", "lower", True),
    ("sim.time_us", "us", "lower", True),
    ("sim.wall_us_per_event", "us", "lower", False),
    ("net.tcp.segs_out", "count", "lower", True),
    ("net.tcp.retransmits", "count", "lower", True),
    ("net.tcp.rto_timeouts", "count", "lower", True),
    ("net.tcp.slowpath_share", "ratio", "lower", True),
    ("net.headers.encodes", "count", "lower", True),
    ("net.headers.decodes", "count", "lower", True),
    ("net.checksum.calls", "count", "lower", True),
    ("core.wrs_posted", "count", "lower", True),
    ("core.cqes", "count", "lower", True),
    ("hw.doorbells", "count", "lower", True),
    ("hw.nic_busy_frac", "ratio", "lower", True),
    ("hw.host_cpu_busy_frac", "ratio", "lower", True),
    ("fabric.pkts", "count", "lower", True),
    ("fabric.bytes", "count", "lower", True),
    ("fabric.switch_fwd", "count", "lower", True),
    ("mem.translations", "count", "lower", True),
    ("recovery.heals", "count", "lower", True),
    ("recovery.connect_attempts", "count", "lower", True),
    ("recovery.replayed_wrs", "count", "lower", True),
    ("faults.fired", "count", "higher", True),
    ("collectives.steps_per_rank", "count", "lower", True),
    ("collectives.bytes_sent", "count", "lower", True),
    ("collectives.nic_speedup_sim", "x", "higher", True),
    ("cluster.barriers", "count", "lower", True),
    ("cluster.trunk_msgs", "count", "lower", True),
    ("cluster.worker_event_imbalance", "ratio", "lower", True),
    ("cluster.single_wall_s", "s", "lower", False),
    ("cluster.sharded_over_single_x", "x", "lower", False),
    ("cluster.wall_us_per_barrier", "us", "lower", False),
    ("cluster.cpu_s", "s", "lower", False),
    ("trace_overhead_x", "x", "lower", False),
    ("serve.submit_ms_p50", "ms", "lower", False),
    ("serve.queue_s_p50", "s", "lower", False),
    ("serve.run_s_p50", "s", "lower", False),
    ("serve.exec_inproc_s", "s", "lower", False),
    ("serve.overhead_s_p50", "s", "lower", False),
    ("serve.attempts_per_job", "count", "lower", True),
    ("serve.journal_bytes_per_job", "count", "lower", False),
    ("serve.cpu_s", "s", "lower", False),
)
PER_LAYER: Tuple[Tuple[str, str, str, bool], ...] = (
    tuple((f"{layer}.self_s", "s", "lower", False) for layer in LAYERS)
    + tuple((f"{layer}.calls_in", "count", "lower", True) for layer in LAYERS)
    + _COUNTS
    + tuple((name, unit, "lower", bound == 0.0)
            for name, unit, bound in EXTRA_END_TO_END))
UNITS = {name: unit for name, unit, _better, _exact in PER_LAYER}
UNITS.update(UNIVERSAL)


def bounds() -> Dict[str, float]:
    """Regression bounds: BENCHMARK.json's, plus the extras above."""
    with open(BENCHMARK_JSON) as fh:
        out = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    out.update({name: bound for name, _unit, bound in EXTRA_END_TO_END})
    return out


# -- statistics ---------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], p: float) -> float:
    """Exact nearest-rank percentile (the ``repro.obs`` definition)."""
    s = sorted(values)
    return s[max(1, math.ceil(p / 100.0 * len(s))) - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


# -- building one workload's entry ------------------------------------------


def end_to_end_entry(timed: List[dict],
                     extra_setups: Sequence[float] = ()) -> Dict:
    """Fold the timed runs of one workload (and the set-up-only samples)
    into its end-to-end metrics."""
    def metric(samples, unit, value=None):
        return {"value": statistics.median(samples) if value is None
                else value, "unit": unit, "samples": samples}

    out = {name: metric([r[name] for r in timed], unit)
           for name, unit in UNIVERSAL + (("wall_s", "s"),)}
    out["setup_s"] = metric(out["setup_s"]["samples"] + list(extra_setups),
                            "s")
    attempted = sum(r["attempted"] for r in timed)
    failed = sum(r["failed"] for r in timed)
    out["fail_share"] = metric([r["failed"] / r["attempted"] for r in timed],
                               "ratio", failed / attempted)
    paper_ref = timed[0]["paper_ref"]
    headlines = [r["headline"] for r in timed if r["headline"] is not None]
    if paper_ref is not None and headlines:
        out["paper_err_pct"] = metric(
            [abs(h - paper_ref) / paper_ref * 100.0 for h in headlines], "%")
    per_run = [r["job_latencies_s"] for r in timed if r["job_latencies_s"]]
    if per_run:
        pooled = [x for run in per_run for x in run]
        for name, p in (("job_latency_p50_s", 50), ("job_latency_p90_s", 90)):
            out[name] = metric([percentile(run, p) for run in per_run], "s",
                               percentile(pooled, p))
            out[name]["pooled_n"] = len(pooled)
    return out


def per_layer_entry(traced: dict, end_to_end: Dict) -> Dict:
    """Every per-layer metric of one workload; 0 where it does not apply."""
    layers = traced["layers"]
    values = {name: 0.0 for name, *_ in PER_LAYER}
    applies = set()
    for source in (layers["self_s"], layers["calls_in"], layers["counts"],
                   traced["facts"]):
        values.update(source)
        applies.update(source)
    for name, _unit, _bound in EXTRA_END_TO_END:
        if name in end_to_end:
            values[name] = end_to_end[name]["value"]
            applies.add(name)
    return {name: {"value": values[name], "unit": UNITS[name],
                   "applies": name in applies}
            for name, *_ in PER_LAYER}


# -- rendering ------------------------------------------------------------------


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:.6g}"


def render_workload(name: str, entry: Dict) -> str:
    lines = [f"== {name}: {entry['runs']} timed run(s), fresh subprocess "
             f"each, tracing off"]
    for metric, m in entry["end_to_end"].items():
        q1, _med, q3 = quartiles(m["samples"])
        extra = f"  (pooled over {m['pooled_n']} jobs)" \
            if "pooled_n" in m else ""
        lines.append(f"  {metric:<28}{m['value']:>14.6g} {m['unit']:<6}"
                     f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(m['samples'])}{extra}")
    e2e = entry["end_to_end"]
    if "paper_err_pct" not in e2e:
        lines.append(f"  {'paper_err_pct':<28}{'unvalidated':>14}        "
                     f"(no paper reference for this workload)")
    if "job_latency_p90_s" in e2e and e2e["job_latency_p90_s"]["pooled_n"] < 100:
        lines.append("  note: fewer than 100 pooled jobs, so fewer than 10 "
                     "samples lie beyond p90")
    for note in entry.get("notes", ()):
        lines.append(f"  note: {note}")
    layer = entry.get("per_layer")
    if layer:
        lines.append(f"  -- per layer, from one traced run"
                     + (f" ({entry['trace_note']})" if entry.get("trace_note")
                        else ""))
        total = sum(layer[f"{name}.self_s"]["value"] for name in LAYERS)
        lines.append(f"  traced wall {entry['traced_wall_s']:.4f} s; layer "
                     f"self times sum to {total:.4f} s")
        for metric, m in layer.items():
            if not m["applies"]:
                continue
            lines.append(f"  {metric:<34}{_fmt(m['value']):>16} {m['unit']}")
        missing = [metric for metric, m in layer.items() if not m["applies"]]
        if missing:
            lines.append(f"  n/a on this workload (0 in the JSON line): "
                         f"{', '.join(missing)}")
    return "\n".join(lines)


# -- compare ----------------------------------------------------------------------


def _verdict(a: Dict, b: Dict, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for a lower-is-better metric."""
    va, vb = a["value"], b["value"]
    if bound == 0.0:
        return "ok" if vb <= va else "regressed"
    if max(spread(a["samples"]), spread(b["samples"])) > bound:
        # Too noisy to call, unless B beats A on every single run.
        if max(b["samples"]) < min(a["samples"]):
            return "ok"
        return "unresolved"
    return "regressed" if (vb - va) > bound * va else "ok"


def compare(path_a: str, path_b: str) -> Tuple[str, bool]:
    """Compare result set B against base A; returns (report, all_ok)."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    limit = bounds()
    exact = [name for name, _u, _b, is_exact in PER_LAYER if is_exact]
    lines = [f"compare: base A = {path_a}", f"         B      = {path_b}"]
    for side, rs in (("A", a), ("B", b)):
        fp = rs["fingerprint"]
        lines.append(f"  {side}: commit {fp['commit']} seed {rs['seed']} "
                     f"cpus {fp['cpus']} python {fp['python']} "
                     f"fastpath {fp['fastpath']}")
    ok = True
    for name in WORKLOAD_NAMES:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            if wa is not wb:
                ok = False
                lines.append(f"== {name}: only in "
                             f"{'A' if wb is None else 'B'}")
            continue
        lines.append(f"== {name}")
        for metric, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"].get(metric)
            if mb is None:
                ok = False
                lines.append(f"  {metric:<20} missing in B")
                continue
            verdict = _verdict(ma, mb, limit[metric])
            ok = ok and verdict == "ok"
            qa, qb = quartiles(ma["samples"]), quartiles(mb["samples"])
            ratio = (f"B/A = {mb['value'] / ma['value']:.4f} (base A)"
                     if ma["value"] else "B/A n/a (base A is 0)")
            lines.append(
                f"  {metric:<20} A {ma['value']:.6g} [{qa[0]:.6g}, "
                f"{qa[2]:.6g}] n={len(ma['samples'])}   B {mb['value']:.6g} "
                f"[{qb[0]:.6g}, {qb[2]:.6g}] n={len(mb['samples'])}   "
                f"{ratio}  bound {limit[metric]:.0%}  {verdict}")
        la, lb = wa.get("per_layer"), wb.get("per_layer")
        if la and lb:
            differ = [f"{m} ({_fmt(la[m]['value'])} vs {_fmt(lb[m]['value'])})"
                      for m in exact if la[m]["value"] != lb[m]["value"]]
            if differ:
                ok = False
                lines.append("  exact counts DIFFER: " + "; ".join(differ))
            else:
                lines.append(f"  exact counts: all {len(exact)} identical")
    lines.append("compare: " + ("ok" if ok else
                                "NOT ok (regressed, unresolved or differing "
                                "lines above)"))
    return "\n".join(lines), ok
