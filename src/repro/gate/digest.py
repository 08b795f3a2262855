"""Golden digests and invariant evaluation over a cluster result.

A scenario's observable surface is reduced to named digests — per-flow
CQE-stream hashes, per-host wire-trace hashes, a scalar metrics
snapshot, fault counters, and the final simulated time.  Kernel event
counts and packet trace ids are deliberately excluded: both may differ
between the product and the stepwise ``tests/reference_paths.py`` (and
across shardings) while every paper-level observable stays
bit-identical.
"""

from __future__ import annotations

from typing import Dict, List

from ..collectives.group import COLLECTIVE_FLOW_BASE
from ..collectives.job import expected_digest
from ..tools.inspect import (cqe_stream_digest, metrics_snapshot,
                             wire_trace_digest)
from .spec import ScenarioSpec


def scenario_digests(result) -> Dict:
    """The golden record of one run (a :class:`ClusterResult`)."""
    return {
        "cqe": cqe_stream_digest(result.flows),
        "wire": wire_trace_digest(result.wire),
        "metrics": metrics_snapshot(result.metrics or {}),
        "fault_counts": {where: dict(counts)
                         for where, counts in result.fault_counts.items()},
        "now": result.now,
    }


def _counter(metrics, name: str) -> int:
    entry = (metrics or {}).get(name)
    return entry["value"] if entry else 0


def evaluate_invariants(spec: ScenarioSpec, result) -> List[str]:
    """Check the scenario's expectations; return violation strings
    (empty = pass).  Messages name the flow/metric so a failure report
    is actionable without rerunning."""
    exp = spec.expect
    violations: List[str] = []
    for fs in spec.cluster_spec().flows:
        record = result.flows.get(fs.flow_id)
        if record is None:
            violations.append(f"flow {fs.flow_id}: no record")
            continue
        if fs.kind == "ttcp":
            for key, want in (("rx_bytes", fs.total_bytes),
                              ("tx_bytes", fs.total_bytes)):
                got = record.get(key)
                if got != want:
                    violations.append(
                        f"flow {fs.flow_id}: {key}={got} != {want}")
            if fs.verify and exp.no_app_corruption:
                msgs = len(record.get("server_cqes", ()))
                for key, want in (("srv_mismatches", 0), ("srv_dup", 0),
                                  ("srv_ooo", 0), ("srv_verified", msgs)):
                    got = record.get(key)
                    if got != want:
                        violations.append(
                            f"flow {fs.flow_id}: app corruption: "
                            f"{key}={got} (want {want})")
        else:
            got = record.get("echoed")
            if got != fs.iterations:
                violations.append(
                    f"flow {fs.flow_id}: echoed={got} != {fs.iterations}")
        if exp.no_wr_errors:
            for side in ("server_cqes", "client_cqes"):
                bad = [c for c in record.get(side, ())
                       if c[3] != "SUCCESS"]
                if bad:
                    violations.append(
                        f"flow {fs.flow_id}: {len(bad)} non-SUCCESS CQEs "
                        f"in {side} (first: {bad[0]!r})")
        if exp.completes_by_us is not None:
            done = max(record.get("rx_done", 0.0),
                       record.get("tx_done", 0.0))
            if done > exp.completes_by_us:
                violations.append(
                    f"flow {fs.flow_id}: finished at {done:g}us > "
                    f"completes_by_us={exp.completes_by_us:g}us")
    collective = spec.workload.collective(spec.seed)
    if collective is not None:
        # Exactness is absolute: every rank must complete and hold the
        # oracle's bits — faults may stretch time, never change values.
        oracle = expected_digest(collective, spec.hosts)
        for rank in range(spec.hosts):
            record = result.flows.get(COLLECTIVE_FLOW_BASE + rank)
            if record is None:
                violations.append(f"collective rank {rank}: no record")
                continue
            if record.get("status") != "SUCCESS":
                violations.append(f"collective rank {rank}: status="
                                  f"{record.get('status')!r}")
            got = record.get("result_digest")
            if got != oracle:
                violations.append(
                    f"collective rank {rank}: result digest {got} != "
                    f"oracle {oracle}")
    if exp.min_checksum_errors:
        got = _counter(result.metrics, "net.checksum_errors")
        if got < exp.min_checksum_errors:
            violations.append(f"net.checksum_errors={got} < "
                              f"min {exp.min_checksum_errors}")
    if exp.min_retransmits:
        got = _counter(result.metrics, "tcp.retransmitted_segs")
        if got < exp.min_retransmits:
            violations.append(f"tcp.retransmitted_segs={got} < "
                              f"min {exp.min_retransmits}")
    for key, minimum in sorted(exp.min_fault.items()):
        where, _, counter = key.rpartition(".")
        got = result.fault_counts.get(where, {}).get(counter, 0)
        if got < minimum:
            violations.append(
                f"fault_counts[{where}].{counter}={got} < min {minimum}")
    return violations


def _within(a, b, tol: Dict[str, float]) -> bool:
    if a == b:
        return True
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return False
    if "abs" in tol and abs(a - b) <= tol["abs"]:
        return True
    if "rel" in tol and b != 0 and abs(a - b) / abs(b) <= tol["rel"]:
        return True
    return False


def compare_digests(golden: Dict, fresh: Dict,
                    tolerances: Dict[str, Dict[str, float]]) -> List[str]:
    """Diff two digest records; returns divergence strings in a
    deterministic order (the first entry is *the* named first
    divergence).  ``tolerances`` maps metric names to rel/abs bands —
    banded metrics compare their scalar fields loosely and skip the
    sample digest; everything else is exact."""
    diffs: List[str] = []
    for section in ("cqe", "wire"):
        a, b = golden.get(section, {}), fresh.get(section, {})
        for key in sorted(set(a) | set(b)):
            if key not in a:
                diffs.append(f"{section}[{key}]: not in golden")
            elif key not in b:
                diffs.append(f"{section}[{key}]: missing from run")
            elif a[key] != b[key]:
                diffs.append(f"{section}[{key}]: digest {a[key]} -> "
                             f"{b[key]}")
    a, b = golden.get("metrics", {}), fresh.get("metrics", {})
    for name in sorted(set(a) | set(b)):
        if name not in a:
            diffs.append(f"metrics[{name}]: not in golden")
            continue
        if name not in b:
            diffs.append(f"metrics[{name}]: missing from run")
            continue
        tol = tolerances.get(name)
        ga, gb = a[name], b[name]
        if tol is None:
            if ga != gb:
                diffs.append(f"metrics[{name}]: {ga!r} -> {gb!r}")
            continue
        for fld in sorted(set(ga) | set(gb)):
            if fld in ("type", "digest"):
                continue
            if not _within(gb.get(fld), ga.get(fld), tol):
                diffs.append(
                    f"metrics[{name}].{fld}: {ga.get(fld)!r} -> "
                    f"{gb.get(fld)!r} outside tolerance {tol}")
    a, b = golden.get("fault_counts", {}), fresh.get("fault_counts", {})
    if a != b:
        diffs.append(f"fault_counts: {a!r} -> {b!r}")
    if golden.get("now") != fresh.get("now"):
        diffs.append(f"now: {golden.get('now')!r} -> {fresh.get('now')!r}")
    return diffs
