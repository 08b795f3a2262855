"""Cluster scaling measurement: events/sec vs worker count.

``repro cluster --bench`` prints the report (``--out FILE`` writes it
under ``"cluster_scaling"``); ``scaling_spec`` is also the spec the
``benchmarks/spine`` ``cluster_sharded`` workload runs.

Honesty note: events/sec here is total kernel events divided by
coordinator wall time, measured per worker count on the *same* spec.
Parallel speedup requires parallel hardware — the report records the
CPUs actually available (``sched_getaffinity``) so a flat curve on a
1-core container is attributable, and the determinism of the sharded
run is checked against the oracle regardless.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional

from .runner import assert_equivalent, run_cluster, run_single
from .spec import ClusterSpec, make_flows


def scaling_spec(hosts: int = 32, flows: int = 16,
                 total_bytes: int = 131072, chunk: int = 8192,
                 seed: int = 7, horizon: float = 20_000_000.0,
                 trunk_propagation: float = 5.0) -> ClusterSpec:
    """A ≥32-host fat-tree ttcp mix sized for the scaling benchmark.

    The inter-rack trunks are long (5us) — that widens the conservative
    sync window, so barrier IPC amortizes over real compute per round.
    """
    return ClusterSpec(
        topology="fat-tree", hosts=hosts,
        hosts_per_edge=max(2, hosts // 4), spines=2,
        trunk_propagation=trunk_propagation,
        flows=make_flows("ttcp", hosts, flows, seed=seed,
                         total_bytes=total_bytes, chunk=chunk),
        horizon=horizon, seed=seed)


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def measure_scaling(spec: Optional[ClusterSpec] = None,
                    worker_counts: Iterable[int] = (1, 2, 4),
                    processes: bool = True,
                    check_determinism: bool = True) -> Dict:
    """Run the spec at each worker count; return the scaling report."""
    spec = spec or scaling_spec()
    report: Dict = {
        "workload": "ttcp",
        "topology": spec.topology,
        "hosts": spec.hosts,
        "flows": len(spec.flows),
        "total_bytes_per_flow": spec.flows[0].total_bytes if spec.flows
        else 0,
        "processes": processes,
        "cpus_available": available_cpus(),
        "workers": {},
    }
    oracle = None
    if check_determinism:
        oracle = run_single(spec)
    baseline_eps = None
    for n in worker_counts:
        result = run_cluster(spec, n, processes=processes and n > 1)
        if oracle is not None:
            assert_equivalent(oracle, result)
        eps = result.events_per_sec
        if baseline_eps is None:
            baseline_eps = eps
        report["workers"][str(n)] = {
            "events": result.events,
            "wall_s": round(result.wall_s, 4),
            "events_per_sec": round(eps, 1),
            "speedup": round(eps / baseline_eps, 3) if baseline_eps else 0.0,
            "barriers": result.barriers,
            "trunk_msgs": result.trunk_msgs,
            "per_worker_events": result.per_worker_events,
        }
    if check_determinism:
        report["determinism"] = "sharded runs bit-identical to 1-process oracle"
    return report


def render_scaling(scaling: Dict) -> str:
    lines = [
        f"cluster scaling: {scaling['workload']} x{scaling['flows']} on "
        f"{scaling['hosts']}-host {scaling['topology']} "
        f"({scaling['cpus_available']} CPUs available, "
        f"{'processes' if scaling['processes'] else 'in-process'})",
        f"{'workers':>8} {'events':>10} {'wall s':>8} "
        f"{'events/s':>12} {'speedup':>8} {'barriers':>9}",
    ]
    for n in sorted(scaling["workers"], key=int):
        row = scaling["workers"][n]
        lines.append(
            f"{n:>8} {row['events']:>10,} {row['wall_s']:>8.3f} "
            f"{row['events_per_sec']:>12,.0f} {row['speedup']:>8.2f} "
            f"{row['barriers']:>9}")
    if "determinism" in scaling:
        lines.append(f"  determinism: {scaling['determinism']}")
    return "\n".join(lines)
