"""CollectiveJob: one collective workload on a fabric blueprint, at scale.

Thin orchestration over :mod:`repro.cluster`: build a ``ClusterSpec``
whose every host is one rank, run it single-process or sharded, and
summarize the per-rank records into the exactness checks that matter —
all ranks agree, and they agree with the pure (non-simulated) oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigError
from ..sim import reclaim_world
from .group import (COLLECTIVE_FLOW_BASE, CollectiveWorkSpec,
                    allreduce_oracle, rank_vector)
from .runner import result_digest

# repro.cluster imports this package (spec field, shard drivers), so the
# reverse imports happen lazily inside the functions below.


def collective_cluster_spec(work: CollectiveWorkSpec, hosts: int = 16,
                            topology: str = "fat-tree",
                            hosts_per_edge: int = 4, spines: int = 2,
                            ring_switches: int = 4,
                            horizon: float = 5_000_000.0,
                            metrics: bool = False, seed: int = 1,
                            mtu: int = 16384) -> "ClusterSpec":
    """A ClusterSpec whose only workload is ``work`` over all hosts."""
    from ..cluster import ClusterSpec
    work.validate_world(hosts)
    return ClusterSpec(topology=topology, hosts=hosts,
                       hosts_per_edge=hosts_per_edge, spines=spines,
                       ring_switches=ring_switches, horizon=horizon,
                       seed=seed, mtu=mtu, metrics=metrics, collective=work)


def expected_digest(work: CollectiveWorkSpec, world: int) -> str:
    """Digest of the correct result, computed without the simulator."""
    if work.algo == "barrier":
        return result_digest(None)
    if work.algo == "broadcast":
        return result_digest(rank_vector(work.root, world, work.vector_len,
                                         work.seed))
    return result_digest(allreduce_oracle(world, work.vector_len, work.seed))


def summarize_collective(result, work: CollectiveWorkSpec) -> Dict:
    """Fold a ClusterResult's per-rank records into one summary dict."""
    ranks = {fid - COLLECTIVE_FLOW_BASE: rec
             for fid, rec in result.flows.items()
             if fid >= COLLECTIVE_FLOW_BASE}
    if not ranks:
        raise ConfigError("run produced no collective records")
    world = len(ranks)
    digests = sorted({rec["result_digest"] for rec in ranks.values()})
    statuses = sorted({rec["status"] for rec in ranks.values()})
    walls = [rec["stats"]["wall_time_us"] for rec in ranks.values()]
    expected = expected_digest(work, world)
    return {
        "engine": work.engine,
        "algo": work.algo,
        "variant": work.variant,
        "world": world,
        "vector_len": work.vector_len,
        "status_ok": statuses == ["SUCCESS"],
        "statuses": statuses,
        "ranks_agree": len(digests) == 1,
        "result_digest": digests[0] if len(digests) == 1 else None,
        "expected_digest": expected,
        "oracle_match": digests == [expected],
        "max_wall_time_us": max(walls),
        "mean_wall_time_us": sum(walls) / world,
        "total_bytes_sent": sum(rec["stats"]["bytes_sent"]
                                for rec in ranks.values()),
        "steps_per_rank": sorted({rec["stats"]["steps"]
                                  for rec in ranks.values()}),
        "sim_events": result.events,
        "sim_now_us": result.now,
        "wall_s": result.wall_s,
    }


@dataclass
class CollectiveJob:
    """Run one collective op end to end and summarize it.

    ``workers > 1`` shards the fabric; ``check_determinism`` additionally
    runs the single-process oracle and asserts bit-identical observables
    (``assert_equivalent``) before reporting.
    """

    work: CollectiveWorkSpec
    hosts: int = 16
    topology: str = "fat-tree"
    hosts_per_edge: int = 4
    spines: int = 2
    ring_switches: int = 4
    workers: int = 1
    processes: bool = False
    check_determinism: bool = False
    metrics: bool = False
    horizon: float = 5_000_000.0
    mtu: int = 16384
    seed: int = 1
    spec: Optional[object] = None       # built ClusterSpec (or inject one)

    def __post_init__(self) -> None:
        if self.spec is None:
            self.spec = collective_cluster_spec(
                self.work, hosts=self.hosts, topology=self.topology,
                hosts_per_edge=self.hosts_per_edge, spines=self.spines,
                ring_switches=self.ring_switches, horizon=self.horizon,
                metrics=self.metrics, seed=self.seed, mtu=self.mtu)

    def run(self) -> Dict:
        with reclaim_world():
            return self._run()

    def _run(self) -> Dict:
        from ..cluster import assert_equivalent, run_cluster, run_single
        checked = False
        if self.check_determinism and self.workers > 1:
            oracle = run_single(self.spec)
            sharded = run_cluster(self.spec, self.workers,
                                  processes=self.processes)
            assert_equivalent(oracle, sharded)
            result = sharded
            checked = True
        else:
            result = run_cluster(self.spec, self.workers,
                                 processes=self.processes)
        summary = summarize_collective(result, self.work)
        summary["workers"] = self.workers
        summary["determinism_checked"] = checked
        return summary
