"""Collective latency curves: NIC offload vs host engine.

``repro collective --bench`` prints the curves (``--out FILE`` writes them
under ``"collectives"``).

The comparison is honest because both engines run the identical ring
schedule and :func:`~repro.collectives.group.combine_into` rule over the
same fabric blueprint — the latency gap is attributable to architecture
alone.  The host engine pays a full verbs round trip (post, doorbell,
firmware, CQE, process wakeup) per schedule step; the NIC engine
doorbells once, runs the schedule in firmware, and raises a single CQE.
Exactness is checked in the same run: every point records whether all
ranks agreed with the pure oracle and whether the two engines produced
bit-identical result digests.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..errors import ConfigError
from .group import ENGINES, CollectiveWorkSpec
from .job import CollectiveJob

QUICK_WORLDS = (8, 16)
FULL_WORLDS = (16, 32, 64)


def _one_point(engine: str, world: int, algo: str, vector_len: int,
               seed: int, horizon: float) -> Dict:
    work = CollectiveWorkSpec(algo=algo, engine=engine,
                              vector_len=vector_len, seed=seed)
    summary = CollectiveJob(work, hosts=world, horizon=horizon,
                            seed=seed).run()
    return {
        "latency_us": round(summary["max_wall_time_us"], 3),
        "mean_wall_time_us": round(summary["mean_wall_time_us"], 3),
        "total_bytes_sent": summary["total_bytes_sent"],
        "steps_per_rank": summary["steps_per_rank"],
        "sim_events": summary["sim_events"],
        "wall_s": round(summary["wall_s"], 4),
        "result_digest": summary["result_digest"],
        "ok": bool(summary["status_ok"] and summary["ranks_agree"]
                   and summary["oracle_match"]),
    }


def measure_collectives(worlds: Iterable[int] = FULL_WORLDS,
                        algo: str = "allreduce", vector_len: int = 256,
                        seed: int = 1,
                        horizon: float = 20_000_000.0) -> Dict:
    """NIC-vs-host latency at each world size, exactness checked inline."""
    worlds = tuple(worlds)
    if not worlds:
        raise ConfigError("collective bench needs at least one world size")
    report: Dict = {
        "algo": algo,
        "vector_len": vector_len,
        "seed": seed,
        "worlds": list(worlds),
        "curves": {engine: {} for engine in ENGINES},
        "nic_speedup": {},
        "engines_agree": True,
        "all_ok": True,
    }
    for world in worlds:
        points = {engine: _one_point(engine, world, algo, vector_len,
                                     seed, horizon)
                  for engine in ENGINES}
        for engine, point in points.items():
            report["curves"][engine][str(world)] = point
            report["all_ok"] = report["all_ok"] and point["ok"]
        if points["host"]["result_digest"] != points["nic"]["result_digest"]:
            report["engines_agree"] = False
        host_us = points["host"]["latency_us"]
        nic_us = points["nic"]["latency_us"]
        report["nic_speedup"][str(world)] = (
            round(host_us / nic_us, 3) if nic_us else 0.0)
    largest = str(max(worlds))
    report["nic_wins_at_largest"] = (
        report["curves"]["nic"][largest]["latency_us"]
        <= report["curves"]["host"][largest]["latency_us"])
    return report


def render_curves(curves: Dict) -> str:
    lines = [
        f"collectives: {curves['algo']} of {curves['vector_len']} float64 "
        f"(seed {curves['seed']})",
        f"{'hosts':>8} {'host us':>12} {'nic us':>12} {'speedup':>8} "
        f"{'host bytes':>12} {'nic bytes':>12}",
    ]
    for world in sorted(curves["curves"]["host"], key=int):
        host = curves["curves"]["host"][world]
        nic = curves["curves"]["nic"][world]
        lines.append(
            f"{world:>8} {host['latency_us']:>12,.1f} "
            f"{nic['latency_us']:>12,.1f} "
            f"{curves['nic_speedup'][world]:>8.2f} "
            f"{host['total_bytes_sent']:>12,} "
            f"{nic['total_bytes_sent']:>12,}")
    lines.append(
        f"  exactness: all ranks match the oracle: {curves['all_ok']}; "
        f"engines bit-identical: {curves['engines_agree']}")
    lines.append(
        f"  nic offload wins at the largest size: "
        f"{curves['nic_wins_at_largest']}")
    return "\n".join(lines)
