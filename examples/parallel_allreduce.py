#!/usr/bin/env python
"""Parallel computing on the SAN: allreduce over queue pairs.

The paper descends from Active Messages and U-Net — interfaces built for
parallel programs.  Here five simulated hosts on one Myrinet switch run
a ring allreduce (the collective at the heart of data-parallel training
today) with the host engine of ``repro.collectives`` — the schedule runs
in the application, one verbs round trip per step — and we watch how the
time splits between host CPU, NIC firmware, and the wire.

Run:  python examples/parallel_allreduce.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster import ShardWorker
from repro.collectives import (COLLECTIVE_FLOW_BASE, CollectiveJob,
                               CollectiveWorkSpec)

N_RANKS = 5
VECTOR = 512          # float64 elements (4 KiB payload)


def main():
    work = CollectiveWorkSpec(engine="host", algo="allreduce",
                              vector_len=VECTOR)
    job = CollectiveJob(work, hosts=N_RANKS,
                        hosts_per_edge=N_RANKS)   # one switch, every rank
    summary = job.run()
    assert summary["status_ok"] and summary["oracle_match"], summary
    print(f"{N_RANKS} ranks, one allreduce of {VECTOR} float64 -> every "
          f"rank matches the oracle ({summary['result_digest']})\n")
    print(f"allreduce latency: {summary['max_wall_time_us']:.1f} µs "
          f"({summary['steps_per_rank'][0]} ring steps per rank)")

    # The summary is per job; per-host accounting needs the world itself,
    # so rebuild the same spec in one kernel and keep it.
    world = ShardWorker(job.spec, 0, 1)
    world.run_to(job.spec.horizon)
    print(f"\n{'rank':>4s} {'host CPU µs':>12s} {'NIC busy µs':>12s} "
          f"{'bytes sent':>11s}")
    for rank, node in sorted(world.nodes.items()):
        stats = world.results[COLLECTIVE_FLOW_BASE + rank]["stats"]
        print(f"{rank:4d} {node.host.cpu.busy_time:12.1f} "
              f"{node.nic.processor.busy_time:12.1f} "
              f"{stats['bytes_sent']:11d}")
    print("\nThe hosts post WRs and sleep; the NICs run TCP.  That division "
          "is the paper.")


if __name__ == "__main__":
    main()
