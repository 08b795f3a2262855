#!/usr/bin/env python
"""Many short chaos worlds in one process: resident memory must stay flat.

Runs 100 recover-mode ``run_chaos`` worlds one after another (16
messages of 1 KiB, one forced restart, 2 % drop) and fails if the
process's peak resident size grows by 1 MB or more from the 10th world
to the 100th.  A finished world is reclaimed when ``run_chaos`` returns
(docs/performance.md, "World lifetime"); a world left for the cyclic
collector's next full pass shows up here as growth.

    PYTHONPATH=src python tools/world_sweep.py
"""

import os
import resource
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.faults import FaultPlan, run_chaos  # noqa: E402

WORLDS = 100
BASE_WORLD = 10
MAX_GROWTH_MB = 1.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    for world in range(1, WORLDS + 1):
        result = run_chaos(seed=world, recover=True, messages=16,
                           msg_size=1024, restarts=1,
                           plan=FaultPlan().drop(0.02))
        if not result.ok:
            print(result.summary(), file=sys.stderr)
            return 1
        if world == BASE_WORLD:
            base = peak_rss_mb()
    growth = peak_rss_mb() - base
    print(f"{WORLDS} worlds: peak RSS {peak_rss_mb():.1f} MB, "
          f"{growth:+.2f} MB from world {BASE_WORLD} to {WORLDS}")
    if growth >= MAX_GROWTH_MB:
        print(f"world_sweep: grew {growth:.2f} MB, bound {MAX_GROWTH_MB} MB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
