#!/usr/bin/env python3
"""Append one spine result set to ``BENCH_history.jsonl``, a line per workload.

    python3 benchmarks/spine/run.py --out results.json
    python3 tools/bench_history.py results.json

Lines are only ever appended; a set holding an ``id`` (commit x workload x
seed) already there is refused whole.  ``commit`` is the set's fingerprint,
``+dirty`` when ``src`` or ``benchmarks/spine`` differ from HEAD now.
``start``/``end`` are the set's: ``end`` is when the file was written,
``start`` is ``end`` less every run's measured wall seconds (no process
start-up in them, so the set began no later).  ``value`` is what the spine
gates: the median of the ``n`` samples, or a pooled share / percentile.
"""

import json
import os
import subprocess
import sys
import time

ROOT = os.path.normpath(os.path.join(os.path.abspath(__file__), "..", ".."))
HISTORY = os.path.join(ROOT, "BENCH_history.jsonl")
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "spine"))

from report import quartiles  # noqa: E402  (the q1/q3 the spine prints)


def _metric(m: dict) -> dict:
    q1, _median, q3 = quartiles(m["samples"])
    return {"value": m["value"], "q1": q1, "q3": q3, "n": len(m["samples"]),
            "unit": m["unit"]}


def records(path: str, dirty: bool = False) -> list:
    with open(path) as fh:
        rs = json.load(fh)
    fp = rs["fingerprint"]
    commit = fp["commit"] + ("+dirty" if dirty else "")
    end = os.path.getmtime(path)
    start = end - sum(sum(e["end_to_end"]["wall_s"]["samples"])
                      + e.get("traced_wall_s", 0.0)
                      for e in rs["workloads"].values())
    start, end = (time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))
                  for t in (start, end))
    return [{"id": f"{commit}:{name}:{rs['seed']}", "commit": commit,
             "workload": name, "seed": rs["seed"], "quick": rs["quick"],
             "attempt": e["runs"], "start": start, "end": end,
             "errors": {"failed": e["failed"], "attempted": e["attempted"],
                        "notes": e["notes"]},
             "artifact": path,
             "host": {k: fp[k]
                      for k in ("cpus", "python", "platform", "fastpath")},
             "metrics": {k: _metric(m) for k, m in e["end_to_end"].items()}}
            for name, e in rs["workloads"].items()]


def append(path: str, history: str = HISTORY, dirty: bool = False) -> int:
    new = records(path, dirty)
    seen = set()
    if os.path.exists(history):
        with open(history) as fh:
            seen = {json.loads(line)["id"] for line in fh if line.strip()}
    again = [r["id"] for r in new if r["id"] in seen]
    if again:
        sys.exit("bench_history: already recorded, nothing appended: "
                 + ", ".join(again))
    with open(history, "a") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in new)
    return len(new)


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    changed = subprocess.run(
        ["git", "status", "--porcelain", "--", "src", "benchmarks/spine"],
        cwd=ROOT, text=True, stdout=subprocess.PIPE).stdout.strip()
    count = append(sys.argv[1], dirty=bool(changed))
    print(f"appended {count} record(s) to {HISTORY}")
