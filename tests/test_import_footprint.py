"""What a simulation process loads: no service or tooling stack.

Importing the subsystem packages and running a simulation, a digesting
collective included, must not pull in the HTTP server/client
(``email.*``, ``socketserver``, libssl), the crypto library behind
``hashlib``, ``multiprocessing`` or the paper-figure runners.  Each of those loads on first use, in the process
that uses it (docs/performance.md, "Start-up and footprint").  The check
runs in a fresh interpreter, because this test process has already
imported everything.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

#: Loaded on first use only; a simulation process must not carry them.
ON_FIRST_USE = ("http.server", "http.client", "socketserver", "email", "ssl",
                "_ssl", "hashlib", "_hashlib", "multiprocessing",
                "repro.bench.runners")

CHILD = """
import json, sys
before = set(sys.modules)
import repro.serve, repro.cluster, repro.gate, repro.collectives
import repro.faults, repro.recovery, repro.bench
from repro.apps.ttcp import qpip_ttcp
from repro.bench import build_qpip_pair
from repro.collectives import CollectiveJob, CollectiveWorkSpec
from repro.sim import Simulator
sim = Simulator()
a, b, _fabric = build_qpip_pair(sim)
moved = qpip_ttcp(sim, a, b, total_bytes=64 * 1024, chunk=8192).bytes_moved
# Every rank digests its result vector.
job = CollectiveJob(CollectiveWorkSpec(engine="host", algo="allreduce",
                                       vector_len=16, seed=1),
                    hosts=4, hosts_per_edge=2)
print(json.dumps({"moved": moved, "oracle_match": job.run()["oracle_match"],
                  "new": sorted(set(sys.modules) - before)}))
"""


def test_simulation_process_loads_no_service_stack():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", CHILD], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    report = json.loads(out.strip().splitlines()[-1])
    assert report["moved"] == 64 * 1024
    assert report["oracle_match"]
    # A package's submodules load it too, so "email" covers email.*.
    assert sorted(set(report["new"]) & set(ON_FIRST_USE)) == []
