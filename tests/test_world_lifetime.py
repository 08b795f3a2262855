"""A finished world is collectable — registries included.

Nothing module-level (``obs.RECORDER``, ``checksum._ADDR_SUM_CACHE``,
``Packet`` class state) and none of the park-and-settle registries
(``Simulator.parked``, ``WorkQueue.parked``,
``CompletionQueue.spinners``) may pin a simulator after its run
returns: a leaked world is memory in a long-lived ``repro serve``
process and hidden cross-test state in this suite.
"""

import gc

from repro import obs
from repro.apps.pingpong import qpip_udp_rtt
from repro.bench.configs import build_qpip_pair
from repro.collectives import CollectiveJob, CollectiveWorkSpec
from repro.core import CompletionQueue
from repro.core.verbs import _ParkedSpin
from repro.faults import FaultPlan, run_chaos
from repro.sim import Simulator

WORLD_TYPES = (Simulator, _ParkedSpin, CompletionQueue)


def _live():
    gc.collect()
    counts = dict.fromkeys(WORLD_TYPES, 0)
    for obj in gc.get_objects():
        if type(obj) in counts:
            counts[type(obj)] += 1
    return counts


def _spinning_pingpong():
    sim = Simulator()
    a, b, _fabric = build_qpip_pair(sim)
    # Two processes spin on their CQs, parking between CQEs.
    assert len(qpip_udp_rtt(sim, a, b, iterations=20).rtts) == 20


def _abandoned_spinner():
    sim = Simulator()
    node = build_qpip_pair(sim)[0]
    cq = CompletionQueue(sim, 1)
    sim.process(node.iface.spin(cq))
    sim.run()
    # Left parked: registered with the CQ, the host CPU and the kernel.
    assert cq.spinners and node.host.cpu.parked is not None and sim.parked


def _chaos_recover():
    result = run_chaos(seed=2, plan=FaultPlan().drop(0.02), recover=True,
                       messages=24, msg_size=1024, restarts=1)
    assert result.ok, result.summary()


def _allreduce():
    work = CollectiveWorkSpec(engine="host", algo="allreduce",
                              vector_len=64, seed=3)
    # metrics=True installs obs.RECORDER for the length of the run.
    assert CollectiveJob(work, hosts=8, metrics=True).run()["oracle_match"]


def test_finished_worlds_are_collected():
    before = _live()
    for run in (_spinning_pingpong, _abandoned_spinner, _chaos_recover,
                _allreduce):
        run()
        assert obs.RECORDER is None, run.__name__
        assert _live() == before, run.__name__
