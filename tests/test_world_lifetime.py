"""A finished world is collectable — registries included — and the
entry points that run one reclaim it before they return.

Nothing module-level (``obs.RECORDER``, ``checksum._ADDR_SUM_CACHE``,
``Packet`` class state) and none of the park-and-settle registries
(``Simulator.parked``, ``WorkQueue.parked``,
``CompletionQueue.spinners``) may pin a simulator after its run
returns: a leaked world is memory in a long-lived ``repro serve``
process and hidden cross-test state in this suite.
"""

import gc

import pytest

from repro import obs
from repro.apps.pingpong import qpip_udp_rtt
from repro.bench.configs import build_qpip_pair
from repro.cluster import ClusterSpec, make_flows, run_cluster, run_single
from repro.collectives import CollectiveJob, CollectiveWorkSpec
from repro.core import CompletionQueue
from repro.core.verbs import _ParkedSpin
from repro.faults import FaultPlan, check_determinism, run_chaos
from repro.mem import PhysicalMemory
from repro.sim import Simulator, reclaim_world

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


# -- entry points reclaim their world on return -------------------------------

RECLAIMED_TYPES = (Simulator, CompletionQueue, PhysicalMemory)


def _count(types):
    counts = dict.fromkeys(types, 0)
    for obj in gc.get_objects():
        if type(obj) in counts:
            counts[type(obj)] += 1
    return counts


def _small_cluster():
    return ClusterSpec(hosts=4, hosts_per_edge=2, seed=5,
                       flows=make_flows("ttcp", 4, 2, seed=5,
                                        total_bytes=16384, chunk=4096))


ENTRY_POINTS = {
    "run_chaos": lambda: run_chaos(seed=3, plan=FaultPlan().drop(0.02),
                                   messages=16, msg_size=1024),
    "run_chaos_recover": lambda: run_chaos(
        seed=3, plan=FaultPlan().drop(0.02), recover=True, messages=16,
        msg_size=1024, restarts=1),
    "check_determinism": lambda: check_determinism(
        seed=3, recover=True, messages=8, msg_size=1024, restarts=1),
    "collective_job": lambda: CollectiveJob(
        CollectiveWorkSpec(engine="nic", algo="allreduce", vector_len=32,
                           seed=2), hosts=4, hosts_per_edge=2).run(),
    "run_single": lambda: run_single(_small_cluster()),
    "run_cluster": lambda: run_cluster(_small_cluster(), 2),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_point_returns_with_its_world_gone(name):
    """With automatic collection off, nothing but the entry point's own
    scope can reclaim the world's cycles before the count."""
    gc.collect()
    before = _count(RECLAIMED_TYPES)
    gc.disable()
    try:
        assert ENTRY_POINTS[name]() is not None
        after = _count(RECLAIMED_TYPES)
    finally:
        gc.enable()
    assert after == before


def test_scope_unfreezes_when_nested_or_raising():
    assert gc.get_freeze_count() == 0
    with reclaim_world():
        assert gc.get_freeze_count() > 0
        with reclaim_world():
            pass
        assert gc.get_freeze_count() > 0
    assert gc.get_freeze_count() == 0
    with pytest.raises(RuntimeError):
        with reclaim_world():
            raise RuntimeError("inside the world")
    assert gc.get_freeze_count() == 0


def test_scope_leaves_an_outside_freeze_alone():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        with reclaim_world():
            pass
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
