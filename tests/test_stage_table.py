"""The firmware stage table (``repro.hw.stages``) is the only source of
stage names and prices.

Every stage a golden, the cycle counter or a trace can show is a table
row; every fixed price is a ``LanaiTiming`` field; and no stage name is
typed at a call site — ``ProgrammableNic.run`` only ever receives spans
built from the table.  Because ``run`` is the one place a stage is
recorded, the cycle counter, the ``fw.stage`` trace and the
``fw.stage_us.<name>`` histograms cannot disagree about a stage.
"""

import ast
import glob
import json
import os
from dataclasses import fields

import pytest

from repro import obs
from repro.apps.pingpong import qpip_udp_rtt
from repro.apps.ttcp import qpip_ttcp
from repro.bench.configs import build_qpip_cluster, build_qpip_pair
from repro.bench.paper import TABLE2_TX, TABLE3_RX
from repro.collectives import CollectiveWorkSpec, collective_rank_driver
from repro.core import QPTransport
from repro.faults.nicfaults import NicFaultController
from repro.hw import LanaiTiming, lanai_fw_checksum
from repro.hw.stages import (GET_WR, MEDIA_SEND_DRAIN, TABLE, TABLE2_PATHS,
                             TABLE3_PATHS, timed)
from repro.mem import Access
from repro.net.addresses import Endpoint
from repro.sim import Simulator

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
NAMES = {row.name for row in TABLE}
PREFIX = "fw.stage_us."


class TestTheTable:
    def test_rows_are_unique_and_priced_by_timing_fields(self):
        assert len(NAMES) == len(TABLE)
        timing_fields = {f.name for f in fields(LanaiTiming)}
        for row in TABLE:
            assert row.cost is None or row.cost in timing_fields, row
        assert {row.name for row in TABLE if row.cost is None} == {
            "rx_checksum", "media_send_drain", "coll_combine", "fault_stall"}

    def test_paper_rows_are_table_2_and_3_labels(self):
        labels = set(TABLE2_TX) | set(TABLE3_RX)
        assert {row.paper_row for row in TABLE} - {None} == labels
        for data, ack in TABLE2_PATHS, TABLE3_PATHS:
            assert set(data) | set(ack) <= set(TABLE)

    def test_sized_and_fixed_rows_cannot_be_confused(self):
        assert timed(LanaiTiming(), GET_WR, MEDIA_SEND_DRAIN.sized(3.0)) \
            == (("get_wr", 5.5), ("media_send_drain", 3.0))
        with pytest.raises(ValueError):
            timed(LanaiTiming(), MEDIA_SEND_DRAIN)
        with pytest.raises(ValueError):
            GET_WR.sized(1.0)


def _keys(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _keys(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _keys(value)


def test_every_golden_stage_histogram_is_a_table_row():
    stages = set()
    for path in glob.glob(os.path.join(ROOT, "scenarios", "golden", "*.json")):
        with open(path) as fh:
            stages |= {key[len(PREFIX):] for key in _keys(json.load(fh))
                       if isinstance(key, str) and key.startswith(PREFIX)}
    assert len(stages) >= 15          # the goldens really carry stages
    assert stages <= NAMES, stages - NAMES


def _rdma_exchange(sim, a, b, sends=3):
    """rdma-QP SENDs a→b, then one WRITE and one READ; returns the
    server's recv CQEs."""
    got, shared = [], {}

    def server():
        iface = b.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq, rdma=True)
        shared["rbuf"] = yield from iface.register_memory(
            4096, access=Access.local() | Access.REMOTE_WRITE
            | Access.REMOTE_READ)
        for _ in range(sends):
            buf = yield from iface.register_memory(4096)
            yield from iface.post_recv(qp, [buf.sge()])
        listener = yield from iface.listen(9100)
        yield from iface.accept(listener, qp)
        while len(got) < sends:
            got.extend((yield from iface.wait(cq)))

    def client():
        iface = a.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq, rdma=True)
        buf = yield from iface.register_memory(4096)
        yield sim.timeout(500)
        yield from iface.connect(qp, Endpoint(b.addr, 9100))
        for _ in range(sends):
            yield from iface.post_send(qp, [buf.sge(0, 64)])
            yield from iface.wait(cq)
        rbuf = shared["rbuf"]
        yield from iface.post_rdma_write(qp, [buf.sge(0, 64)],
                                         remote_addr=rbuf.addr, rkey=rbuf.lkey)
        yield from iface.wait(cq)
        yield from iface.post_rdma_read(qp, buf.sge(0, 64),
                                        remote_addr=rbuf.addr, rkey=rbuf.lkey)
        yield from iface.wait(cq)

    procs = [sim.process(server()), sim.process(client())]
    sim.run(until=50_000_000)
    assert all(p.triggered and p.ok for p in procs)
    assert all(cqe.ok for cqe in got)
    return got


def test_every_stage_the_cycle_counter_records_is_a_table_row():
    """ttcp (firmware checksum), UDP ping-pong, RDMA SEND/WRITE/READ and
    a NIC-offloaded allreduce: the product paths between them."""
    nics = []
    sim = Simulator()
    a, b, _f = build_qpip_pair(sim, nic_timing=lanai_fw_checksum())
    qpip_ttcp(sim, a, b, total_bytes=64 * 1024, chunk=8192)
    nics += [a.nic, b.nic]
    sim = Simulator()
    a, b, _f = build_qpip_pair(sim)
    qpip_udp_rtt(sim, a, b, iterations=4)
    nics += [a.nic, b.nic]
    sim = Simulator()
    a, b, _f = build_qpip_pair(sim)
    _rdma_exchange(sim, a, b)
    nics += [a.nic, b.nic]
    sim = Simulator()
    nodes, _f = build_qpip_cluster(sim, 4)
    spec = CollectiveWorkSpec(engine="nic", algo="allreduce", vector_len=96,
                              seed=17)
    for rank in range(4):
        sim.process(collective_rank_driver(sim, nodes[rank], rank, 4, spec,
                                           {}))
    sim.run(until=50_000_000)
    nics += [node.nic for node in nodes]

    recorded = set()
    for nic in nics:
        recorded |= set(nic.cycles.by_stage)
    assert recorded <= NAMES, recorded - NAMES
    # The four runs reach what they are here for.
    assert {"rx_checksum", "build_udp_hdr", "udp_parse", "rdma_read_req",
            "rx_update_extra", "coll_get_wr", "coll_frame",
            "coll_combine"} <= recorded


def _nic_calls(tree):
    """Every ``<...>nic.run(...)`` / ``<...>nic.span(...)`` call."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("run", "span")):
            continue
        owner = node.func.value
        if (isinstance(owner, ast.Name) and owner.id == "nic") or (
                isinstance(owner, ast.Attribute) and owner.attr == "nic"):
            yield node


def test_no_stage_name_is_typed_at_a_call_site():
    """Every span ``nic.run`` gets is built from table rows: no string
    literal appears anywhere in the arguments of a ``nic.run`` or
    ``nic.span`` call under ``src/repro``."""
    calls, typed = 0, []
    for path in glob.glob(os.path.join(ROOT, "src", "repro", "**", "*.py"),
                          recursive=True):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for call in _nic_calls(tree):
            calls += 1
            typed += [f"{path}:{node.lineno}: {node.value!r}"
                      for arg in call.args + [kw.value for kw in call.keywords]
                      for node in ast.walk(arg)
                      if isinstance(node, ast.Constant)
                      and isinstance(node.value, str)]
    assert calls >= 20
    assert typed == []


class TestObservedByConstruction:
    """Stages and placements the recorder used to miss: both now go
    through the one executor / the one placement body."""

    def test_rdma_send_placement_emits_one_deliver_per_recv_cqe(self):
        sim = Simulator()
        a, b, _f = build_qpip_pair(sim)
        with obs.capture(sim) as rec:
            got = _rdma_exchange(sim, a, b, sends=3)
        delivers = [ev for ev in rec.records if ev.name == "fw.deliver"
                    and ev.track == f"{b.nic.attachment.name}.fw"]
        assert len(got) == 3
        assert len(delivers) == len(got)
        assert [ev.fields["wr_id"] for ev in delivers] == \
            [cqe.wr_id for cqe in got]
        assert rec.metrics.snapshot()["fw.recv_delivered"] == 3

    def test_nic_stall_is_a_traced_stage(self):
        sim = Simulator()
        a, _b, _f = build_qpip_pair(sim)
        with obs.capture(sim) as rec:
            NicFaultController(a.nic).stall_at(100.0, 250.0)
            sim.run(until=1_000.0)
        (span,) = [ev for ev in rec.records
                   if ev.cat == "fw.stage" and ev.name == "fault_stall"]
        assert (span.ts, span.dur) == (100.0, 250.0)
        assert span.track == f"{a.host.name}.{a.nic.name}.core"
        assert PREFIX + "fault_stall" in rec.metrics
        assert a.nic.cycles.mean("fault_stall") == 250.0
