"""Tests for the repro.obs subsystem: recorder, exports, query API."""

import json
import struct

import pytest

from repro import obs
from repro.bench.configs import build_qpip_pair
from repro.obs import (MetricsRegistry, TraceAssertionError, TraceQuery,
                       TraceRecorder)
from repro.sim import Simulator
from repro.tools import Wiretap


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    """Every test must leave the global recorder uninstalled."""
    yield
    assert obs.RECORDER is None
    obs.uninstall()


class TestRecorder:
    def test_install_uninstall(self, sim):
        assert obs.RECORDER is None
        rec = obs.install(sim)
        assert obs.RECORDER is rec
        assert obs.uninstall() is rec
        assert obs.RECORDER is None

    def test_capture_scopes_the_global(self, sim):
        with obs.capture(sim) as rec:
            assert obs.RECORDER is rec
        assert obs.RECORDER is None

    def test_events_carry_sim_time(self, sim):
        rec = TraceRecorder(sim)
        sim.call_later(7.5, lambda: rec.event("c", "n", x=1))
        sim.run()
        (ev,) = rec.records
        assert (ev.ts, ev.ph, ev.cat, ev.name) == (7.5, "i", "c", "n")
        assert ev.fields == {"x": 1}

    def test_span_ids_are_stable_and_sequential(self, sim):
        rec = TraceRecorder(sim)
        s1 = rec.begin("c", "a", key=("k", 1))
        s2 = rec.begin("c", "b", key=("k", 2))
        assert (s1, s2) == (1, 2)
        assert rec.open_spans() == 2
        assert rec.end(("k", 1)) == 0.0
        assert rec.open_spans() == 1

    def test_end_reports_elapsed_sim_time(self, sim):
        rec = TraceRecorder(sim)
        rec.begin("c", "a", key=("k",))
        sim.call_later(12.0, lambda: None)
        sim.run()
        assert rec.end(("k",)) == 12.0

    def test_orphan_end_is_recorded_not_raised(self, sim):
        rec = TraceRecorder(sim)
        assert rec.end(("nope",)) is None
        assert rec.records[-1].name == "orphan_end"

    def test_rebegin_closes_stale_span(self, sim):
        rec = TraceRecorder(sim)
        rec.begin("c", "a", key=("k",))
        rec.begin("c", "a", key=("k",))
        assert rec.open_spans() == 1
        ends = [ev for ev in rec.records if ev.ph == "e"]
        assert len(ends) == 1 and ends[0].fields == {"abandoned": True}

    def test_capacity_bound(self, sim):
        rec = TraceRecorder(sim, capacity=3)
        for i in range(5):
            rec.event("c", f"n{i}")
        assert len(rec.records) == 3
        assert rec.dropped == 2
        assert rec.metrics.counter("obs.dropped_events").value == 2


class TestExports:
    def _small_trace(self, sim):
        rec = TraceRecorder(sim)
        rec.begin("verbs", "wr.send", key=("wr", 1), track="hostA")
        rec.complete("fw.stage", "get_wr", 5.5, track="nicA")
        rec.event("link", "link.tx", track="l0", pkt=3, bytes=100)
        rec.end(("wr", 1), status="SUCCESS")
        return rec

    def test_jsonl_round_trips(self, sim, tmp_path):
        rec = self._small_trace(sim)
        path = tmp_path / "t.jsonl"
        assert rec.to_jsonl(str(path)) == 4
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["ph"] for l in lines] == ["b", "X", "i", "e"]
        assert lines[0]["span"] == lines[3]["span"] == 1
        assert lines[1]["dur"] == 5.5
        assert lines[2]["fields"] == {"pkt": 3, "bytes": 100}

    def test_chrome_trace_shape(self, sim, tmp_path):
        rec = self._small_trace(sim)
        path = tmp_path / "t.json"
        rec.to_chrome(str(path))
        doc = json.loads(path.read_text())
        evs = doc["traceEvents"]
        # Metadata names the process and each track-thread.
        assert evs[0] == {"ph": "M", "pid": 1, "tid": 0,
                          "name": "process_name",
                          "args": {"name": "repro simulation"}}
        thread_names = {e["args"]["name"] for e in evs
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"hostA", "nicA", "l0"} <= thread_names
        b = next(e for e in evs if e["ph"] == "b")
        e = next(e for e in evs if e["ph"] == "e")
        assert b["id"] == e["id"]
        assert b["cat"] == e["cat"] == "verbs"
        x = next(e for e in evs if e["ph"] == "X")
        assert x["dur"] == 5.5
        inst = next(e for e in evs if e["ph"] == "i")
        assert inst["s"] == "t"


class TestPcapngExport:
    def _walk_blocks(self, raw):
        blocks = []
        off = 0
        while off < len(raw):
            btype, blen = struct.unpack_from("<II", raw, off)
            assert blen % 4 == 0
            (trailer,) = struct.unpack_from("<I", raw, off + blen - 4)
            assert trailer == blen
            blocks.append((btype, raw[off:off + blen]))
            off += blen
        return blocks

    def test_structure_and_timestamps(self, sim, tmp_path):
        from repro.apps.pingpong import qpip_tcp_rtt
        a, b, _f = build_qpip_pair(sim)
        tap = Wiretap(sim)
        tap.attach_qpip_nic(a.nic)
        qpip_tcp_rtt(sim, a, b, iterations=3)
        path = tmp_path / "c.pcapng"
        n = tap.write_pcapng(str(path))
        assert n == len(tap) > 0
        blocks = self._walk_blocks(path.read_bytes())
        types = [t for t, _ in blocks]
        assert types[0] == 0x0A0D0D0A                  # SHB
        assert types[1] == 0x00000001                  # IDB
        assert types.count(0x00000006) == n            # one EPB per packet
        # SHB: byte-order magic and version 1.0.
        magic, major, minor = struct.unpack_from("<IHH", blocks[0][1], 8)
        assert (magic, major, minor) == (0x1A2B3C4D, 1, 0)
        # IDB: raw-IP linktype (Myrinet header stripped), tsresol option = 9.
        (linktype,) = struct.unpack_from("<H", blocks[1][1], 8)
        assert linktype == 101
        assert b"\x09\x00\x01\x00\x09" in blocks[1][1]  # if_tsresol: 10^-9
        # EPBs: ns timestamps match the tap records, lengths honest.
        epbs = [body for t, body in blocks if t == 0x00000006]
        for rec, body in zip(tap.records, epbs):
            _iface, hi, lo, cap, orig = struct.unpack_from("<IIIII", body, 8)
            assert (hi << 32) | lo == round(rec.time * 1000)
            assert cap == orig

    def test_ethernet_capture_keeps_linktype_1(self, sim, tmp_path):
        from repro.apps.pingpong import socket_tcp_rtt
        from repro.bench.configs import build_gige_pair
        a, b, _f = build_gige_pair(sim)
        tap = Wiretap(sim)
        tap.attach_dumb_nic(a.nic)
        socket_tcp_rtt(sim, a, b, iterations=2)
        path = tmp_path / "e.pcapng"
        tap.write_pcapng(str(path))
        blocks = self._walk_blocks(path.read_bytes())
        (linktype,) = struct.unpack_from("<H", blocks[1][1], 8)
        assert linktype == 1


class TestTraceQuery:
    def _query(self, sim):
        rec = TraceRecorder(sim)
        rec.event("verbs", "wr.post", qp=3)
        sim.call_later(10.0, lambda: rec.event("fw", "fw.fetch_wr", qp=3))
        sim.call_later(25.0, lambda: rec.event("verbs", "cqe", qp=3))
        sim.run()
        return TraceQuery(rec)

    def test_events_filters(self, sim):
        q = self._query(sim)
        assert q.count(cat="verbs") == 2
        assert q.count(name="cqe") == 1
        assert q.count(cat="fw", qp=3) == 1
        assert q.count(cat="fw", qp=4) == 0
        assert q.first(cat="verbs").name == "wr.post"
        assert q.last(cat="verbs").name == "cqe"

    def test_span_order_passes_on_subsequence(self, sim):
        q = self._query(sim)
        got = q.assert_span_order("wr.post", "fw.fetch_wr", "cqe")
        assert [e.ts for e in got] == [0.0, 10.0, 25.0]
        # A subsequence with gaps is fine too.
        q.assert_span_order("wr.post", "cqe")

    def test_span_order_fails_on_wrong_order(self, sim):
        q = self._query(sim)
        with pytest.raises(TraceAssertionError, match="not found"):
            q.assert_span_order("cqe", "wr.post")

    def test_no_event(self, sim):
        q = self._query(sim)
        q.assert_no_event(name="tcp.rto")
        q.assert_no_event(name="wr.post", after=5.0)
        with pytest.raises(TraceAssertionError, match="forbidden"):
            q.assert_no_event(name="cqe")

    def test_latency_between(self, sim):
        q = self._query(sim)
        assert q.assert_latency_between("wr.post", "cqe", max_us=30.0) == 25.0
        with pytest.raises(TraceAssertionError, match="outside"):
            q.assert_latency_between("wr.post", "fw.fetch_wr", max_us=5.0)
        with pytest.raises(TraceAssertionError, match="no 'nope'"):
            q.assert_latency_between("nope", "cqe", max_us=1.0)


class TestMetricsRegistry:
    def test_instruments_and_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a.count").add(3)
        reg.gauge("a.depth").set(2.0)
        reg.gauge("a.depth").set(5.0)
        reg.histogram("a.lat").add(1.0)
        reg.histogram("a.lat").add(3.0)
        snap = reg.snapshot()
        assert snap["a.count"] == 3
        assert snap["a.depth"] == {"value": 5.0, "min": 2.0, "max": 5.0}
        assert snap["a.lat"]["count"] == 2
        assert snap["a.lat"]["p50"] == 1.0
        assert "a.count" in reg.render()

    def test_name_collision_across_kinds_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_empty_histogram_percentile_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h").percentile(50)


class TestTracedWorkloadAcceptance:
    """The ISSUE acceptance criterion: one traced ttcp run produces a
    Perfetto-loadable trace, a Wireshark-loadable pcapng, and a metrics
    report — and the trace follows a WR across every layer."""

    def test_ttcp_artifacts_and_cross_layer_spans(self, tmp_path):
        from repro.obs.runner import render_summary, run_traced
        summary = run_traced(workload="ttcp", out_dir=str(tmp_path),
                             total_bytes=64 * 1024, chunk=8192)
        arts = summary["artifacts"]
        # Perfetto-loadable: valid JSON with a traceEvents list.
        doc = json.loads(open(arts["trace_chrome"]).read())
        assert isinstance(doc["traceEvents"], list)
        assert any(e.get("ph") == "b" for e in doc["traceEvents"])
        # Wireshark-loadable: starts with an SHB and parses block-by-block.
        raw = open(arts["pcapng"], "rb").read()
        assert raw[:4] == b"\x0a\x0d\x0d\x0a"
        # Metrics report mentions cross-layer instruments.
        report = open(arts["metrics"]).read()
        for needle in ("verbs.send_posted", "fw.send_fetched", "link.pkts",
                       "fabric.switch_fwd", "cq.cqe", "wr.send.latency_us"):
            assert needle in report
        # The JSONL stream shows a WR's cross-layer causal path.
        events = [json.loads(l) for l in open(arts["trace_jsonl"])]
        q = TraceQuery([_ev_from_dict(d) for d in events])
        q.assert_span_order("wr.send", "fw.fetch_wr", "nic.tx",
                            "switch.fwd", "nic.rx", "fw.deliver", "cqe")
        assert summary["events"] == len(events)
        assert "wrote" in render_summary(summary)

    def test_pingpong_summary_without_artifacts(self, tmp_path):
        from repro.obs.runner import run_traced
        summary = run_traced(workload="pingpong", iterations=4,
                             out_dir=str(tmp_path), write_artifacts=False)
        assert "artifacts" not in summary
        assert summary["iterations"] == 4
        assert summary["metrics"]["qp.established"] >= 1
        # Nothing dropped, so the drop counter was never created.
        assert summary["dropped_events"] == 0
        assert "obs.dropped_events" not in summary["metrics"]

    def test_unknown_workload_rejected(self):
        from repro.obs.runner import run_traced
        with pytest.raises(ValueError):
            run_traced(workload="nbd")


def _ev_from_dict(d):
    from repro.obs.trace import TraceEvent
    return TraceEvent(d["ts"], d["ph"], d.get("cat", ""), d.get("name", ""),
                      span=d.get("span"), dur=d.get("dur"),
                      track=d.get("track", ""), fields=d.get("fields"))
