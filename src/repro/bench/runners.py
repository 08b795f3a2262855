"""Experiment runners: one function per table/figure of the paper.

Each runner builds fresh testbeds, runs the workload, and returns a
result object carrying measured values, paper references, and a
``render()`` method that prints the same rows the paper reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..apps.nbd import (DiskModel, NbdQpipClient, NbdSocketClient, NBD_PORT,
                        qpip_nbd_server, socket_nbd_server)
from ..apps.pingpong import (qpip_tcp_rtt, qpip_udp_rtt, socket_tcp_rtt,
                             socket_udp_rtt)
from ..apps.ttcp import qpip_ttcp, socket_ttcp
from ..core import QPTransport
from ..hoststack import TcpSocket, attach_loopback
from ..hoststack.kernel import HostKernel
from ..hw import Host, ib_class_timing, lanai_fw_checksum
from ..hw.stages import TABLE2_PATHS, TABLE3_PATHS
from ..net.addresses import Endpoint, IPv4Address
from ..net.packet import ZeroPayload
from ..sim import Simulator
from ..units import MB, us_to_cycles
from . import paper
from .configs import build_gige_pair, build_gm_pair, build_qpip_pair
from .report import compare, pct, render_table

HOST_MHZ = 550.0


def _nbd_total_bytes() -> int:
    """Paper workload: 409 MB; override with REPRO_NBD_MB for quick runs."""
    return int(os.environ.get("REPRO_NBD_MB", "409")) * MB


# ---------------------------------------------------------------------------
# Figure 3: RTT
# ---------------------------------------------------------------------------

@dataclass
class Fig3Result:
    rows: List[Tuple[str, str, float, Optional[paper.Ref]]]

    def measured(self, system: str, proto: str) -> float:
        for s, p, v, _ in self.rows:
            if s == system and p == proto:
                return v
        raise KeyError((system, proto))

    def render(self) -> str:
        return render_table(
            "Figure 3: application-to-application RTT (1-byte message)",
            ["system", "proto", "RTT µs (vs paper)"],
            [(s, p, compare(v, ref.value if ref else None))
             for s, p, v, ref in self.rows])


def run_fig3(iterations: int = 100, fw_checksum: bool = True) -> Fig3Result:
    """RTT for IP/GigE, IP/Myrinet and QPIP, TCP and UDP."""
    rows = []
    for system, builder in (("IP/GigE", build_gige_pair),
                            ("IP/Myrinet", build_gm_pair)):
        for proto, fn in (("udp", socket_udp_rtt), ("tcp", socket_tcp_rtt)):
            sim = Simulator()
            a, b, _f = builder(sim)
            result = fn(sim, a, b, iterations=iterations)
            rows.append((system, proto, result.mean,
                         paper.FIG3_RTT[(system, proto)]))
    nic_timing = lanai_fw_checksum() if fw_checksum else None
    for proto, fn in (("udp", qpip_udp_rtt), ("tcp", qpip_tcp_rtt)):
        sim = Simulator()
        a, b, _f = build_qpip_pair(sim, nic_timing=nic_timing)
        result = fn(sim, a, b, iterations=iterations)
        rows.append(("QPIP", proto, result.mean, paper.FIG3_RTT[("QPIP", proto)]))
    return Fig3Result(rows)


# ---------------------------------------------------------------------------
# Figure 4: throughput + CPU utilization (native MTUs)
# ---------------------------------------------------------------------------

@dataclass
class Fig4Result:
    rows: List[Tuple[str, float, float, Optional[paper.Ref], Optional[paper.Ref]]]

    def measured(self, system: str) -> Tuple[float, float]:
        for s, mbps, cpu, _r1, _r2 in self.rows:
            if s == system:
                return mbps, cpu
        raise KeyError(system)

    def render(self) -> str:
        return render_table(
            "Figure 4: ttcp throughput and transmit CPU utilization",
            ["system", "MB/s (vs paper)", "tx CPU (vs paper)"],
            [(s, compare(mbps, r1.value if r1 else None),
              f"{pct(cpu)} (paper {pct(r2.value)})" if r2 else pct(cpu))
             for s, mbps, cpu, r1, r2 in self.rows])


def run_fig4(total_bytes: int = 10 * MB) -> Fig4Result:
    rows = []
    sim = Simulator()
    a, b, _f = build_gige_pair(sim)
    r = socket_ttcp(sim, a, b, total_bytes=total_bytes)
    rows.append(("IP/GigE", r.mb_per_sec, r.tx_cpu_utilization,
                 paper.FIG4_THROUGHPUT["IP/GigE"], paper.FIG4_CPU["IP/GigE"]))
    sim = Simulator()
    a, b, _f = build_gm_pair(sim)
    r = socket_ttcp(sim, a, b, total_bytes=total_bytes)
    rows.append(("IP/Myrinet", r.mb_per_sec, r.tx_cpu_utilization,
                 paper.FIG4_THROUGHPUT["IP/Myrinet"], paper.FIG4_CPU["IP/Myrinet"]))
    sim = Simulator()
    a, b, _f = build_qpip_pair(sim)
    r = qpip_ttcp(sim, a, b, total_bytes=total_bytes)
    rows.append(("QPIP", r.mb_per_sec, r.tx_cpu_utilization,
                 paper.FIG4_THROUGHPUT["QPIP"], paper.FIG4_CPU["QPIP"]))
    return Fig4Result(rows)


@dataclass
class MtuSweepResult:
    rows: List[Tuple[int, float, Optional[paper.Ref]]]
    fw_checksum_mbps: float

    def measured(self, mtu: int) -> float:
        for m, v, _ in self.rows:
            if m == mtu:
                return v
        raise KeyError(mtu)

    def render(self) -> str:
        table = render_table(
            "Figure 4 (text): QPIP throughput vs MTU",
            ["MTU", "MB/s (vs paper)"],
            [(m, compare(v, ref.value if ref else None))
             for m, v, ref in self.rows])
        return table + (
            f"\nfirmware-checksum variant: "
            f"{compare(self.fw_checksum_mbps, paper.FW_CHECKSUM_THROUGHPUT.value)}")


def run_mtu_sweep(total_bytes: int = 10 * MB,
                  mtus: Tuple[int, ...] = (1500, 9000, 16384)) -> MtuSweepResult:
    rows = []
    for mtu in mtus:
        sim = Simulator()
        a, b, _f = build_qpip_pair(sim, mtu=mtu)
        r = qpip_ttcp(sim, a, b, total_bytes=total_bytes)
        rows.append((mtu, r.mb_per_sec, paper.MTU_SWEEP.get(mtu)))
    sim = Simulator()
    a, b, _f = build_qpip_pair(sim, nic_timing=lanai_fw_checksum())
    r = qpip_ttcp(sim, a, b, total_bytes=total_bytes)
    return MtuSweepResult(rows, r.mb_per_sec)


# ---------------------------------------------------------------------------
# Table 1: host overhead
# ---------------------------------------------------------------------------

@dataclass
class Table1Result:
    host_based_us: float
    qpip_us: float

    @property
    def host_based_cycles(self) -> int:
        return us_to_cycles(self.host_based_us, HOST_MHZ)

    @property
    def qpip_cycles(self) -> int:
        return us_to_cycles(self.qpip_us, HOST_MHZ)

    def render(self) -> str:
        return render_table(
            "Table 1: host overhead for transmit+receive of a 1-byte TCP message",
            ["implementation", "µs (vs paper)", "cycles (vs paper)"],
            [("Host-based IP",
              compare(self.host_based_us, paper.TABLE1["host_based_us"].value),
              compare(self.host_based_cycles,
                      paper.TABLE1["host_based_cycles"].value)),
             ("QPIP",
              compare(self.qpip_us, paper.TABLE1["qpip_us"].value),
              compare(self.qpip_cycles, paper.TABLE1["qpip_cycles"].value))])


def run_table1(iterations: int = 100) -> Table1Result:
    # Host-based: loopback RTT / 2 (the paper's methodology; a lower bound
    # because no interface driver runs).
    sim = Simulator()
    host = Host(sim, "lo-host")
    kernel = HostKernel(sim, host)
    addr = IPv4Address.parse("127.0.0.1")
    attach_loopback(kernel, addr)
    rtts: List[float] = []

    def server():
        lsock = TcpSocket(kernel, addr)
        lsock.listen(6000)
        conn = yield from lsock.accept()
        while True:
            data = yield from conn.recv(1)
            if data.length == 0:
                return
            yield from conn.send(data)

    def client():
        sock = TcpSocket(kernel, addr)
        yield from sock.connect(Endpoint(addr, 6000))
        for _ in range(iterations):
            t0 = sim.now
            yield from sock.send(ZeroPayload(1))
            yield from sock.recv_exact(1)
            rtts.append(sim.now - t0)
        sock.close()

    sim.process(server())
    cp = sim.process(client())
    sim.run(until=60_000_000)
    assert cp.triggered and cp.ok
    host_based = (sum(rtts) / len(rtts)) / 2

    # QPIP: "determined by directly timing the associated communication
    # methods from user-space" — CPU consumed by post_send + the
    # completion-reaping poll, per message.
    sim = Simulator()
    a, b, _f = build_qpip_pair(sim)
    measured = {}

    def qp_server():
        iface = b.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq)
        bufs = []
        for _ in range(8):
            buf = yield from iface.register_memory(4096)
            yield from iface.post_recv(qp, [buf.sge()])
            bufs.append(buf)
        listener = yield from iface.listen(9000)
        yield from iface.accept(listener, qp)
        done = 0
        ring = 0
        while done < iterations:
            cqes = yield from iface.wait(cq)
            for _cqe in cqes:
                yield from iface.post_recv(qp, [bufs[ring].sge()])
                ring = (ring + 1) % len(bufs)
                done += 1

    def qp_client():
        iface = a.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq)
        buf = yield from iface.register_memory(4096)
        yield sim.timeout(1000)
        yield from iface.connect(qp, Endpoint(b.addr, 9000))
        cpu = a.host.cpu
        busy = 0.0
        for _ in range(iterations):
            b0 = cpu.busy_time
            yield from iface.post_send(qp, [buf.sge(0, 1)])
            busy += cpu.busy_time - b0
            # Wait off-CPU for the completion, then take the timed poll.
            while not len(cq):
                yield cq.wait_event()
            b0 = cpu.busy_time
            yield from iface.poll(cq)
            busy += cpu.busy_time - b0
        measured["qpip"] = busy / iterations

    sim.process(qp_server())
    cp = sim.process(qp_client())
    sim.run(until=120_000_000)
    assert cp.triggered and cp.ok
    return Table1Result(host_based, measured["qpip"])


# ---------------------------------------------------------------------------
# Tables 2 & 3: NIC occupancy per stage
# ---------------------------------------------------------------------------

@dataclass
class OccupancyResult:
    tx_rows: List[Tuple[str, Optional[float], Optional[float],
                        Optional[float], Optional[float]]]
    rx_rows: List[Tuple[str, Optional[float], Optional[float],
                        Optional[float], Optional[float]]]

    @staticmethod
    def _fmt(v: Optional[float]) -> str:
        return "-" if v is None else f"{v:.1f}"

    def render(self) -> str:
        t2 = render_table(
            "Table 2: transmit-side NIC occupancy (µs)",
            ["stage", "data (paper)", "ack (paper)"],
            [(name, f"{self._fmt(md)} ({self._fmt(pd)})",
              f"{self._fmt(ma)} ({self._fmt(pa)})")
             for name, md, pd, ma, pa in self.tx_rows])
        t3 = render_table(
            "Table 3: receive-side NIC occupancy (µs)",
            ["stage", "data (paper)", "ack (paper)"],
            [(name, f"{self._fmt(md)} ({self._fmt(pd)})",
              f"{self._fmt(ma)} ({self._fmt(pa)})")
             for name, md, pd, ma, pa in self.rx_rows])
        return t2 + "\n\n" + t3

    def stage_tx(self, name: str) -> Tuple[Optional[float], Optional[float]]:
        for n, md, _pd, ma, _pa in self.tx_rows:
            if n == name:
                return md, ma
        raise KeyError(name)


def run_occupancy_tables(messages: int = 50) -> OccupancyResult:
    """Instrument the firmware cycle counter over a 1-byte message stream.

    The client NIC shows the data-transmit and ACK-receive paths; the
    server NIC, which re-posts each consumed receive buffer, shows
    data-receive and ACK-transmit.  Each table row is the stage on that
    column's path (``hw.stages.TABLE2_PATHS`` / ``TABLE3_PATHS``) whose
    ``paper_row`` is the row's label; a row off the path reads ``None``.
    """
    sim = Simulator()
    a, b, _f = build_qpip_pair(sim)
    ring = 8

    def server():
        iface = b.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq)
        bufs = []
        for _ in range(ring):
            buf = yield from iface.register_memory(4096)
            yield from iface.post_recv(qp, [buf.sge()])
            bufs.append(buf)
        listener = yield from iface.listen(9000)
        yield from iface.accept(listener, qp)
        done = 0
        while done < messages:
            for _cqe in (yield from iface.wait(cq)):
                yield from iface.post_recv(qp, [bufs[done % ring].sge()])
                done += 1

    def client():
        iface = a.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq, max_send_wr=300)
        buf = yield from iface.register_memory(4096)
        yield sim.timeout(1000)
        yield from iface.connect(qp, Endpoint(b.addr, 9000))
        a.nic.reset_stats()
        b.nic.reset_stats()
        done = 0
        for _ in range(messages):
            yield from iface.post_send(qp, [buf.sge(0, 1)])
            cqes = yield from iface.wait(cq)
            done += len(cqes)

    sim.process(server())
    cp = sim.process(client())
    sim.run(until=300_000_000)
    assert cp.triggered and cp.ok

    def rows(reference, paths, counters):
        out = []
        for label, (paper_data, paper_ack) in reference.items():
            measured = []
            for path, cc in zip(paths, counters):
                name = next((s.name for s in path if s.paper_row == label),
                            None)
                measured.append(cc.mean(name) if cc.samples.get(name)
                                else None)
            out.append((label, measured[0], paper_data,
                        measured[1], paper_ack))
        return out

    tx_cc, rx_cc = a.nic.cycles, b.nic.cycles
    return OccupancyResult(
        rows(paper.TABLE2_TX, TABLE2_PATHS, (tx_cc, rx_cc)),
        rows(paper.TABLE3_RX, TABLE3_PATHS, (rx_cc, tx_cc)))


# ---------------------------------------------------------------------------
# Figure 7: NBD
# ---------------------------------------------------------------------------

@dataclass
class Fig7Result:
    # system -> op -> (MB/s, MB per CPU-second, fs fraction)
    rows: Dict[Tuple[str, str], Tuple[float, float, float]]

    def measured(self, system: str, op: str) -> Tuple[float, float, float]:
        return self.rows[(system, op)]

    def render(self) -> str:
        table_rows = []
        for (system, op), (mbps, eff, fs) in sorted(self.rows.items()):
            ref = paper.FIG7_THROUGHPUT.get((system, op))
            table_rows.append((system, op,
                               compare(mbps, ref.value if ref else None),
                               f"{eff:.0f}", pct(fs)))
        return render_table(
            "Figure 7: NBD client throughput and CPU effectiveness",
            ["system", "op", "MB/s (vs paper)", "MB/CPU·s", "fs CPU"],
            table_rows)


def _run_nbd(system: str, total_bytes: int) -> Dict[str, object]:
    sim = Simulator()
    if system == "QPIP":
        client, server, _f = build_qpip_pair(sim, mtu=9000)  # §4.2.3: 9000 B
        disk = DiskModel(sim)
        sim.process(qpip_nbd_server(sim, server, disk))
        nbd_client = NbdQpipClient(client, server.addr, NBD_PORT)
    else:
        builder = build_gige_pair if system == "IP/GigE" else build_gm_pair
        client, server, _f = builder(sim)
        disk = DiskModel(sim)
        sim.process(socket_nbd_server(sim, server, disk))
        nbd_client = NbdSocketClient(client, server.addr, NBD_PORT)
    results = {}

    def run():
        yield from nbd_client.connect()
        results["write"] = yield from nbd_client.run_phase("write", total_bytes)
        yield disk.sync()                      # the paper's 'sync'
        results["read"] = yield from nbd_client.run_phase("read", total_bytes)
        yield from nbd_client.disconnect()

    cp = sim.process(run())
    sim.run(until=3_600_000_000)
    assert cp.triggered, f"{system} NBD run did not finish"
    if not cp.ok:
        raise cp.value
    return results


def run_fig7(total_bytes: Optional[int] = None,
             systems: Tuple[str, ...] = ("IP/GigE", "IP/Myrinet", "QPIP")
             ) -> Fig7Result:
    total = total_bytes if total_bytes is not None else _nbd_total_bytes()
    rows: Dict[Tuple[str, str], Tuple[float, float, float]] = {}
    for system in systems:
        results = _run_nbd(system, total)
        for op in ("write", "read"):
            r = results[op]
            fs_frac = r.fs_cpu_busy_us / r.elapsed_us
            rows[(system, op)] = (r.mb_per_sec, r.cpu_effectiveness, fs_frac)
    return Fig7Result(rows)


# ---------------------------------------------------------------------------
# Message-size sweep (latency/bandwidth curves; not a paper figure, but the
# standard SAN characterization the community drew for every interface)
# ---------------------------------------------------------------------------

@dataclass
class MsgSizeSweepResult:
    rows: List[Tuple[int, float, float]]     # (size, rtt/2 µs, MB/s)

    def half_power_point(self) -> int:
        """Smallest size achieving half the peak bandwidth (n_1/2)."""
        peak = max(r[2] for r in self.rows)
        for size, _lat, bw in self.rows:
            if bw >= peak / 2:
                return size
        return self.rows[-1][0]

    def render(self) -> str:
        peak = max(r[2] for r in self.rows)
        body = []
        for size, lat, bw in self.rows:
            bar = "#" * int(bw / peak * 40)
            body.append((size, f"{lat:8.1f}", f"{bw:7.2f}", bar))
        table = render_table(
            "QPIP message-size sweep (one-way latency, streaming bandwidth)",
            ["bytes", "lat µs", "MB/s", ""], body)
        return table + f"\nhalf-power point n1/2 = {self.half_power_point()} bytes"


def run_msgsize_sweep(sizes: Tuple[int, ...] = (1, 64, 256, 1024, 4096,
                                                8192, 16000)
                      ) -> MsgSizeSweepResult:
    from ..apps.pingpong import qpip_tcp_rtt
    rows = []
    for size in sizes:
        sim = Simulator()
        a, b, _f = build_qpip_pair(sim)
        rtt = qpip_tcp_rtt(sim, a, b, iterations=30, msg_size=size).mean
        sim2 = Simulator()
        a2, b2, _f2 = build_qpip_pair(sim2)
        # ~1000 messages per point keeps tiny-message points tractable.
        total = max(64 * 1024, min(4 * MB, size * 1000))
        thr = qpip_ttcp(sim2, a2, b2, total_bytes=total, chunk=size)
        rows.append((size, rtt / 2, thr.mb_per_sec))
    return MsgSizeSweepResult(rows)


# ---------------------------------------------------------------------------
# Fabric scaling (paper §1: "the switch-based design permits a large array
# of devices to be connected in a manner that provides scalable throughput")
# ---------------------------------------------------------------------------

@dataclass
class ScalingResult:
    rows: List[Tuple[int, float, float]]    # (pairs, aggregate MB/s, per-pair)

    def render(self) -> str:
        return render_table(
            "Fabric scaling: concurrent QPIP pairs on one Myrinet switch",
            ["pairs", "aggregate MB/s", "per-pair MB/s"],
            [(n, f"{agg:.1f}", f"{per:.1f}") for n, agg, per in self.rows])


def run_fabric_scaling(pair_counts: Tuple[int, ...] = (1, 2, 3),
                       total_bytes: int = 4 * MB) -> ScalingResult:
    """N disjoint sender->receiver pairs share one switch; a crossbar
    fabric should scale aggregate throughput ~linearly."""
    from .configs import build_qpip_cluster
    rows = []
    for n in pair_counts:
        sim = Simulator()
        nodes, _fabric = build_qpip_cluster(sim, 2 * n)
        done = {}
        t_start = {}

        def make_pair(i):
            src, dst = nodes[2 * i], nodes[2 * i + 1]
            port = 9000 + i

            def server():
                iface = dst.iface
                cq = yield from iface.create_cq()
                qp = yield from iface.create_qp(QPTransport.TCP, cq,
                                                max_recv_wr=64)
                bufs = []
                for _ in range(16):
                    buf = yield from iface.register_memory(16 * 1024)
                    yield from iface.post_recv(qp, [buf.sge()])
                    bufs.append(buf)
                listener = yield from iface.listen(port)
                yield from iface.accept(listener, qp)
                got = 0
                ring = 0
                while got < total_bytes:
                    cqes = yield from iface.wait(cq)
                    for cqe in cqes:
                        got += cqe.byte_len
                        yield from iface.post_recv(qp, [bufs[ring].sge()])
                        ring = (ring + 1) % len(bufs)
                done[i] = sim.now

            def client():
                iface = src.iface
                cq = yield from iface.create_cq()
                qp = yield from iface.create_qp(QPTransport.TCP, cq,
                                                max_send_wr=32)
                sbuf = yield from iface.register_memory(16 * 1024)
                yield sim.timeout(1000)
                yield from iface.connect(qp, Endpoint(dst.addr, port))
                ep = src.firmware.endpoints[qp.qp_num]
                max_msg = ep.conn.max_message
                t_start[i] = sim.now
                sent = 0
                inflight = 0
                while sent < total_bytes or inflight > 0:
                    while sent < total_bytes and inflight < 8:
                        m = min(max_msg, total_bytes - sent)
                        yield from iface.post_send(qp, [sbuf.sge(0, m)])
                        sent += m
                        inflight += 1
                    cqes = yield from iface.wait(cq)
                    inflight -= len(cqes)

            return server(), client()

        procs = []
        for i in range(n):
            srv, cli = make_pair(i)
            procs += [sim.process(srv), sim.process(cli)]
        sim.run(until=sim.now + 600_000_000)
        assert all(p.triggered and p.ok for p in procs), "scaling run hung"
        elapsed = max(done.values()) - min(t_start.values())
        aggregate = n * total_bytes / elapsed * 1e6 / MB
        rows.append((n, aggregate, aggregate / n))
    return ScalingResult(rows)


# ---------------------------------------------------------------------------
# §5.2 ablation: Infiniband-class hardware support
# ---------------------------------------------------------------------------

@dataclass
class HwAblationResult:
    rows: List[Tuple[str, float, float]]     # (config, rtt µs, MB/s)

    def render(self) -> str:
        return render_table(
            "§5.2 ablation: hardware support applied to QPIP",
            ["NIC", "TCP RTT µs", "ttcp MB/s"],
            [(n, f"{r:.1f}", f"{t:.1f}") for n, r, t in self.rows])


def run_hw_ablation(total_bytes: int = 10 * MB) -> HwAblationResult:
    rows = []
    for name, timing in (("LANai-9 prototype", None),
                         ("LANai-9 + fw checksum", lanai_fw_checksum()),
                         ("Infiniband-class", ib_class_timing())):
        sim = Simulator()
        a, b, _f = build_qpip_pair(sim, nic_timing=timing)
        rtt = qpip_tcp_rtt(sim, a, b, iterations=50).mean
        sim2 = Simulator()
        a2, b2, _f2 = build_qpip_pair(sim2, nic_timing=timing)
        thr = qpip_ttcp(sim2, a2, b2, total_bytes=total_bytes).mb_per_sec
        rows.append((name, rtt, thr))
    return HwAblationResult(rows)
