"""ttcp-style throughput benchmark (paper §4.2.1, Figure 4).

"Throughput results were derived from the ttcp (v1.4) benchmark.  The
tests involved a 10MB transfer in 16KB chunks with the TCP_NODELAY
option set."  We report sustained MB/s plus the transmitting host's CPU
utilization over the transfer window — the two Figure 4 series.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import QPTransport
from ..hoststack import TcpSocket
from ..net.addresses import Endpoint
from ..net.packet import ZeroPayload
from ..sim import Simulator
from ..units import to_mb_per_sec

PORT = 5010
DEFAULT_TOTAL = 10 * 1024 * 1024
DEFAULT_CHUNK = 16 * 1024


@dataclass
class ThroughputResult:
    bytes_moved: int
    elapsed_us: float
    tx_cpu_utilization: float
    rx_cpu_utilization: float
    t_start: float = 0.0     # absolute sim time the transfer began
    t_end: float = 0.0       # absolute sim time the receiver finished

    @property
    def mb_per_sec(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return to_mb_per_sec(self.bytes_moved / self.elapsed_us)


def _finish(sim, procs, deadline):
    sim.run(until=sim.now + deadline)
    for p in procs:
        if not p.triggered:
            raise RuntimeError("ttcp did not finish")
        if not p.ok:
            raise p.value


def socket_ttcp(sim: Simulator, client_node, server_node,
                total_bytes: int = DEFAULT_TOTAL,
                chunk: int = DEFAULT_CHUNK) -> ThroughputResult:
    """Host-stack ttcp: write()s of ``chunk`` bytes, TCP_NODELAY."""
    window = {}

    def server():
        lsock = TcpSocket(server_node.kernel, server_node.addr)
        lsock.listen(PORT)
        conn = yield from lsock.accept()
        got = 0
        while got < total_bytes:
            data = yield from conn.recv(1 << 20)
            if data.length == 0:
                break
            got += data.length
        window["rx_done"] = sim.now

    def client():
        sock = TcpSocket(client_node.kernel, client_node.addr)
        yield from sock.connect(Endpoint(server_node.addr, PORT))
        client_node.host.reset_cpu_stats()
        server_node.host.reset_cpu_stats()
        window["start"] = sim.now
        sent = 0
        while sent < total_bytes:
            n = min(chunk, total_bytes - sent)
            yield from sock.send(ZeroPayload(n))
            sent += n
        window["tx_done"] = sim.now

    procs = [sim.process(server()), sim.process(client())]
    _finish(sim, procs, 600_000_000)
    elapsed = window["rx_done"] - window["start"]
    tx_elapsed = max(1.0, window["tx_done"] - window["start"])
    return ThroughputResult(
        bytes_moved=total_bytes,
        elapsed_us=elapsed,
        tx_cpu_utilization=client_node.host.cpu.busy_time / tx_elapsed,
        rx_cpu_utilization=server_node.host.cpu.busy_time / elapsed,
        t_start=window["start"], t_end=window["rx_done"])


def qpip_ttcp(sim: Simulator, client_node, server_node,
              total_bytes: int = DEFAULT_TOTAL,
              chunk: int = DEFAULT_CHUNK, queue_depth: int = 8,
              recv_buffers: int = 16) -> ThroughputResult:
    """QPIP ttcp: chunked into max-message-size sends, blocking completions.

    The application pipelines ``queue_depth`` outstanding send WRs and the
    receiver reposts each buffer as it completes — the natural QP idiom
    for a streaming transfer.
    """
    window = {}

    def server():
        iface = server_node.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq,
                                        max_recv_wr=recv_buffers + 4)
        bufs = []
        # Page-sized minimum: tiny receive WRs would advertise a TCP window
        # that rounds to zero under window scaling (each send consumes a
        # whole WR regardless of message size, per the QP model).
        buf_size = max(chunk, 4096)
        for _ in range(recv_buffers):
            buf = yield from iface.register_memory(buf_size)
            yield from iface.post_recv(qp, [buf.sge()])
            bufs.append(buf)
        listener = yield from iface.listen(PORT)
        yield from iface.accept(listener, qp)
        got = 0
        ring = 0
        while got < total_bytes:
            cqes = yield from iface.wait(cq)
            for cqe in cqes:
                got += cqe.byte_len
                if got >= total_bytes:
                    break
                yield from iface.post_recv(qp, [bufs[ring].sge()])
                ring = (ring + 1) % len(bufs)
        window["rx_done"] = sim.now

    def client():
        iface = client_node.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq,
                                        max_send_wr=queue_depth + 4)
        sbuf = yield from iface.register_memory(chunk)
        yield sim.timeout(1000)
        yield from iface.connect(qp, Endpoint(server_node.addr, PORT))
        ep = client_node.firmware.endpoints[qp.qp_num]
        max_msg = ep.conn.max_message
        client_node.host.reset_cpu_stats()
        server_node.host.reset_cpu_stats()
        window["start"] = sim.now
        sent = 0
        inflight = 0
        while sent < total_bytes or inflight > 0:
            while sent < total_bytes and inflight < queue_depth:
                n = min(chunk, max_msg, total_bytes - sent)
                yield from iface.post_send(qp, [sbuf.sge(0, n)])
                sent += n
                inflight += 1
            cqes = yield from iface.wait(cq)
            inflight -= len(cqes)
        window["tx_done"] = sim.now

    procs = [sim.process(server()), sim.process(client())]
    _finish(sim, procs, 600_000_000)
    elapsed = window["rx_done"] - window["start"]
    tx_elapsed = max(1.0, window["tx_done"] - window["start"])
    return ThroughputResult(
        bytes_moved=total_bytes,
        elapsed_us=elapsed,
        tx_cpu_utilization=client_node.host.cpu.busy_time / tx_elapsed,
        rx_cpu_utilization=server_node.host.cpu.busy_time / elapsed,
        t_start=window["start"], t_end=window["rx_done"])
