"""Application-to-application round-trip time (paper §4.2.1).

"The round-trip time refers to the latency of a single 1 byte message to
travel from one application to another and back."  Socket variants (TCP
and UDP) run over the host stack; QP variants use the verbs API with
cache-spin polling (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core import QPTransport
from ..hoststack import TcpSocket, UdpSocket
from ..net.addresses import Endpoint
from ..net.packet import ZeroPayload
from ..sim import Simulator


@dataclass
class RttResult:
    rtts: List[float]

    @property
    def mean(self) -> float:
        return sum(self.rtts) / len(self.rtts) if self.rtts else 0.0

    @property
    def median(self) -> float:
        if not self.rtts:
            return 0.0
        s = sorted(self.rtts)
        return s[len(s) // 2]


PORT = 5001


def _finish(sim: Simulator, procs, deadline: float) -> None:
    sim.run(until=sim.now + deadline)
    for p in procs:
        if not p.triggered:
            raise RuntimeError("ping-pong did not finish")
        if not p.ok:
            raise p.value


def socket_tcp_rtt(sim: Simulator, client_node, server_node,
                   iterations: int = 100, msg_size: int = 1) -> RttResult:
    """TCP ping-pong over the host stack."""
    rtts: List[float] = []

    def server():
        lsock = TcpSocket(server_node.kernel, server_node.addr)
        lsock.listen(PORT)
        conn = yield from lsock.accept()
        for _ in range(iterations):
            data = yield from conn.recv_exact(msg_size)
            yield from conn.send(data)

    def client():
        sock = TcpSocket(client_node.kernel, client_node.addr)
        yield from sock.connect(Endpoint(server_node.addr, PORT))
        for _ in range(iterations):
            t0 = sim.now
            yield from sock.send(ZeroPayload(msg_size))
            yield from sock.recv_exact(msg_size)
            rtts.append(sim.now - t0)

    procs = [sim.process(server()), sim.process(client())]
    _finish(sim, procs, 60_000_000)
    return RttResult(rtts)


def socket_udp_rtt(sim: Simulator, client_node, server_node,
                   iterations: int = 100, msg_size: int = 1) -> RttResult:
    """UDP ping-pong over the host stack."""
    rtts: List[float] = []

    def server():
        sock = UdpSocket(server_node.kernel, server_node.addr)
        sock.bind(PORT)
        for _ in range(iterations):
            dg = yield from sock.recvfrom()
            yield from sock.sendto(dg.src, dg.payload)

    def client():
        sock = UdpSocket(client_node.kernel, client_node.addr)
        sock.bind()
        yield sim.timeout(100)   # let the server bind
        for _ in range(iterations):
            t0 = sim.now
            yield from sock.sendto(Endpoint(server_node.addr, PORT),
                                   ZeroPayload(msg_size))
            yield from sock.recvfrom()
            rtts.append(sim.now - t0)

    procs = [sim.process(server()), sim.process(client())]
    _finish(sim, procs, 60_000_000)
    return RttResult(rtts)


def _qp_rtt(sim: Simulator, client_node, server_node, transport: QPTransport,
            iterations: int, msg_size: int) -> RttResult:
    """Shared QP ping-pong body for TCP and UDP transports."""
    rtts: List[float] = []
    buf_size = max(4096, msg_size)

    def server():
        iface = server_node.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(transport, cq)
        bufs = []
        for _ in range(4):
            buf = yield from iface.register_memory(buf_size)
            yield from iface.post_recv(qp, [buf.sge()])
            bufs.append(buf)
        sbuf = yield from iface.register_memory(buf_size)
        if transport is QPTransport.TCP:
            listener = yield from iface.listen(PORT)
            yield from iface.accept(listener, qp)
        else:
            yield from iface.bind_udp(qp, PORT)
        done = 0
        ring = 0
        while done < iterations:
            cqes = yield from iface.spin(cq)
            for cqe in cqes:
                if cqe.opcode.value != "RECV":
                    continue
                dest = cqe.src if transport is QPTransport.UDP else None
                yield from iface.post_send(qp, [sbuf.sge(0, msg_size)],
                                           dest=dest)
                # Repost the consumed receive buffer.
                yield from iface.post_recv(qp, [bufs[ring].sge()])
                ring = (ring + 1) % len(bufs)
                done += 1

    def client():
        iface = client_node.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(transport, cq)
        bufs = []
        for _ in range(4):
            buf = yield from iface.register_memory(buf_size)
            yield from iface.post_recv(qp, [buf.sge()])
            bufs.append(buf)
        sbuf = yield from iface.register_memory(buf_size)
        yield sim.timeout(1000)   # let the server listen/bind
        if transport is QPTransport.TCP:
            yield from iface.connect(qp, Endpoint(server_node.addr, PORT))
        else:
            yield from iface.bind_udp(qp)
        dest = Endpoint(server_node.addr, PORT) \
            if transport is QPTransport.UDP else None
        ring = 0
        for _ in range(iterations):
            t0 = sim.now
            yield from iface.post_send(qp, [sbuf.sge(0, msg_size)], dest=dest)
            got_pong = False
            while not got_pong:
                cqes = yield from iface.spin(cq)
                for cqe in cqes:
                    if cqe.opcode.value == "RECV":
                        got_pong = True
                        rtts.append(sim.now - t0)
                        yield from iface.post_recv(qp, [bufs[ring].sge()])
                        ring = (ring + 1) % len(bufs)

    procs = [sim.process(server()), sim.process(client())]
    _finish(sim, procs, 60_000_000)
    return RttResult(rtts)


def qpip_tcp_rtt(sim: Simulator, client_node, server_node,
                 iterations: int = 100, msg_size: int = 1) -> RttResult:
    return _qp_rtt(sim, client_node, server_node, QPTransport.TCP,
                   iterations, msg_size)


def qpip_udp_rtt(sim: Simulator, client_node, server_node,
                 iterations: int = 100, msg_size: int = 1) -> RttResult:
    return _qp_rtt(sim, client_node, server_node, QPTransport.UDP,
                   iterations, msg_size)
