"""InetStack: IP + TCP + UDP wired together (pure protocol logic).

Both protocol owners in the system instantiate one of these:

* the **host kernel** (`repro.hoststack`) — the baseline, where every
  packet costs host CPU time;
* the **QPIP NIC firmware** (`repro.core.firmware`) — the paper's
  contribution, where the same logic runs on the adapter.

Timing is the owner's job; the stack only decides *what* happens.
"""

from __future__ import annotations

from typing import Callable, Optional

from .. import obs
from ..sim import Simulator
from .addresses import Endpoint
from .headers.ip import PROTO_TCP, PROTO_UDP
from .ip import IpModule, ParsedSegment, RouteEntry
from .packet import Packet, Payload
from .tcp import TcpConfig, TcpConnection, TcpModule
from .udp import UdpModule


class InetStack:
    """A complete inter-network protocol stack instance."""

    def __init__(self, sim: Simulator, name: str = "stack", isn_seed: int = 0):
        self.sim = sim
        self.name = name
        self.ip = IpModule(name=f"{name}.ip")
        self.tcp = TcpModule(sim, isn_seed=isn_seed)
        self.udp = UdpModule(sim)
        self.udp.send = self._udp_send
        self.tcp.send_rst = self._tcp_send_rst
        self.checksum_errors = 0
        # Hook for observability (e.g., tracing every delivered segment).
        self.on_segment: Optional[Callable[[ParsedSegment], None]] = None

    # -- transmit paths ----------------------------------------------------

    @staticmethod
    def _segment_ecn(conn: TcpConnection, payload: Payload) -> int:
        # RFC 3168: mark data segments ECT(0) on ECN-capable connections.
        return 0b10 if (conn.ecn_ok and payload.length) else 0

    def send_segment(self, conn: TcpConnection, hdr, payload: Payload) -> None:
        """Emit one TCP segment for a connection (drain path calls this)."""
        self.ip.send(conn.tuple.local.addr, conn.tuple.remote.addr, hdr,
                     payload, ecn=self._segment_ecn(conn, payload))

    def build_segment_packet(self, conn: TcpConnection, hdr,
                             payload: Payload) -> Packet:
        return self.ip.build(conn.tuple.local.addr, conn.tuple.remote.addr,
                             hdr, payload, ecn=self._segment_ecn(conn, payload))

    def _udp_send(self, src_ip, dst_ip, hdr, payload) -> None:
        self.ip.send(src_ip, dst_ip, hdr, payload)

    def _tcp_send_rst(self, src: Endpoint, dst: Endpoint, hdr) -> None:
        from .packet import EMPTY
        self.ip.send(src.addr, dst.addr, hdr, EMPTY)

    # -- receive path --------------------------------------------------------

    def packet_in(self, pkt: Packet, verify_checksum: bool = True
                  ) -> Optional[ParsedSegment]:
        """Full input processing for one packet off the wire."""
        seg = self.ip.parse(pkt, verify_checksum=verify_checksum)
        if seg is None:
            return None
        if not seg.checksum_ok:
            self.checksum_errors += 1
            rec = obs.RECORDER
            if rec is not None:
                rec.event("net", "net.checksum_drop", track=self.name,
                          pkt=pkt.trace_id)
                rec.metrics.counter("net.checksum_errors").add()
            return seg          # dropped: corrupted segments never reach TCP/UDP
        if self.on_segment is not None:
            self.on_segment(seg)
        if seg.proto == PROTO_TCP:
            self.tcp.input(seg.src, seg.dst, seg.transport, seg.payload,
                           ce=seg.ce)
        else:
            self.udp.input(seg.src, seg.dst, seg.transport, seg.payload)
        return seg
