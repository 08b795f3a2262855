"""Test harness: a pair of TCP connections joined by a lossy delay pipe.

This bypasses IP/link layers so the engine can be tested in isolation;
full-stack paths get their own integration tests.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.net.addresses import Endpoint, FourTuple, IPv6Address
from repro.net.headers.transport import SYN, ACK, TCPHeader
from repro.net.packet import Payload
from repro.net.tcp import TcpConfig, TcpConnection
from repro.sim import Simulator


class PipeCtx:
    """Connection context + a one-way delay pipe to the peer context."""

    def __init__(self, sim: Simulator, name: str, delay: float = 5.0):
        self.sim = sim
        self.name = name
        self.delay = delay
        self.peer: Optional["PipeCtx"] = None
        self.conn: Optional[TcpConnection] = None
        self.delivered: List[Tuple[Payload, bool]] = []
        self.completions: List[int] = []
        self.events: List[str] = []
        self.reset_exc: Optional[Exception] = None
        self.established = False
        self.closed = False
        self.remote_fin = False
        self.buffer_space_signals = 0
        self.sent: List[Tuple[float, TCPHeader, int]] = []   # (time, hdr, paylen)
        self.received: List[Tuple[float, TCPHeader, int]] = []
        self.loss_filter: Optional[Callable[[TCPHeader, Payload], bool]] = None
        self.auto_consume = True   # read delivered data right away (window reopens)
        self._drain_scheduled = False

    # -- ctx protocol ------------------------------------------------------

    def output_ready(self, conn) -> None:
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.sim.call_later(0.0, self._drain)

    def deliver(self, conn, payload, psh) -> None:
        self.delivered.append((payload, psh))
        if self.auto_consume and not conn._credit_mode:
            conn.app_consumed(payload.length)

    def on_established(self, conn) -> None:
        self.established = True
        self.events.append("established")

    def on_remote_fin(self, conn) -> None:
        self.remote_fin = True
        self.events.append("remote_fin")

    def on_closed(self, conn) -> None:
        self.closed = True
        self.events.append("closed")

    def on_reset(self, conn, exc) -> None:
        self.reset_exc = exc
        self.events.append("reset")

    def on_send_complete(self, conn, msg_id) -> None:
        self.completions.append(msg_id)

    def on_send_buffer_space(self, conn) -> None:
        self.buffer_space_signals += 1

    # -- pipe -------------------------------------------------------------

    def _drain(self) -> None:
        self._drain_scheduled = False
        while True:
            desc = self.conn.next_descriptor()
            if desc is None:
                return
            built = self.conn.build_segment(desc)
            if built is None:
                continue
            hdr, payload = built
            self.sent.append((self.sim.now, hdr, payload.length))
            if self.loss_filter is not None and self.loss_filter(hdr, payload):
                continue
            self.sim.call_later(self.delay, self.peer._rx, hdr, payload)

    def _rx(self, hdr: TCPHeader, payload: Payload) -> None:
        self.received.append((self.sim.now, hdr, payload.length))
        from repro.net.tcp.tcb import TcpState
        if (self.conn.state is TcpState.CLOSED and hdr.flags & SYN
                and not hdr.flags & ACK):
            self.conn.passive_open(hdr)
        else:
            self.conn.handle_segment(hdr, payload)

    @property
    def delivered_bytes(self) -> bytes:
        return b"".join(p.to_bytes() for p, _ in self.delivered)


def make_pair(sim: Simulator, client_cfg: Optional[TcpConfig] = None,
              server_cfg: Optional[TcpConfig] = None, delay: float = 5.0,
              ) -> Tuple[PipeCtx, PipeCtx]:
    """Create client/server contexts with connections ready to run."""
    client_cfg = client_cfg or TcpConfig()
    server_cfg = server_cfg or TcpConfig()
    a_ep = Endpoint(IPv6Address.from_index(1), 4000)
    b_ep = Endpoint(IPv6Address.from_index(2), 5000)
    cctx = PipeCtx(sim, "client", delay)
    sctx = PipeCtx(sim, "server", delay)
    cctx.peer, sctx.peer = sctx, cctx
    cctx.conn = TcpConnection(sim, cctx, FourTuple(a_ep, b_ep), client_cfg, iss=1000)
    sctx.conn = TcpConnection(sim, sctx, FourTuple(b_ep, a_ep), server_cfg,
                              iss=900_000)
    return cctx, sctx


def establish(sim: Simulator, cctx: PipeCtx, sctx: PipeCtx) -> None:
    cctx.conn.connect()
    sim.run(until=sim.now + 1_000)
    assert cctx.established and sctx.established, "handshake failed"
