"""TCP connection demultiplexing and passive listeners.

The paper (§3): "The server application instructs the interface to
monitor a TCP port for incoming connections ... that mates the
connection to an idle QP in the server application."  The listener's
``accept_queue`` is exactly that mating point; for the host stack it
backs ``accept()``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ...errors import SocketError
from ...sim import Simulator, Store
from ..addresses import Endpoint, FourTuple, IPAddress
from ..headers.transport import ACK, RST, SYN, TCPHeader
from ..packet import Payload
from .connection import TcpConnection
from .seqspace import seq_add
from .tcb import TcpConfig, TcpState, TcpStats


class TcpListener:
    """A passive open on (addr, port): spawns a connection per SYN."""

    def __init__(self, module: "TcpModule", local: Endpoint, backlog: int,
                 config: TcpConfig, ctx_factory: Callable[[], object]):
        self.module = module
        self.local = local
        self.backlog = backlog
        self.config = config
        self.ctx_factory = ctx_factory
        self.accept_queue: Store = Store(module.sim, name=f"accept:{local.port}")
        self.pending: Dict[FourTuple, TcpConnection] = {}
        self.closed = False
        self.syn_drops = 0

    def accept(self):
        """Event yielding the next ESTABLISHED connection."""
        return self.accept_queue.get()

    def on_syn(self, hdr: TCPHeader, src: Endpoint) -> Optional[TcpConnection]:
        if self.closed:
            return None
        if len(self.pending) + len(self.accept_queue) >= self.backlog:
            self.syn_drops += 1
            return None                      # silently drop; client retries
        four = FourTuple(self.local, src)
        ctx = self.ctx_factory()
        conn = self.module._create(four, self.config, ctx)
        on_created = getattr(ctx, "on_conn_created", None)
        if on_created is not None:
            on_created(conn)
        self.pending[four] = conn
        inner_established = ctx.on_established
        inner_closed = ctx.on_closed
        inner_reset = ctx.on_reset

        # A half-open connection must release its backlog slot however it
        # dies (handshake RST, SYN|ACK retry exhaustion); otherwise leaked
        # ``pending`` entries eventually eat the whole backlog and the
        # listener silently drops every later SYN.
        def on_established(c: TcpConnection):
            self.pending.pop(four, None)
            self.accept_queue.put(c)
            inner_established(c)

        def on_closed(c: TcpConnection):
            self.pending.pop(four, None)
            inner_closed(c)

        def on_reset(c: TcpConnection, exc):
            self.pending.pop(four, None)
            inner_reset(c, exc)

        ctx.on_established = on_established
        ctx.on_closed = on_closed
        ctx.on_reset = on_reset
        conn.passive_open(hdr)
        return conn

    def close(self) -> None:
        self.closed = True
        self.module._listeners.pop((self.local.addr, self.local.port), None)
        self.module._listeners.pop((None, self.local.port), None)


class TcpModule:
    """Per-stack TCP: connection table, listeners, ISN generation, RSTs."""

    def __init__(self, sim: Simulator, isn_seed: int = 0):
        self.sim = sim
        self.connections: Dict[FourTuple, TcpConnection] = {}
        #: The counters of every connection this module ever opened or
        #: accepted, closed ones included (``netstat -s`` sums these).
        self.conn_stats: List[TcpStats] = []
        self._listeners: Dict[Tuple[Optional[IPAddress], int], TcpListener] = {}
        self._isn = itertools.count(isn_seed * 64_000 + 1)
        self._ephemeral = itertools.count(32768)
        self.rst_sent = 0
        # The surrounding stack wires this to its transmit path so the module
        # can emit RSTs for segments with no home.
        self.send_rst: Optional[Callable[[Endpoint, Endpoint, TCPHeader], None]] = None

    # -- port & connection management -----------------------------------------

    def ephemeral_port(self) -> int:
        return next(self._ephemeral)

    def next_isn(self) -> int:
        return (next(self._isn) * 68_921) & 0xFFFFFFFF

    def _create(self, four: FourTuple, config: TcpConfig, ctx) -> TcpConnection:
        if four in self.connections:
            raise SocketError(f"connection {four} already exists")
        conn = TcpConnection(self.sim, ctx, four, config, self.next_isn())
        self.connections[four] = conn
        self.conn_stats.append(conn.stats)
        inner_closed = ctx.on_closed
        inner_reset = ctx.on_reset

        def on_closed(c: TcpConnection):
            self.connections.pop(four, None)
            inner_closed(c)

        def on_reset(c: TcpConnection, exc):
            # Aborts skip on_closed, so the table entry must go here.
            self.connections.pop(four, None)
            inner_reset(c, exc)

        ctx.on_closed = on_closed
        ctx.on_reset = on_reset
        return conn

    def connect(self, local: Endpoint, remote: Endpoint, config: TcpConfig,
                ctx) -> TcpConnection:
        conn = self._create(FourTuple(local, remote), config, ctx)
        conn.connect()
        return conn

    def listen(self, local: Endpoint, config: TcpConfig, ctx_factory,
               backlog: int = 8) -> TcpListener:
        key = (local.addr, local.port)
        if key in self._listeners:
            raise SocketError(f"port {local.port} already has a listener")
        listener = TcpListener(self, local, backlog, config, ctx_factory)
        self._listeners[key] = listener
        return listener

    def lookup_listener(self, dst: Endpoint) -> Optional[TcpListener]:
        return (self._listeners.get((dst.addr, dst.port))
                or self._listeners.get((None, dst.port)))

    # -- input ----------------------------------------------------------------

    def input(self, src: Endpoint, dst: Endpoint, hdr: TCPHeader,
              payload: Payload, ce: bool = False) -> Optional[TcpConnection]:
        """Dispatch one segment; returns the connection that consumed it."""
        four = FourTuple(dst, src)
        conn = self.connections.get(four)
        if conn is not None and conn.state is not TcpState.CLOSED:
            conn.handle_segment(hdr, payload, ce=ce)
            return conn
        if hdr.flags & SYN and not hdr.flags & ACK:
            listener = self.lookup_listener(dst)
            if listener is not None:
                return listener.on_syn(hdr, src)
        self._reply_rst(src, dst, hdr, payload)
        return None

    def _reply_rst(self, src: Endpoint, dst: Endpoint, hdr: TCPHeader,
                   payload: Payload) -> None:
        if hdr.flags & RST or self.send_rst is None:
            return
        seg_len = payload.length + (1 if hdr.flags & SYN else 0)
        if hdr.flags & ACK:
            rst = TCPHeader(dst.port, src.port, seq=hdr.ack, flags=RST)
        else:
            rst = TCPHeader(dst.port, src.port, seq=0,
                            ack=seq_add(hdr.seq, seg_len), flags=RST | ACK)
        self.rst_sent += 1
        self.send_rst(dst, src, rst)
