"""The QPIP network-interface firmware: four FSMs on one RISC core.

Paper §3.1 / Figure 1: the doorbell FSM watches the notification FIFO,
the management FSM executes privileged driver commands, and the
transmit (scheduler) and receive FSMs form the communication core,
running the full TCP/UDP/IPv6 stack *inside the interface*.  Every stage
charges occupancy on the NIC processor using the Table 2/3 cost model,
so interface saturation (the 1500-byte-MTU shortfall of Figure 4) falls
out naturally.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Deque, Dict, List, Optional, Tuple

from .. import obs
from ..errors import (ConnectionReset, DmaError, QPStateError,
                      ResourceExhausted, VerbsError)
from ..hw.lanai import ProgrammableNic
from ..hw.stages import (DOORBELL, DOORBELL_RESCAN, GET_DATA,
                         MEDIA_SEND_DRAIN, MGMT, RDMA_READ_REQ, RECV_PLACE,
                         RX_CHECKSUM, RX_PARSE_ACK, RX_PARSE_DATA,
                         RX_PARSE_UDP, RX_UPDATE_ACK, RX_UPDATE_EXTRA,
                         SCHEDULE, TX_BUILD_TCP, TX_BUILD_UDP, TX_DONE,
                         timed)
from ..mem import Access, TranslationTable
from ..net import InetStack
from ..net.addresses import Endpoint, IPv6Address, MacAddress
from ..net.headers.transport import TCPHeader
from ..net.packet import (EMPTY as EMPTY_PAYLOAD, BytesPayload,
                          Packet, Payload, ZeroPayload)
from ..net.tcp import TcpConfig, TcpConnection, classify
from ..sim import Event, Simulator
from .rdma import RDMA_HDR_LEN, RdmaHeader, RdmaOpcode, frame, unframe
from .cq import CQE_BYTES
from .qp import QPState, QPTransport, QueuePair
from .wr import Completion, WorkRequest, WROpcode, WRStatus


def default_qpip_tcp_config(mtu: int) -> TcpConfig:
    """The prototype's on-NIC TCP: message-per-segment, RFC 1323 on,
    no out-of-order reassembly."""
    return TcpConfig(
        mss=mtu - 40 - 20,            # IPv6 + TCP base header
        message_mode=True,
        use_timestamps=True,
        use_window_scaling=True,
        nodelay=True,
        reassembly=False,
        max_window=1 << 20,
        min_rto=5_000.0,              # SAN-scale retransmission floor
        delack_segments=2,
        delack_timeout=500.0,         # µs-scale ACKs: WRs complete on ACK (§3)
        msl=100_000.0)


@dataclass
class MgmtCommand:
    """A privileged command from the kernel driver (management FSM input)."""

    kind: str
    args: tuple
    done: Event


@lru_cache(maxsize=None)
def _fixed_spans(timing) -> tuple:
    """The FSMs' fixed-cost stages and spans priced against ``timing``,
    in the order :class:`QpipFirmware` unpacks them.  Every NIC with an
    equal (frozen) ``LanaiTiming`` shares the one set."""
    t = timing

    def span(*rows):        # ProgrammableNic.span, for this timing
        return ((timed(t, *rows), None),)

    return (timed(t, DOORBELL), span(DOORBELL_RESCAN), span(MGMT),
            span(SCHEDULE), *[span(row) for row in RECV_PLACE], span(GET_DATA),
            span(RX_UPDATE_ACK), span(RX_UPDATE_EXTRA), span(RDMA_READ_REQ),
            timed(t, *RX_PARSE_DATA), timed(t, *RX_PARSE_ACK),
            timed(t, *RX_PARSE_UDP), timed(t, *TX_BUILD_TCP),
            timed(t, *TX_BUILD_UDP), timed(t, *TX_DONE))


# Sentinel: the command's `done` event fires later (connect/accept).
DEFERRED = object()

# Extension: RDMA traffic bypasses receive WRs, so rdma-enabled QPs get a
# standing window allowance on top of their posted receive credit.
RDMA_WINDOW_CREDIT = 256 * 1024


class FwEndpoint:
    """Firmware-side state for one connection (maybe bound to a QP)."""

    def __init__(self, fw: "QpipFirmware", qp: Optional[QueuePair]):
        self.fw = fw
        self.qp = qp
        self.conn: Optional[TcpConnection] = None
        self.queued = False              # in the transmit ring
        self.msg_map: Dict[int, WorkRequest] = {}
        self._msg_ids = itertools.count()
        self.established_event: Optional[Event] = None
        self.listener: Optional["QpipListener"] = None
        self.coll_unit = None            # set on collective-ring endpoints
        self.udp_endpoint = None
        self.close_pending = False     # disconnect waits for queued sends
        # RDMA extension state.
        self.outstanding_reads: Dict[int, list] = {}   # sink_addr -> [wr, left]
        self.read_responses: Deque[RdmaHeader] = deque()

    def on_conn_created(self, conn) -> None:
        """Listener path: adopt the connection; window = posted WR credit
        (zero until a QP is mated, which is exactly QPIP's semantics).
        Collective-ring endpoints consume in SRAM instead, so they open
        a standing window immediately."""
        self.conn = conn
        conn.enable_credit_window(
            RDMA_WINDOW_CREDIT if self.coll_unit is not None else 0)

    # --- TcpConnection context protocol (synchronous; we only queue work) --

    def output_ready(self, conn) -> None:
        self.fw._queue_tx(self)

    def deliver(self, conn, payload, psh) -> None:
        self.fw._push_action(("deliver", self, payload))

    def on_established(self, conn) -> None:
        self.fw._push_action(("established", self))

    def on_remote_fin(self, conn) -> None:
        self.fw._push_action(("remote_fin", self))

    def on_closed(self, conn) -> None:
        self.fw._push_action(("closed", self, None))

    def on_reset(self, conn, exc) -> None:
        self.fw._push_action(("closed", self, exc))

    def on_send_complete(self, conn, msg_id) -> None:
        wr = self.msg_map.pop(msg_id, None)
        self.fw._actions.append(("send_done", self, wr))

    def on_send_buffer_space(self, conn) -> None:
        pass    # message mode: completions carry this information


class QpipListener:
    """Firmware-side passive open: mates connections to idle QPs (§3)."""

    def __init__(self, fw: "QpipFirmware", listener_id: int, port: int):
        self.fw = fw
        self.listener_id = listener_id
        self.port = port
        self.idle_qps: Deque[Tuple[QueuePair, Event]] = deque()
        self.unbound: Deque[FwEndpoint] = deque()
        self.tcp_listener = None

    def offer_qp(self, qp: QueuePair, done: Event) -> None:
        if self.unbound:
            ep = self.unbound.popleft()
            self.fw._bind_endpoint(ep, qp, done)
        else:
            self.idle_qps.append((qp, done))

    def mate(self, ep: FwEndpoint) -> None:
        if self.idle_qps:
            qp, done = self.idle_qps.popleft()
            self.fw._bind_endpoint(ep, qp, done)
        else:
            self.unbound.append(ep)


class QpipFirmware:
    """The firmware program: owns the NIC-resident stack and all QP state."""

    def __init__(self, nic: ProgrammableNic, addr: IPv6Address,
                 tcp_config: Optional[TcpConfig] = None, isn_seed: int = 0):
        self.sim: Simulator = nic.sim
        self.nic = nic
        self.addr = addr
        self.tcp_config = tcp_config or default_qpip_tcp_config(nic.mtu)
        self.stack = InetStack(self.sim, name=f"{nic.name}.stack",
                               isn_seed=isn_seed)
        self.stack.ip.add_local(addr)
        self.translation = TranslationTable(name=f"{nic.name}.tpt")
        self.endpoints: Dict[int, FwEndpoint] = {}       # qp_num -> endpoint
        self.listeners: Dict[int, QpipListener] = {}
        self.collectives: Dict[int, object] = {}         # group -> CollectiveUnit
        self._listener_ids = itertools.count(1)
        self._tx_ring: Deque[FwEndpoint] = deque()
        self._actions: List[tuple] = []
        self._idle: Optional[Event] = None
        self._rx_turn = True
        self._current_done = None
        self.udp_drops_no_wr = 0
        # Finite interface resources (None = unlimited).  When exhausted,
        # mgmt commands fail with ResourceExhausted — an error reply to
        # the driver, never a firmware crash.
        self.max_qps: Optional[int] = None
        self.max_regions: Optional[int] = None
        self.mgmt_rejections = 0
        self.dma_wr_errors = 0
        self.watchdog_aborts = 0
        self.qp_error_transitions = 0
        # The FSMs' fixed-cost spans, priced from the stage table once
        # per timing.
        (self._doorbell_stages, self._rescan_span, self._mgmt_span,
         self._schedule_span, self._get_wr_span, self._put_data_span,
         self._rx_update_span, self._get_data_span, self._ack_update_span,
         self._extra_update_span, self._read_req_span, self._parse_data,
         self._parse_ack, self._parse_udp, self._build_tcp, self._build_udp,
         self._tx_done) = _fixed_spans(nic.timing)
        nic.wake = self._wake
        self._iface = _FwIface(nic)
        self.sim.process(self._main_loop())

    # -- wiring ------------------------------------------------------------

    def add_route(self, dst, source_route: Optional[List[int]] = None,
                  next_mac: Optional[MacAddress] = None) -> None:
        from ..net import RouteEntry
        self.stack.ip.add_route(dst, RouteEntry(
            iface=self._iface, next_mac=next_mac,
            source_route=source_route or []))

    # -- main dispatch loop -----------------------------------------------------

    def _wake(self) -> None:
        if self._idle is not None and not self._idle.triggered:
            self._idle.succeed()
            self._idle = None

    def _push_action(self, action: tuple) -> None:
        """Queue a connection event and make sure the loop services it.

        Not every action is born inside packet processing: RTO give-up
        and keepalive failures arrive from timers, aborts can arrive
        from the driver.  Those must still reach :meth:`_drain_actions`
        (QP flush, error CQEs) even if no further packet ever arrives.
        """
        self._actions.append(action)
        self._wake()

    def _main_loop(self):
        nic = self.nic
        fifo = nic.doorbell_fifo
        while True:
            if fifo:
                # The whole FIFO drains as one walk of one-stage spans:
                # each token is processed at the instant its own doorbell
                # stage completes, the last one as the loop resumes.
                # Doorbells rung meanwhile queue behind the walk.
                *tokens, last = fifo
                fifo.clear()
                spans = [(self._doorbell_stages, partial(self._doorbell, tok))
                         for tok in tokens]
                spans.append((self._doorbell_stages, None))
                yield nic.run(spans)
                self._doorbell(last)
            elif nic.doorbell_overflow:
                # The doorbell FIFO overflowed and posted writes were
                # lost.  Clear the sticky bit and rescan every QP: any
                # send queue with work gets scheduled, any receive queue
                # refreshes its credit — no WR is left behind.
                nic.doorbell_overflow = False
                yield nic.run(self._rescan_span)
                self._doorbell_rescan()
            elif nic.mgmt_queue:
                cmd = nic.mgmt_queue.popleft()
                yield nic.run(self._mgmt_span)
                self._mgmt(cmd)
            elif nic.rx_queue and (self._rx_turn or not self._tx_ring):
                self._rx_turn = False
                yield from self._receive_one()
            elif self._tx_ring:
                self._rx_turn = True
                yield from self._transmit_one()
            elif self._actions:
                # Timer/driver-originated events (RTO give-up, abort)
                # queued outside packet processing.
                yield from self._drain_actions()
            else:
                self._idle = Event(self.sim)
                yield self._idle

    # -- doorbell FSM -----------------------------------------------------------

    def _doorbell(self, token: Tuple[int, str]) -> None:
        qp_num, which = token
        if which == "coll":
            # Collective doorbell: the token names a group, not a QP.
            unit = self.collectives.get(qp_num)
            if unit is not None:
                self._push_action(("coll_start", unit))
            return
        ep = self.endpoints.get(qp_num)
        if ep is None:
            return
        if which == "send":
            self._queue_tx(ep)
        elif which == "recv" and ep.conn is not None and ep.qp is not None:
            ep.conn.set_receive_credit(self._qp_credit(ep.qp))
        self._drain_actions_sync()

    def _doorbell_rescan(self) -> None:
        """Recover from doorbell-FIFO overflow: treat every QP as if its
        doorbell had rung (the driver's overflow ISR does the same)."""
        for ep in list(self.endpoints.values()):
            if ep.qp is None:
                continue
            if ep.qp.send_queue:
                self._queue_tx(ep)
            if ep.conn is not None:
                ep.conn.set_receive_credit(self._qp_credit(ep.qp))
        self._drain_actions_sync()

    def _qp_credit(self, qp: QueuePair) -> int:
        credit = qp.posted_recv_bytes
        if qp.rdma:
            credit += RDMA_WINDOW_CREDIT
        return credit

    def _queue_tx(self, ep: FwEndpoint) -> None:
        if not ep.queued:
            ep.queued = True
            self._tx_ring.append(ep)
            self._wake()

    # -- management FSM -----------------------------------------------------------

    def _mgmt(self, cmd: MgmtCommand) -> None:
        handler = getattr(self, f"_mgmt_{cmd.kind}", None)
        if handler is None:
            cmd.done.fail(VerbsError(f"unknown mgmt command {cmd.kind}"))
            return
        self._current_done = cmd.done
        try:
            result = handler(*cmd.args)
        except Exception as exc:      # surfaced to the driver
            cmd.done.fail(exc)
            return
        finally:
            self._current_done = None
        if result is not DEFERRED and not cmd.done.triggered:
            cmd.done.succeed(result)
        self._drain_actions_sync()

    def _mgmt_create_qp(self, qp: QueuePair) -> QueuePair:
        if qp.qp_num in self.endpoints:
            raise VerbsError(f"QP{qp.qp_num} already exists")
        if self.max_qps is not None and len(self.endpoints) >= self.max_qps:
            self.mgmt_rejections += 1
            raise ResourceExhausted(
                f"{self.nic.name}: out of QP slots ({self.max_qps})")
        self.endpoints[qp.qp_num] = FwEndpoint(self, qp)
        return qp

    def _mgmt_destroy_qp(self, qp: QueuePair) -> None:
        ep = self.endpoints.pop(qp.qp_num, None)
        if ep is not None and ep.conn is not None:
            ep.conn.abort()
        if ep is not None:
            self._flush_endpoint(ep, WRStatus.FLUSHED)
        else:
            self._flush_qp(qp, WRStatus.FLUSHED)
        qp.state = QPState.DISCONNECTED

    def _mgmt_register(self, aspace, addr, length, access) -> object:
        if (self.max_regions is not None
                and len(self.translation) >= self.max_regions):
            self.mgmt_rejections += 1
            raise ResourceExhausted(
                f"{self.nic.name}: out of translation entries "
                f"({self.max_regions})")
        return self.translation.register(aspace, addr, length, access)

    def _mgmt_deregister(self, lkey) -> None:
        self.translation.deregister(lkey)

    def _mgmt_connect(self, qp: QueuePair, remote: Endpoint,
                      local_port: Optional[int]):
        done = self._current_done
        ep = self._endpoint_of(qp)
        if ep.conn is not None:
            raise QPStateError(f"QP{qp.qp_num} already connected")
        port = local_port or self.stack.tcp.ephemeral_port()
        local = Endpoint(self.addr, port)
        qp.local_port = port
        qp.remote = remote
        qp.state = QPState.CONNECTING
        ep.established_event = done
        ep.conn = self.stack.tcp.connect(local, remote, self._conn_config(), ep)
        ep.conn.enable_credit_window(self._qp_credit(qp))
        return DEFERRED

    def _mgmt_listen(self, port: int) -> int:
        listener_id = next(self._listener_ids)
        qlistener = QpipListener(self, listener_id, port)

        def ctx_factory():
            ep = FwEndpoint(self, qp=None)
            ep.listener = qlistener
            return ep

        qlistener.tcp_listener = self.stack.tcp.listen(
            Endpoint(self.addr, port), self._conn_config(), ctx_factory)
        self.listeners[listener_id] = qlistener
        return listener_id

    def _mgmt_accept(self, listener_id: int, qp: QueuePair):
        done = self._current_done
        listener = self.listeners.get(listener_id)
        if listener is None:
            raise VerbsError(f"no listener {listener_id}")
        self._endpoint_of(qp)     # must exist
        listener.offer_qp(qp, done)
        return DEFERRED           # `done` fires when a connection is mated

    def _mgmt_coll_create(self, config):
        """Install a firmware-resident collective group (repro.collectives).

        The unit owns its ring connections; the command's ``done`` event
        fires once both neighbor links are established.
        """
        from ..collectives.nicoffload import CollectiveUnit
        if config.group in self.collectives:
            raise VerbsError(f"collective group {config.group} already exists")
        self.collectives[config.group] = CollectiveUnit(
            self, config, self._current_done)
        return DEFERRED

    def _mgmt_bind_udp(self, qp: QueuePair, port: Optional[int]) -> int:
        ep = self._endpoint_of(qp)
        udp_ep = self.stack.udp.bind(port)
        udp_ep.on_datagram = lambda dg, _ep=ep: self._actions.append(
            ("udp_deliver", _ep, dg))
        ep.udp_endpoint = udp_ep
        qp.local_port = udp_ep.port
        qp.state = QPState.BOUND
        self._drain_actions_sync()
        return udp_ep.port

    def _mgmt_disconnect(self, qp: QueuePair) -> None:
        ep = self._endpoint_of(qp)
        if ep.conn is None:
            return
        if qp.send_queue or ep.read_responses:
            # Posted work drains first; the FIN follows the data (the
            # same ordering close() gives queued stream data).
            ep.close_pending = True
            self._queue_tx(ep)
        else:
            ep.conn.close()

    def abort_qp(self, qp: QueuePair, reason: Optional[Exception] = None) -> None:
        """Driver- or watchdog-initiated teardown of a QP's connection.

        Callable from bare timer callbacks (no packet in flight): the
        teardown rides the firmware action queue, which wakes the main
        loop, so the ERROR transition and full WR flush happen even on a
        perfectly idle wire.  A half-open connection — the peer died
        mid-transfer and will never send another segment — is exactly
        the case this exists for.
        """
        ep = self.endpoints.get(qp.qp_num)
        if ep is None or qp.state in (QPState.ERROR, QPState.DISCONNECTED):
            return
        self.watchdog_aborts += 1
        exc = reason or ConnectionReset(
            f"QP{qp.qp_num}: local abort (watchdog/driver)")
        if ep.conn is not None:
            # abort(exc) emits the RST and fires on_reset, which pushes a
            # "closed" action and wakes the dispatch loop (_push_action).
            ep.conn.abort(exc)
        else:
            self._push_action(("closed", ep, exc))

    def _endpoint_of(self, qp: QueuePair) -> FwEndpoint:
        ep = self.endpoints.get(qp.qp_num)
        if ep is None:
            raise VerbsError(f"QP{qp.qp_num} unknown to the interface")
        return ep

    def _conn_config(self) -> TcpConfig:
        return self.tcp_config

    def _bind_endpoint(self, ep: FwEndpoint, qp: QueuePair, done: Event) -> None:
        ep.qp = qp
        self.endpoints[qp.qp_num] = ep
        qp.state = QPState.CONNECTED
        qp.remote = ep.conn.tuple.remote
        qp.local_port = ep.conn.tuple.local.port
        # Opening the credit window here emits the window update that lets
        # the peer start sending (its SYN saw zero posted buffers).
        if ep.conn._credit_mode:
            ep.conn.set_receive_credit(self._qp_credit(qp))
        else:
            ep.conn.enable_credit_window(self._qp_credit(qp))
        self._notify_host(done, qp)

    # -- receive FSM --------------------------------------------------------------

    def _receive_one(self):
        # The parse stages run back-to-back with nothing observable in
        # between, so they occupy the core as one merged span (same
        # start/finish times, one kernel event instead of three or four).
        pkt = self.nic.rx_queue.popleft()
        tcp_hdr = pkt.find(TCPHeader)
        if tcp_hdr is None:
            parse = self._parse_udp
        elif classify(tcp_hdr, pkt.payload.length) == "ack":
            parse = self._parse_ack
        else:
            parse = self._parse_data
        per_byte = self.nic.timing.rx_checksum_per_byte
        if per_byte is not None:
            covered = pkt.payload.length + 20    # transport header + payload
            parse = ((parse[0], RX_CHECKSUM.sized(per_byte * covered))
                     + parse[1:])
        yield self.nic.run(((parse, None),))
        self.stack.packet_in(pkt)
        yield from self._drain_actions()

    def _drain_actions(self):
        actions, self._actions = list(self._actions), []
        first_ack_update = True
        for action in actions:
            kind = action[0]
            if kind == "deliver":
                _k, ep, payload = action
                if ep.coll_unit is not None:
                    yield from ep.coll_unit.on_deliver(ep, payload)
                elif ep.qp is not None and ep.qp.rdma:
                    yield from self._deliver_rdma(ep, payload)
                else:
                    yield from self._place(ep, payload)
            elif kind == "udp_deliver":
                _k, ep, datagram = action
                yield from self._place(ep, datagram.payload, datagram.src)
            elif kind == "send_done":
                _k, ep, wr = action
                yield self.nic.run(self._ack_update_span if first_ack_update
                                   else self._extra_update_span)
                first_ack_update = False
                if wr is not None and ep.qp is not None:
                    ep.qp.sends_completed += 1
                    self._post_cqe(ep.qp.send_cq, Completion(
                        wr.wr_id, ep.qp.qp_num, wr.opcode,
                        byte_len=wr.length))
            elif kind == "coll_start":
                yield from action[1].start_next()
            elif kind == "established":
                self._on_established(action[1])
            elif kind == "remote_fin":
                self._on_remote_fin(action[1])
            elif kind == "closed":
                self._on_closed(action[1], action[2])

    def _drain_actions_sync(self) -> None:
        """Drain control-path actions that need no timed stages."""
        actions, self._actions = list(self._actions), []
        for action in actions:
            if action[0] == "established":
                self._on_established(action[1])
            elif action[0] == "closed":
                self._on_closed(action[1], action[2])
            else:
                # Data actions can appear here only via pathological reentry.
                self._actions.append(action)

    def _place(self, ep: FwEndpoint, payload: Payload, src=None):
        """Receive placement into the head posted WR: TCP data, an RDMA
        SEND's body, or (with the datagram's ``src``) a UDP datagram.

        Only admission differs.  UDP is best effort: with no WR, or one
        too small, the datagram is dropped before any stage runs.  A
        stream overran its credit instead, which fails the endpoint (no
        WR at once, a short WR after Get WR), and a placed stream WR
        refreshes the credit window.
        """
        qp = ep.qp
        if src is not None:
            if (qp is None or not qp.recv_queue
                    or payload.length > qp.recv_queue[0].length):
                self.udp_drops_no_wr += 1
                return
        elif qp is None or not qp.recv_queue:
            # Credit flow control should make this impossible; treat as fatal.
            self._fail_endpoint(ep, WRStatus.REMOTE_ABORTED)
            return
        yield self.nic.run(self._get_wr_span)
        wr = qp.take_recv()
        qp.wr_dequeued("recv")
        rec = obs.RECORDER
        if rec is not None:
            rec.event("fw", "fw.deliver", track=f"{self.nic.attachment.name}.fw",
                      qp=qp.qp_num, wr_id=wr.wr_id, bytes=payload.length)
            rec.metrics.counter("fw.recv_delivered").add()
        if payload.length > wr.length:
            qp.untake_recv(wr)
            self._fail_endpoint(ep, WRStatus.LOCAL_LENGTH_ERROR)
            return
        yield self.nic.run(self._put_data_span)
        try:
            dma = self.nic.dma_to_host(payload.length)
        except DmaError:
            self._dma_wr_error(ep, wr)
            return
        if not self.nic.timing.overlap_dma:
            yield dma
        self._write_wr_data(wr, payload)
        yield self.nic.run(self._rx_update_span)
        qp.recvs_completed += 1
        self._post_cqe(qp.recv_cq, Completion(
            wr.wr_id, qp.qp_num, WROpcode.RECV, byte_len=payload.length,
            src=src))
        if src is None:
            ep.conn.set_receive_credit(self._qp_credit(qp))

    def _write_wr_data(self, wr: WorkRequest, payload: Payload) -> None:
        """Direct data placement into the registered receive buffers."""
        if isinstance(payload, ZeroPayload):
            return    # implicit zeros: nothing observable to place
        data = payload.to_bytes()
        offset = 0
        for sge in wr.sges:
            if offset >= len(data):
                break
            chunk = data[offset:offset + sge.length]
            region = self.translation.check(sge.lkey, sge.addr, len(chunk),
                                            Access.LOCAL_WRITE)
            region.aspace.write(sge.addr, chunk)
            offset += len(chunk)

    # -- transmit (scheduler) FSM -----------------------------------------------

    def _transmit_one(self):
        ep = self._tx_ring.popleft()
        ep.queued = False
        yield self.nic.run(self._schedule_span)
        if ep.read_responses and self._can_fetch(ep):
            yield from self._emit_read_response(ep)
        elif ep.qp is not None and ep.qp.send_queue and self._can_fetch(ep):
            yield from self._fetch_send_wr(ep)
        elif ep.coll_unit is not None and self._coll_can_fetch(ep):
            yield from ep.coll_unit.fetch_next(ep)
        if ep.conn is not None:
            yield from self._emit_one_segment(ep)
        if ep.close_pending and ep.qp is not None and not ep.qp.send_queue \
                and not ep.read_responses and ep.conn is not None:
            ep.close_pending = False
            ep.conn.close()
        if (ep.conn is not None and ep.conn.has_output()) or ep.read_responses \
                or (ep.qp is not None and ep.qp.send_queue and self._can_fetch(ep)) \
                or (ep.coll_unit is not None and self._coll_can_fetch(ep)):
            self._queue_tx(ep)

    def _coll_can_fetch(self, ep: FwEndpoint) -> bool:
        return (ep.conn is not None and ep.coll_unit.has_pending(ep)
                and len(ep.conn._unsent) < 4)     # bounded SRAM staging

    def _can_fetch(self, ep: FwEndpoint) -> bool:
        if ep.qp.transport is QPTransport.UDP:
            return True
        return (ep.conn is not None
                and len(ep.conn._unsent) < 4)     # bounded SRAM staging

    def _fetch_send_wr(self, ep: FwEndpoint):
        t = self.nic.timing
        qp = ep.qp
        yield self.nic.run(self._get_wr_span)
        if not qp.send_queue:
            return
        wr = qp.send_queue.popleft()
        qp.wr_dequeued("send")
        rec = obs.RECORDER
        if rec is not None:
            rec.event("fw", "fw.fetch_wr", track=f"{self.nic.attachment.name}.fw",
                      qp=qp.qp_num, wr_id=wr.wr_id, bytes=wr.length)
            rec.metrics.counter("fw.send_fetched").add()
        try:
            payload = self._read_wr_data(wr)
        except Exception:
            self._local_wr_error(ep, wr, WRStatus.LOCAL_PROTECTION_ERROR)
            return
        yield self.nic.run(self._get_data_span)
        try:
            dma = self.nic.dma_from_host(payload.length)
        except DmaError:
            self._local_wr_error(ep, wr, WRStatus.LOCAL_DMA_ERROR)
            return
        if not t.overlap_dma:
            yield dma
        if qp.transport is QPTransport.UDP:
            yield from self._send_udp(ep, wr, payload)
        elif qp.rdma:
            self._send_rdma(ep, wr, payload)
        elif not payload.length:
            # A zero-length message takes no sequence space, so no ACK
            # can cover it and no retransmission can repair it.
            self._local_wr_error(ep, wr, WRStatus.LOCAL_LENGTH_ERROR)
        else:
            msg_id = next(ep._msg_ids)
            try:
                ep.conn.send_message(payload, msg_id=msg_id)
            except ConnectionReset:
                # The connection died between the doorbell and this fetch
                # (peer RST, RTO give-up): fail the WR like a remote abort.
                self._local_wr_error(ep, wr, WRStatus.REMOTE_ABORTED)
                return
            ep.msg_map[msg_id] = wr

    def _read_wr_data(self, wr: WorkRequest) -> Payload:
        parts: List[Payload] = []
        all_zero = True
        for sge in wr.sges:
            region = self.translation.check(sge.lkey, sge.addr, sge.length,
                                            Access.LOCAL_READ)
            if region.aspace.is_all_zero(sge.addr, sge.length):
                parts.append(ZeroPayload(sge.length))
            else:
                parts.append(BytesPayload(region.aspace.read(sge.addr, sge.length)))
                all_zero = False
        if all_zero:
            return ZeroPayload(sum(p.length for p in parts))
        from ..net.packet import concat
        return concat(parts)

    def _send_udp(self, ep: FwEndpoint, wr: WorkRequest, payload: Payload):
        from ..net.headers.transport import UDPHeader
        hdr = UDPHeader(ep.qp.local_port or 0, wr.dest.port,
                        length=8 + payload.length)
        pkt = self.stack.ip.build(self.addr, wr.dest.addr, hdr, payload)
        yield self.nic.run(self._emit(
            self._build_udp, pkt, not self.nic.timing.overlap_dma))
        # UDP send WRs complete as soon as the datagram is on the wire (§3).
        ep.qp.sends_completed += 1
        self._post_cqe(ep.qp.send_cq, Completion(
            wr.wr_id, ep.qp.qp_num, WROpcode.SEND, byte_len=payload.length))

    def _emit_one_segment(self, ep: FwEndpoint):
        t = self.nic.timing
        conn = ep.conn
        desc = conn.next_descriptor()
        if desc is None:
            return
        if desc.kind == "data" and desc.retransmit and ep.coll_unit is None:
            # Retransmission: the data must be fetched from host memory
            # again.  Collective frames originate in NIC SRAM (the unit's
            # accumulator), so they skip the host refetch.
            yield self.nic.run(self._get_data_span)
            try:
                dma = self.nic.dma_from_host(
                    desc.chunk.payload.length if desc.chunk else 0)
            except DmaError:
                self.dma_wr_errors += 1
                self._fail_endpoint(ep, WRStatus.LOCAL_DMA_ERROR)
                return
            if not t.overlap_dma:
                yield dma
        built = conn.build_segment(desc)
        if built is None:
            return
        hdr, payload = built
        pkt = self.stack.build_segment_packet(conn, hdr, payload)
        yield self.nic.run(self._emit(
            self._build_tcp, pkt, not t.overlap_dma and payload.length))

    def _emit(self, build, pkt: Packet, drain):
        """The spans of one packet emit, a single walk for ``nic.run``:
        the header-build span, the wire handoff at its end, then
        ``tx_update`` — behind ``media_send_drain`` when ``drain``: the
        prototype's firmware babysits the send engine until the packet
        has left SRAM, where IB-class hardware overlaps."""
        post = self._tx_done
        if drain:
            post = (MEDIA_SEND_DRAIN.sized(self.nic.wire_time(pkt)),) + post
        nic = self.nic
        return ((build, lambda: nic.wire_transmit(pkt)), (post, None))

    # -- RDMA extension (one-sided operations; see core/rdma.py) -----------

    def _rdma_chunk(self, ep: FwEndpoint) -> int:
        return ep.conn.max_message - RDMA_HDR_LEN

    def _send_rdma(self, ep: FwEndpoint, wr: WorkRequest, payload: Payload) -> None:
        """Queue a framed message stream for a SEND/WRITE/READ_REQ WR."""
        try:
            self._send_rdma_framed(ep, wr, payload)
        except ConnectionReset:
            # The connection died between the doorbell and this fetch
            # (peer RST, local abort): drop any partial framing state
            # and fail the WR like a remote abort.
            for msg_id, mapped in list(ep.msg_map.items()):
                if mapped is wr:
                    del ep.msg_map[msg_id]
            if wr.opcode is WROpcode.RDMA_READ and wr.sges:
                ep.outstanding_reads.pop(wr.sges[0].addr, None)
            self._local_wr_error(ep, wr, WRStatus.REMOTE_ABORTED)

    def _send_rdma_framed(self, ep: FwEndpoint, wr: WorkRequest,
                          payload: Payload) -> None:
        chunk = self._rdma_chunk(ep)
        if wr.opcode is WROpcode.SEND:
            if payload.length > chunk:
                self._local_wr_error(ep, wr, WRStatus.LOCAL_LENGTH_ERROR)
                return
            hdr = RdmaHeader(RdmaOpcode.SEND, length=payload.length)
            msg_id = next(ep._msg_ids)
            ep.msg_map[msg_id] = wr
            ep.conn.send_message(frame(hdr, payload), msg_id=msg_id)
            return
        if wr.opcode is WROpcode.RDMA_WRITE:
            offset = 0
            while True:
                n = min(chunk, payload.length - offset)
                hdr = RdmaHeader(RdmaOpcode.WRITE, rkey=wr.rkey,
                                 remote_addr=wr.remote_addr + offset, length=n)
                body = payload.slice(offset, n)
                offset += n
                msg_id = next(ep._msg_ids)
                if offset >= payload.length:
                    ep.msg_map[msg_id] = wr     # completion on the last chunk
                ep.conn.send_message(frame(hdr, body), msg_id=msg_id)
                if offset >= payload.length:
                    break
            return
        # RDMA_READ: a header-only request; the WR completes when the
        # response stream has been placed in the sink buffer.
        sink = wr.sges[0]
        hdr = RdmaHeader(RdmaOpcode.READ_REQ, rkey=wr.rkey,
                         remote_addr=wr.remote_addr, length=sink.length,
                         sink_key=sink.lkey, sink_addr=sink.addr)
        ep.outstanding_reads[sink.addr] = [wr, sink.length]
        ep.conn.send_message(frame(hdr, EMPTY_PAYLOAD), msg_id=next(ep._msg_ids))

    def _local_wr_error(self, ep: FwEndpoint, wr: WorkRequest,
                        status: WRStatus) -> None:
        """A WR failed locally (protection, length, DMA): complete it
        with its specific error, move the QP to ERROR, terminate the
        connection, and flush everything else still outstanding."""
        if status is WRStatus.LOCAL_DMA_ERROR:
            self.dma_wr_errors += 1
        self._mark_error(ep.qp)
        self._post_cqe(ep.qp.send_cq, Completion(
            wr.wr_id, ep.qp.qp_num, wr.opcode, status=status))
        if ep.conn is not None:
            ep.conn.abort()
        self._flush_endpoint(ep, WRStatus.FLUSHED)

    def _dma_wr_error(self, ep: FwEndpoint, wr: WorkRequest) -> None:
        """A receive-side DMA fault: the popped WR dies with a DMA error
        and the endpoint fails (data was lost after TCP ACKed it, so the
        stream cannot be resynchronized)."""
        self.dma_wr_errors += 1
        qp = ep.qp
        self._post_cqe(qp.recv_cq, Completion(
            wr.wr_id, qp.qp_num, wr.opcode, status=WRStatus.LOCAL_DMA_ERROR))
        self._fail_endpoint(ep, WRStatus.FLUSHED)

    def _deliver_rdma(self, ep: FwEndpoint, payload: Payload):
        """Receive path for framed (rdma-enabled) QPs."""
        try:
            hdr, body = unframe(payload)
        except Exception:
            self._fail_endpoint(ep, WRStatus.REMOTE_ABORTED)
            return
        # RDMA bypasses receive WRs: open the stream window back up.
        ep.conn.app_consumed(payload.length) if not ep.conn._credit_mode \
            else None
        if hdr.opcode is RdmaOpcode.SEND:
            yield from self._place(ep, body)
        elif hdr.opcode is RdmaOpcode.WRITE:
            yield from self._rdma_place(ep, hdr, body, notify=None)
        elif hdr.opcode is RdmaOpcode.READ_REQ:
            yield self.nic.run(self._read_req_span)
            ep.read_responses.append(hdr)
            self._queue_tx(ep)
        elif hdr.opcode is RdmaOpcode.READ_RESP:
            yield from self._rdma_place(ep, hdr, body, notify="read")

    def _rdma_place(self, ep: FwEndpoint, hdr: RdmaHeader, body: Payload,
                    notify: Optional[str]):
        """Direct placement of a tagged message (WRITE or READ_RESP)."""
        key = hdr.sink_key if notify == "read" else hdr.rkey
        addr = hdr.sink_addr if notify == "read" else hdr.remote_addr
        try:
            region = self.translation.check(key, addr, body.length,
                                            Access.REMOTE_WRITE
                                            if notify is None
                                            else Access.LOCAL_WRITE)
        except Exception:
            # iWARP-style: a remote access violation terminates the stream.
            self._fail_endpoint(ep, WRStatus.REMOTE_ACCESS_ERROR)
            ep.conn.abort() if ep.conn else None
            return
        yield self.nic.run(self._put_data_span)
        try:
            dma = self.nic.dma_to_host(body.length)
        except DmaError:
            self.dma_wr_errors += 1
            self._fail_endpoint(ep, WRStatus.LOCAL_DMA_ERROR)
            return
        if not self.nic.timing.overlap_dma:
            yield dma
        if not isinstance(body, ZeroPayload):
            region.aspace.write(addr, body.to_bytes())
        yield self.nic.run(self._rx_update_span)
        if notify == "read":
            yield from self._rdma_read_progress(ep, hdr, body.length)

    def _rdma_read_progress(self, ep: FwEndpoint, hdr: RdmaHeader,
                            placed: int):
        # The request recorded the sink base address; responses advance
        # through the sink, so locate the tracking entry by range.
        for base, entry in list(ep.outstanding_reads.items()):
            wr, left = entry
            sink = wr.sges[0]
            if sink.addr <= hdr.sink_addr < sink.addr + sink.length:
                entry[1] = left - placed
                if entry[1] <= 0:
                    del ep.outstanding_reads[base]
                    yield self.nic.run(self._ack_update_span)
                    ep.qp.sends_completed += 1
                    self._post_cqe(ep.qp.send_cq, Completion(
                        wr.wr_id, ep.qp.qp_num, WROpcode.RDMA_READ,
                        byte_len=sink.length))
                return

    def _emit_read_response(self, ep: FwEndpoint):
        """Responder side of RDMA READ: stream one chunk per service."""
        t = self.nic.timing
        req = ep.read_responses[0]
        served = getattr(req, "_served", 0)
        chunk = self._rdma_chunk(ep)
        n = min(chunk, req.length - served)
        try:
            region = self.translation.check(req.rkey, req.remote_addr + served,
                                            n, Access.REMOTE_READ)
        except Exception:
            ep.read_responses.popleft()
            self._fail_endpoint(ep, WRStatus.REMOTE_ACCESS_ERROR)
            return
        yield self.nic.run(self._get_data_span)
        try:
            dma = self.nic.dma_from_host(n)
        except DmaError:
            ep.read_responses.popleft()
            self.dma_wr_errors += 1
            self._fail_endpoint(ep, WRStatus.LOCAL_DMA_ERROR)
            return
        if not t.overlap_dma:
            yield dma
        if region.aspace.is_all_zero(req.remote_addr + served, n):
            body = ZeroPayload(n)
        else:
            body = BytesPayload(region.aspace.read(req.remote_addr + served, n))
        hdr = RdmaHeader(RdmaOpcode.READ_RESP, length=n,
                         sink_key=req.sink_key,
                         sink_addr=req.sink_addr + served)
        ep.conn.send_message(frame(hdr, body), msg_id=next(ep._msg_ids))
        served += n
        if served >= req.length:
            ep.read_responses.popleft()
        else:
            object.__setattr__(req, "_served", served)
            # (frozen dataclass: progress rides on the queued instance)

    # -- endpoint lifecycle ------------------------------------------------------

    def _on_established(self, ep: FwEndpoint) -> None:
        if ep.coll_unit is not None:
            ep.coll_unit.on_established(ep)
            return
        if ep.qp is not None:
            ep.qp.state = QPState.CONNECTED
            rec = obs.RECORDER
            if rec is not None:
                rec.event("qp", "qp.established",
                          track=f"{self.nic.attachment.name}.fw", qp=ep.qp.qp_num)
                rec.metrics.counter("qp.established").add()
            if ep.established_event is not None:
                ev, ep.established_event = ep.established_event, None
                self._notify_host(ev, ep.qp)
            ep.conn.set_receive_credit(self._qp_credit(ep.qp))
        else:
            # Listener-spawned: mate with an idle QP (paper §3).
            ep.listener.mate(ep)

    def _on_remote_fin(self, ep: FwEndpoint) -> None:
        """Orderly shutdown from the peer: flush the now-unusable receive
        WRs so the application observes EOF (FLUSHED recv completions)."""
        if ep.qp is None:
            return
        ep.qp.remote_closed = True
        qp = ep.qp
        while qp.recv_queue:
            wr = qp.take_recv()
            self._post_cqe(qp.recv_cq, Completion(
                wr.wr_id, qp.qp_num, WROpcode.RECV, status=WRStatus.FLUSHED))
        qp.wr_dequeued("recv")

    def _on_closed(self, ep: FwEndpoint, exc: Optional[Exception]) -> None:
        if ep.coll_unit is not None:
            ep.coll_unit.on_closed(ep, exc)
            return
        if ep.qp is None:
            return
        qp = ep.qp
        if exc is not None:
            qp.error = exc
            self._mark_error(qp)
            self._flush_endpoint(ep, WRStatus.REMOTE_ABORTED)
        else:
            # ERROR is sticky: an orderly-close action queued behind an
            # abort must not downgrade the QP back to DISCONNECTED.
            if qp.state is not QPState.ERROR:
                qp.state = QPState.DISCONNECTED
            self._flush_endpoint(ep, WRStatus.FLUSHED)
        if ep.established_event is not None and not ep.established_event.triggered:
            ev, ep.established_event = ep.established_event, None
            ev.fail(exc or QPStateError(f"QP{qp.qp_num} closed"))

    def _mark_error(self, qp: QueuePair) -> None:
        """Move a QP to (sticky) ERROR, counting each distinct transition."""
        if qp.state is not QPState.ERROR:
            qp.state = QPState.ERROR
            self.qp_error_transitions += 1
            rec = obs.RECORDER
            if rec is not None:
                rec.event("qp", "qp.error", track=f"{self.nic.attachment.name}.fw",
                          qp=qp.qp_num, error=repr(qp.error))
                rec.metrics.counter("qp.error_transitions").add()

    def _fail_endpoint(self, ep: FwEndpoint, status: WRStatus) -> None:
        if ep.conn is not None:
            ep.conn.abort()
        if ep.qp is not None:
            self._mark_error(ep.qp)
            self._flush_endpoint(ep, status)

    def _flush_endpoint(self, ep: FwEndpoint, status: WRStatus) -> None:
        """Error-complete every WR the endpoint still owes a CQE for:
        in-flight sends awaiting ACK (msg_map), outstanding RDMA READs,
        and everything still queued on the QP.  After this the
        application can account for 100% of its posted WRs."""
        qp = ep.qp
        if qp is None:
            return
        rec = obs.RECORDER
        if rec is not None:
            rec.event("qp", "qp.flush", track=f"{self.nic.attachment.name}.fw",
                      qp=qp.qp_num, status=status.name)
            rec.metrics.counter("qp.flushes").add()
        for msg_id in list(ep.msg_map):
            wr = ep.msg_map.pop(msg_id)
            self._post_cqe(qp.send_cq, Completion(
                wr.wr_id, qp.qp_num, wr.opcode, status=status))
        for base in list(ep.outstanding_reads):
            wr, _left = ep.outstanding_reads.pop(base)
            self._post_cqe(qp.send_cq, Completion(
                wr.wr_id, qp.qp_num, wr.opcode, status=status))
        ep.read_responses.clear()
        self._flush_qp(qp, status)

    def _flush_qp(self, qp: QueuePair, status: WRStatus) -> None:
        while qp.recv_queue:
            wr = qp.take_recv()
            self._post_cqe(qp.recv_cq, Completion(
                wr.wr_id, qp.qp_num, WROpcode.RECV, status=status))
        while qp.send_queue:
            wr = qp.send_queue.popleft()
            self._post_cqe(qp.send_cq, Completion(
                wr.wr_id, qp.qp_num, wr.opcode, status=status))
        # Posters blocked on backpressure must observe the teardown, not
        # wait forever for space that will never free.
        qp.fail_waiters(qp.error)

    # -- host notification ---------------------------------------------------------

    def _post_cqe(self, cq, cqe: Completion) -> None:
        """DMA the CQE into the host-memory ring (posted; firmware moves on).

        Completion writes use the "cqe" DMA class: fault injectors leave
        them alone, so applications never lose a completion — the flush
        guarantee depends on it.

        Delivery is a deferred call: on the fast path each CQE costs one
        burst-walker heap item instead of a timer handle plus an Event,
        so flush storms posting dozens of back-to-back completions stay
        cheap while serializing on the DMA engine exactly as before.
        """
        self.nic.dma_to_host_call(CQE_BYTES, lambda: cq.push(cqe), kind="cqe")

    def _notify_host(self, event: Event, value) -> None:
        def fire() -> None:
            if not event.triggered:
                event.succeed(value)
        self.nic.dma_to_host_call(CQE_BYTES, fire, kind="cqe")


class _FwIface:
    """IP-layer interface adapter for the NIC's own stack.

    Normal segment transmission goes through the timed transmit FSM; this
    direct path is used only for stack-generated control packets (RSTs).
    """

    def __init__(self, nic: ProgrammableNic):
        self.nic = nic
        self.mtu = nic.mtu
        self.mac = None

    def enqueue_tx(self, pkt: Packet) -> None:
        self.nic.wire_transmit(pkt)
