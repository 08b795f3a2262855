"""Chaos harness: run a QPIP workload under faults, check invariants.

:func:`run_chaos` builds a two-node QPIP testbed, installs a
:class:`~repro.faults.plan.FaultPlan` on both host links, runs a
sequence-stamped verified workload, and returns a :class:`ChaosResult`
whose :meth:`~ChaosResult.violations` checks the contract the system
must keep **under any wire fault**:

* every byte the application sent is delivered exactly once, intact
  (TCP's loss/corruption/duplication/reordering recovery);
* every posted WR eventually completes — success or a typed error CQE,
  never silence;
* the run is deterministic: the same seed and plan give an identical
  completion trace (:func:`check_determinism`).  The trace is packed,
  one fixed-size :data:`CQE_RECORD` per completion.

Kill scenarios (``kill="rst"`` / ``kill="dma"``) murder the transfer
mid-flight and check the failure semantics instead: the QP lands in
ERROR, *all* outstanding WRs come back as error CQEs, and the
application survives to count them.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bench.configs import build_qpip_pair
from ..core import QPTransport
from ..core.qp import QPState
from ..core.wr import WROpcode, WRStatus
from ..errors import QPStateError, VerbsError
from ..net.addresses import Endpoint
from ..sim import RngHub, Simulator, reclaim_world
from .inject import install_on_link
from .nicfaults import NicFaultController
from .plan import FaultPlan

CHAOS_PORT = 5099
SEQ_HDR = 8           # big-endian sequence number stamped into each message

KILL_MODES = ("none", "rst", "dma")
WORKLOADS = ("ttcp", "pingpong")
RECOVER_WORKLOADS = ("ttcp", "pingpong", "kvstore")

#: One completion of :attr:`ChaosResult.cqe_trace`, 19 bytes: the time
#: in µs rounded to 1 ns, the side (``c`` client, ``s`` server), the QP
#: number, the opcode and status (indexes into their enums) and the
#: byte length.
CQE_RECORD = struct.Struct("<dcIBBI")
_OPCODES = tuple(WROpcode)
_STATUSES = tuple(WRStatus)
_OPCODE_CODE = {op: i for i, op in enumerate(_OPCODES)}
_STATUS_CODE = {st: i for i, st in enumerate(_STATUSES)}


def _cqe_record(now: float, side: bytes, cqe) -> bytes:
    return CQE_RECORD.pack(round(now, 3), side, cqe.qp_num,
                           _OPCODE_CODE[cqe.opcode],
                           _STATUS_CODE[cqe.status], cqe.byte_len)


def message_bytes(seq: int, size: int) -> bytes:
    """The verified payload for message ``seq``: an 8-byte sequence stamp
    followed by a seq-derived fill pattern.  Any undetected corruption,
    loss, duplication, or reordering shows up as a stamp or pattern
    mismatch at the receiver."""
    if size < SEQ_HDR:
        raise VerbsError(f"chaos message size {size} < {SEQ_HDR}")
    fill = (seq * 31 + 7) & 0xFF
    return seq.to_bytes(SEQ_HDR, "big") + bytes([fill]) * (size - SEQ_HDR)


@dataclass
class ChaosResult:
    """Everything one chaos run observed, plus the invariant checker."""

    workload: str
    seed: int
    plan: str
    kill: str
    messages: int
    msg_size: int
    elapsed_us: float = 0.0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    messages_delivered: int = 0
    duplicate_messages: int = 0
    payload_mismatches: int = 0
    client_posted: int = 0
    client_completed: int = 0
    server_posted: int = 0
    server_completed: int = 0
    error_completions: int = 0
    client_qp_state: str = ""
    cqe_trace: bytes = b""          # packed CQE_RECORDs, in arrival order
    tcp_stats: Dict[str, int] = field(default_factory=dict)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    recover: bool = False
    forced_restarts: int = 0
    recovery: Dict[str, object] = field(default_factory=dict)
    recovery_trace: List[str] = field(default_factory=list)

    @property
    def killed(self) -> bool:
        return self.kill != "none"

    def violations(self) -> List[str]:
        """Check the chaos invariants; empty list means the run is clean."""
        bad: List[str] = []
        if self.duplicate_messages:
            bad.append(f"{self.duplicate_messages} duplicate deliveries")
        if self.payload_mismatches:
            bad.append(f"{self.payload_mismatches} corrupted deliveries")
        if self.recover:
            # Self-healing contract: every application op succeeds exactly
            # once *despite* the forced QP restarts, and each restart was
            # an actual ERROR transition that the recovery layer healed.
            if self.bytes_delivered != self.bytes_sent:
                bad.append(f"delivered {self.bytes_delivered}B of "
                           f"{self.bytes_sent}B sent")
            if self.messages_delivered != self.messages:
                bad.append(f"delivered {self.messages_delivered} of "
                           f"{self.messages} messages")
            if self.forced_restarts:
                transitions = self.recovery.get("qp_error_transitions", 0)
                if transitions < self.forced_restarts:
                    bad.append(f"only {transitions} QP ERROR transitions "
                               f"for {self.forced_restarts} forced restarts")
                recoveries = self.recovery.get("recoveries", 0)
                if recoveries < self.forced_restarts:
                    bad.append(f"only {recoveries} recoveries for "
                               f"{self.forced_restarts} forced restarts")
            return bad
        if self.client_completed != self.client_posted:
            bad.append(f"client WRs leaked: {self.client_posted} posted, "
                       f"{self.client_completed} completed")
        if self.server_completed != self.server_posted:
            bad.append(f"server WRs leaked: {self.server_posted} posted, "
                       f"{self.server_completed} completed")
        if not self.killed:
            if self.bytes_delivered != self.bytes_sent:
                bad.append(f"delivered {self.bytes_delivered}B of "
                           f"{self.bytes_sent}B sent")
            if self.messages_delivered != self.messages:
                bad.append(f"delivered {self.messages_delivered} of "
                           f"{self.messages} messages")
            if self.error_completions:
                bad.append(f"{self.error_completions} unexpected error CQEs")
        else:
            if self.client_qp_state != QPState.ERROR.name:
                bad.append(f"killed QP ended {self.client_qp_state}, "
                           f"not ERROR")
            if self.bytes_delivered > self.bytes_sent:
                bad.append("delivered more bytes than were sent")
        return bad

    @property
    def ok(self) -> bool:
        return not self.violations()

    def completions(self) -> List[Tuple]:
        """The completion trace decoded, one ``(time_us, side, qp_num,
        opcode, status, byte_len)`` tuple per completion."""
        return [(time_us, side.decode(), qp_num, _OPCODES[op].value,
                 _STATUSES[status].value, byte_len)
                for time_us, side, qp_num, op, status, byte_len
                in CQE_RECORD.iter_unpack(self.cqe_trace)]

    def trace_key(self) -> Tuple:
        """The determinism fingerprint: the packed completion trace, the
        client's TCP counters (summed over every connection in
        ``--recover`` runs), and (in ``--recover`` runs) the recovery
        trace and counters."""
        return (self.cqe_trace, tuple(sorted(self.tcp_stats.items())),
                tuple(self.recovery_trace),
                tuple(sorted((k, v) for k, v in self.recovery.items()
                             if not isinstance(v, dict))))

    def summary(self) -> str:
        mode = f"recover({self.forced_restarts} restarts)" if self.recover \
            else f"kill={self.kill}"
        lines = [
            f"chaos[{self.workload}] seed={self.seed} {mode}",
            f"  plan: {self.plan}",
            f"  {self.messages_delivered}/{self.messages} messages, "
            f"{self.bytes_delivered}/{self.bytes_sent} bytes, "
            f"{self.elapsed_us / 1000.0:.2f} ms",
        ]
        if self.recover:
            rec = self.recovery
            lines.append(
                f"  recovery: {rec.get('qp_error_transitions', 0)} QP "
                f"errors, {rec.get('recoveries', 0)} heals, "
                f"{rec.get('attempts', 0)} connect attempts, "
                f"{rec.get('replayed_wrs', 0)} WRs replayed, "
                f"breaker opens {rec.get('breaker_opens', 0)}, "
                f"watchdog aborts {rec.get('watchdog_aborts', 0)}")
            if self.recovery_trace:
                lines.append("  trace: " + " ".join(self.recovery_trace))
        else:
            lines.append(
                f"  WRs: client {self.client_completed}/{self.client_posted},"
                f" server {self.server_completed}/{self.server_posted}, "
                f"{self.error_completions} errors; QP {self.client_qp_state}")
        if self.fault_counts:
            faults = ", ".join(f"{k}={v}" for k, v in
                               sorted(self.fault_counts.items()) if v)
            lines.append(f"  faults: {faults or 'none fired'}")
        retrans = self.tcp_stats.get("retransmitted_segs", 0)
        rto = self.tcp_stats.get("rto_timeouts", 0)
        lines.append(f"  tcp: {self.tcp_stats.get('segs_out', 0)} segs out, "
                     f"{retrans} retransmitted, {rto} RTOs")
        verdict = self.violations()
        lines.append("  INVARIANTS OK" if not verdict
                     else "  VIOLATIONS: " + "; ".join(verdict))
        return "\n".join(lines)


class _Receiver:
    """Shared receive-side bookkeeping: stamp/pattern verification."""

    def __init__(self, result: ChaosResult):
        self.result = result
        self.seen = set()
        self.next_echo: List[int] = []     # pingpong: seqs owed an echo

    def consume(self, data: bytes) -> None:
        res = self.result
        res.bytes_delivered += len(data)
        res.messages_delivered += 1
        if len(data) < SEQ_HDR:
            res.payload_mismatches += 1
            return
        seq = int.from_bytes(data[:SEQ_HDR], "big")
        if seq in self.seen:
            res.duplicate_messages += 1
            return
        self.seen.add(seq)
        if data != message_bytes(seq, len(data)):
            res.payload_mismatches += 1
        self.next_echo.append(seq)


def run_chaos(seed: int = 1,
              workload: str = "ttcp",
              plan: Optional[FaultPlan] = None,
              messages: int = 64,
              msg_size: int = 4096,
              kill: str = "none",
              kill_at: float = 5_000.0,
              queue_depth: int = 8,
              recv_buffers: int = 16,
              mtu: int = 16384,
              deadline: float = 600_000_000.0,
              recover: bool = False,
              restarts: int = 3) -> ChaosResult:
    """One chaos run.  See the module docstring for the contract.

    ``kill="rst"`` aborts the server's connection at ``kill_at`` (the
    client sees an RST); ``kill="dma"`` breaks the client NIC's host-DMA
    engine from ``kill_at`` on.  Both must leave the client QP in ERROR
    with every posted WR completed.

    ``recover=True`` runs the workload over the self-healing session
    layer (:mod:`repro.recovery`) instead, forcing ``restarts`` QP
    aborts at deterministic points mid-transfer.  The contract inverts:
    the QP *does* die, repeatedly, and every application op must still
    succeed exactly once — bit-for-bit reproducibly per seed.
    """
    if recover:
        if workload not in RECOVER_WORKLOADS:
            raise VerbsError(f"unknown recover workload {workload!r} "
                             f"(one of {RECOVER_WORKLOADS})")
        if kill != "none":
            raise VerbsError("recover mode schedules its own QP restarts; "
                             "combine with a FaultPlan, not with kill=")
        with reclaim_world():
            return _run_chaos_recover(seed=seed, workload=workload,
                                      plan=plan if plan is not None
                                      else FaultPlan(),
                                      messages=messages, msg_size=msg_size,
                                      restarts=restarts, mtu=mtu,
                                      deadline=deadline)
    if workload not in WORKLOADS:
        raise VerbsError(f"unknown chaos workload {workload!r} "
                         f"(one of {WORKLOADS})")
    if kill not in KILL_MODES:
        raise VerbsError(f"unknown kill mode {kill!r} (one of {KILL_MODES})")
    with reclaim_world():
        return _run_chaos_plain(
            seed=seed, workload=workload,
            plan=plan if plan is not None else FaultPlan(),
            messages=messages, msg_size=msg_size, kill=kill,
            kill_at=kill_at, queue_depth=queue_depth,
            recv_buffers=recv_buffers, mtu=mtu, deadline=deadline)


def _run_chaos_plain(seed: int, workload: str, plan: FaultPlan,
                     messages: int, msg_size: int, kill: str, kill_at: float,
                     queue_depth: int, recv_buffers: int, mtu: int,
                     deadline: float) -> ChaosResult:
    """Chaos straight over the verbs, with an optional mid-flight kill."""
    sim = Simulator()
    hub = RngHub(seed)
    node_a, node_b, fabric = build_qpip_pair(sim, mtu=mtu)
    result = ChaosResult(workload=workload, seed=seed, plan=plan.describe(),
                         kill=kill, messages=messages, msg_size=msg_size)
    injectors = []
    if len(plan):
        for name, node in (("h0", node_a), ("h1", node_b)):
            injectors.append(install_on_link(
                fabric.host_link(name), node.nic.attachment, plan,
                hub.stream(f"fault.{name}")))
    nic_faults = NicFaultController(node_a.nic, node_a.firmware,
                                    hub.stream("fault.nic"))
    if kill == "dma":
        nic_faults.fail_dma(rate=1.0, start=kill_at)

    trace = bytearray()
    state: dict = {}
    receiver = _Receiver(result)

    def record(side: bytes, cqe) -> None:
        trace.extend(_cqe_record(sim.now, side, cqe))

    def server():
        iface = node_b.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(
            QPTransport.TCP, cq, max_recv_wr=recv_buffers + 4,
            max_send_wr=queue_depth + 4)
        state["server_qp"] = qp
        bufs = []
        for _ in range(recv_buffers):
            buf = yield from iface.register_memory(max(msg_size, 4096))
            yield from iface.post_recv(qp, [buf.sge()])
            bufs.append(buf)
        result.server_posted = recv_buffers
        echo_buf = yield from iface.register_memory(max(msg_size, 4096))
        listener = yield from iface.listen(CHAOS_PORT)
        yield from iface.accept(listener, qp)
        state["server_conn"] = node_b.firmware.endpoints[qp.qp_num].conn
        ring = 0            # recv WRs complete in posting order
        dead = False
        while True:
            done = result.messages_delivered >= messages
            if result.server_completed >= result.server_posted \
                    and (done or dead):
                break
            cqes = yield from iface.wait(cq)
            for cqe in cqes:
                result.server_completed += 1
                record(b"s", cqe)
                if not cqe.ok:
                    if cqe.status is not WRStatus.FLUSHED:
                        result.error_completions += 1
                    dead = True
                    continue
                if cqe.opcode.value != "RECV":
                    continue        # pingpong echo-send completions
                buf = bufs[ring % recv_buffers]
                ring += 1
                receiver.consume(buf.read(cqe.byte_len))
                if workload == "pingpong" and receiver.next_echo:
                    seq = receiver.next_echo.pop(0)
                    echo_buf.write(message_bytes(seq, msg_size))
                    try:
                        yield from iface.post_send(
                            qp, [echo_buf.sge(0, msg_size)])
                        result.server_posted += 1
                    except (QPStateError, VerbsError):
                        dead = True
                if result.messages_delivered < messages and not dead:
                    try:
                        yield from iface.post_recv(qp, [buf.sge()])
                        result.server_posted += 1
                    except (QPStateError, VerbsError):
                        dead = True

    def client():
        iface = node_a.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(
            QPTransport.TCP, cq, max_send_wr=queue_depth + 4,
            max_recv_wr=queue_depth + 4)
        state["client_qp"] = qp
        sbufs = []
        for _ in range(queue_depth):
            sbufs.append((yield from iface.register_memory(msg_size)))
        pong_bufs = []
        if workload == "pingpong":
            for _ in range(min(queue_depth, messages)):
                buf = yield from iface.register_memory(max(msg_size, 4096))
                yield from iface.post_recv(qp, [buf.sge()])
                pong_bufs.append(buf)
        yield sim.timeout(1000)
        yield from iface.connect(qp, Endpoint(node_b.addr, CHAOS_PORT))
        state["client_conn"] = node_a.firmware.endpoints[qp.qp_num].conn
        state["t_start"] = sim.now
        result.client_posted = len(pong_bufs)
        seq = 0
        pongs = 0
        sends_out = 0       # pipelining gate: outstanding *send* WRs only
        dead = False
        while True:
            while (not dead and seq < messages
                   and sends_out < queue_depth):
                buf = sbufs[seq % queue_depth]
                buf.write(message_bytes(seq, msg_size))
                try:
                    yield from iface.post_send(qp, [buf.sge(0, msg_size)])
                except (QPStateError, VerbsError):
                    dead = True
                    break
                result.client_posted += 1
                sends_out += 1
                seq += 1
                result.bytes_sent += msg_size
            if result.client_completed >= result.client_posted and (dead or (
                    seq >= messages
                    and (workload != "pingpong" or pongs >= messages))):
                break
            cqes = yield from iface.wait(cq)
            for cqe in cqes:
                result.client_completed += 1
                record(b"c", cqe)
                if not cqe.ok:
                    if cqe.status is not WRStatus.FLUSHED:
                        result.error_completions += 1
                    dead = True
                    continue
                if cqe.opcode.value != "RECV":
                    sends_out -= 1
                if cqe.opcode.value == "RECV":
                    pongs += 1
                    if pongs + len(pong_bufs) <= messages and not dead:
                        buf = pong_bufs[(pongs - 1) % len(pong_bufs)]
                        try:
                            yield from iface.post_recv(qp, [buf.sge()])
                            result.client_posted += 1
                        except (QPStateError, VerbsError):
                            dead = True
        state["t_end"] = sim.now
        if not dead:
            yield from iface.disconnect(qp)

    if kill == "rst":
        def do_rst():
            conn = state.get("server_conn")
            if conn is not None:
                conn.abort()
        sim.call_later(kill_at, do_rst)

    procs = [sim.process(server()), sim.process(client())]
    sim.run(until=sim.now + deadline)
    for proc in procs:
        if not proc.triggered:
            raise RuntimeError(
                f"chaos workload hung (seed={seed}, kill={kill}): "
                f"the invariant 'all WRs eventually complete' is broken "
                f"(client {result.client_completed}/{result.client_posted}, "
                f"server {result.server_completed}/{result.server_posted} "
                f"at t={sim.now:.0f}us)")
        if not proc.ok:
            raise proc.value

    result.elapsed_us = state.get("t_end", sim.now) - state.get("t_start", 0.0)
    result.cqe_trace = bytes(trace)
    qp = state.get("client_qp")
    result.client_qp_state = qp.state.name if qp is not None else "NONE"
    conn = state.get("client_conn")
    if conn is not None:
        result.tcp_stats = dataclasses.asdict(conn.stats)
    counts: Dict[str, int] = dict(nic_faults.counts())
    for injector in injectors:
        for key, value in injector.counts().items():
            if key != "seen":
                counts[f"wire_{key}"] = counts.get(f"wire_{key}", 0) + value
    counts["checksum_drops"] = (node_a.firmware.stack.checksum_errors
                                + node_b.firmware.stack.checksum_errors)
    result.fault_counts = counts
    return result


def _run_chaos_recover(seed: int, workload: str, plan: FaultPlan,
                       messages: int, msg_size: int, restarts: int,
                       mtu: int, deadline: float) -> ChaosResult:
    """Chaos with the self-healing layer in the loop.

    Forced restarts are placed at deterministic *progress* points (after
    every ``ops/(restarts+1)``-th application op), not wall-clock times,
    so every restart is guaranteed to land mid-transfer regardless of
    how fast the workload runs under the fault plan.
    """
    sim = Simulator()
    hub = RngHub(seed)
    node_a, node_b, fabric = build_qpip_pair(sim, mtu=mtu)
    result = ChaosResult(workload=workload, seed=seed, plan=plan.describe(),
                         kill="none", messages=messages, msg_size=msg_size,
                         recover=True)
    injectors = []
    if len(plan):
        for name, node in (("h0", node_a), ("h1", node_b)):
            injectors.append(install_on_link(
                fabric.host_link(name), node.nic.attachment, plan,
                hub.stream(f"fault.{name}")))
    state: dict = {}
    if workload == "kvstore":
        procs, finish = _recover_kvstore(sim, hub, node_a, node_b, result,
                                         messages, msg_size, restarts, state)
    else:
        procs, finish = _recover_stream(sim, hub, node_a, node_b, result,
                                        workload, messages, msg_size,
                                        restarts, state)
    sim.run(until=sim.now + deadline)
    for proc in procs:
        if not proc.triggered:
            raise RuntimeError(
                f"chaos recover workload hung (seed={seed}, "
                f"workload={workload}): "
                f"{result.messages_delivered}/{messages} delivered "
                f"at t={sim.now:.0f}us")
        if not proc.ok:
            raise proc.value
    finish()
    result.elapsed_us = state.get("t_end", sim.now) - state.get("t_start", 0.0)
    result.tcp_stats = _summed_tcp_stats(node_a)
    counts: Dict[str, int] = {}
    for injector in injectors:
        for key, value in injector.counts().items():
            if key != "seen":
                counts[f"wire_{key}"] = counts.get(f"wire_{key}", 0) + value
    counts["checksum_drops"] = (node_a.firmware.stack.checksum_errors
                                + node_b.firmware.stack.checksum_errors)
    result.fault_counts = counts
    return result


def _summed_tcp_stats(node) -> Dict[str, int]:
    """``node``'s TCP counters summed over every connection it opened:
    each reconnect of a recovered session is a new connection."""
    total: Dict[str, int] = {}
    for stats in node.firmware.stack.tcp.conn_stats:
        for key, value in dataclasses.asdict(stats).items():
            total[key] = total.get(key, 0) + value
    return total


def _recover_stream(sim, hub, node_a, node_b, result, workload, messages,
                    msg_size, restarts, state):
    """ttcp/pingpong over a RecoveryManager session with forced restarts."""
    from ..recovery import RecoveryAcceptor, RecoveryManager, RetryPolicy
    receiver = _Receiver(result)
    kill_after = {((k + 1) * messages) // (restarts + 1)
                  for k in range(restarts)}

    def handler(_sid, payload):
        receiver.consume(bytes(payload))
        return payload if workload == "pingpong" else None

    acceptor = RecoveryAcceptor(node_b, port=CHAOS_PORT, handler=handler,
                                max_msg=max(msg_size, 64), name="chaos-srv")
    manager = RecoveryManager(node_a, Endpoint(node_b.addr, CHAOS_PORT),
                              session_id=1,
                              policy=RetryPolicy(max_attempts=12),
                              rng=hub.stream("recovery.client"),
                              max_msg=max(msg_size, 64),
                              heartbeat_interval=10_000.0,
                              name="chaos-cli")
    trace = bytearray()

    def record(cqe):
        trace.extend(_cqe_record(sim.now, b"c", cqe))

    killed_qps = set()

    def try_kill():
        # A kill only counts when it lands on a live, healthy incarnation
        # — aborting a QP that is already in ERROR (recovery in progress)
        # is a no-op and heals nothing new.  The killed_qps latch keeps
        # two pending kills from burning on one incarnation: the ERROR
        # transition rides the firmware action queue, so qp.state alone
        # cannot tell a just-aborted QP from a healthy one.
        if not manager.connected or manager.qp.state is QPState.ERROR \
                or manager.qp.qp_num in killed_qps:
            return False
        before = node_a.firmware.watchdog_aborts
        node_a.firmware.abort_qp(manager.qp)
        if node_a.firmware.watchdog_aborts == before:
            return False
        killed_qps.add(manager.qp.qp_num)
        result.forced_restarts += 1
        return True

    def client():
        yield from manager.start()
        manager.cq.observers.append(record)
        state["t_start"] = sim.now
        pending_kills = 0
        for seq in range(messages):
            payload = message_bytes(seq, msg_size)
            yield from manager.send(payload)
            result.bytes_sent += msg_size
            if workload == "pingpong":
                echo = yield from manager.recv()
                if echo != payload:
                    result.payload_mismatches += 1
            if (seq + 1) in kill_after:
                pending_kills += 1
            if pending_kills and try_kill():
                pending_kills -= 1
        while pending_kills:
            # A fast sender can outrun recovery; land the remaining kills
            # before draining so every requested restart is exercised.
            if try_kill():
                pending_kills -= 1
            else:
                yield sim.timeout(200.0)
        # Every forced restart must actually heal — a kill whose ledger
        # was already empty would otherwise let close() win the race
        # against the reconnect.
        while manager.report().get("heals", 0) < result.forced_restarts:
            yield sim.timeout(200.0)
        yield from manager.drain()
        state["t_end"] = sim.now
        yield from manager.close()

    def finish():
        rep = manager.report()
        rec = {k: v for k, v in rep.items()
               if isinstance(v, (int, float, str))}
        rec["recoveries"] = rep.get("heals", 0)
        rec["qp_error_transitions"] = node_a.firmware.qp_error_transitions
        rec["server_qp_error_transitions"] = \
            node_b.firmware.qp_error_transitions
        rec["watchdog_aborts"] = (node_a.firmware.watchdog_aborts
                                  + node_b.firmware.watchdog_aborts)
        srv = acceptor.report()
        rec["server_delivered"] = srv.get("delivered", 0)
        result.recovery = rec
        result.recovery_trace = list(manager.trace)
        result.cqe_trace = bytes(trace)
        result.client_posted = rep.get("wrs_posted", 0)
        result.client_completed = rep.get("wrs_completed", 0)
        result.client_qp_state = (manager.qp.state.name
                                  if manager.qp is not None else "NONE")

    sim.process(acceptor.run())
    return [sim.process(client())], finish


def _recover_kvstore(sim, hub, node_a, node_b, result, messages, msg_size,
                     restarts, state):
    """Replicated KV store with reconnect/failover under forced restarts.

    Two independent KvServer replicas run on the server node; the client
    is a :class:`~repro.apps.kvstore.FailoverKvClient`.  PUTs replicate
    to both; GETs alternate two-sided/one-sided and fail over when the
    preferred replica's QP is killed under them.
    """
    from ..apps.kvstore import FailoverKvClient, KvServer
    from ..recovery import RetryPolicy
    servers = [KvServer(node_b, port=CHAOS_PORT + 1 + i) for i in range(2)]
    total_ops = 2 * messages
    kill_after = {((k + 1) * total_ops) // (restarts + 1)
                  for k in range(restarts)}
    vsize = max(SEQ_HDR, min(msg_size, 128))

    killed_qps = set()

    def try_kill(fkv):
        client = fkv._clients.get(fkv.preferred)
        qp = getattr(client, "qp", None) if client is not None else None
        if qp is None or qp.state is QPState.ERROR \
                or qp.qp_num in killed_qps:
            return False
        before = node_a.firmware.watchdog_aborts
        node_a.firmware.abort_qp(qp)
        if node_a.firmware.watchdog_aborts == before:
            return False
        killed_qps.add(qp.qp_num)
        result.forced_restarts += 1
        return True

    def client():
        replicas = []
        for server in servers:
            info = yield server.ready
            replicas.append((node_b.addr, server.port, info))
        fkv = FailoverKvClient(node_a, replicas,
                               policy=RetryPolicy(max_attempts=12),
                               rng=hub.stream("recovery.kv"),
                               op_timeout=100_000.0)
        state["fkv"] = fkv
        op = 0
        pending_kills = 0
        state["t_start"] = sim.now
        for i in range(messages):
            key = b"chaos-%04d" % i
            yield from fkv.put(key, message_bytes(i, vsize))
            result.bytes_sent += vsize
            op += 1
            if op in kill_after:
                pending_kills += 1
            if pending_kills and try_kill(fkv):
                pending_kills -= 1
        for i in range(messages):
            key = b"chaos-%04d" % i
            want = message_bytes(i, vsize)
            if i % 2 == 0:
                got = yield from fkv.get(key)
            else:
                got = yield from fkv.get_rdma(key)
            op += 1
            if got == want:
                result.messages_delivered += 1
                result.bytes_delivered += len(got)
            elif got is not None:
                result.payload_mismatches += 1
            if op in kill_after:
                pending_kills += 1
            if pending_kills and try_kill(fkv):
                pending_kills -= 1
        state["t_end"] = sim.now
        yield from fkv.close()

    def finish():
        fkv = state["fkv"]
        retries = sum(1 for entry in fkv.trace if ":retry:" in entry)
        rec = dict(failovers=fkv.failovers,
                   reconnects=fkv.reconnects,
                   op_attempts=fkv.op_attempts,
                   # Every forced restart must show up as a failed op that
                   # subsequently succeeded: a same-replica retry (PUT
                   # path) or a ring failover (GET path).
                   recoveries=fkv.failovers + retries,
                   qp_error_transitions=node_a.firmware.qp_error_transitions,
                   server_qp_error_transitions=(
                       node_b.firmware.qp_error_transitions),
                   watchdog_aborts=(node_a.firmware.watchdog_aborts
                                    + node_b.firmware.watchdog_aborts),
                   server_reconnects=sum(s.stats.reconnects
                                         for s in servers))
        result.recovery = rec
        result.recovery_trace = list(fkv.trace)

    for server in servers:
        sim.process(server.run())
    return [sim.process(client())], finish


def check_determinism(seed: int = 1, **kwargs) -> Tuple[ChaosResult,
                                                        ChaosResult]:
    """Run the same scenario twice; raise if the traces differ.

    Identical seeds must give bit-identical completion traces and TCP
    counters — the property that makes any chaos failure replayable.
    """
    first = run_chaos(seed=seed, **kwargs)
    second = run_chaos(seed=seed, **kwargs)
    if first.trace_key() != second.trace_key():
        raise AssertionError(
            f"chaos run is not deterministic for seed {seed}: "
            f"{_first_difference(first, second)}")
    return first, second


def _first_difference(first: ChaosResult, second: ChaosResult) -> str:
    """Name the first part of two runs' fingerprints that differs."""
    a, b = first.completions(), second.completions()
    for i in range(max(len(a), len(b))):
        ra = a[i] if i < len(a) else None
        rb = b[i] if i < len(b) else None
        if ra != rb:
            return (f"completion {i} of {len(a)} vs {len(b)} differs: "
                    f"{ra} vs {rb}")
    if first.tcp_stats != second.tcp_stats:
        return f"TCP counters {first.tcp_stats} vs {second.tcp_stats}"
    return (f"recovery trace or counters differ: {first.recovery_trace} "
            f"{first.recovery} vs {second.recovery_trace} {second.recovery}")
