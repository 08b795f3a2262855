"""A key-value store over QPIP — the classic one-sided-RDMA workload.

The paper's introduction motivates "processor-to-processor" I/O over the
SAN; this is the canonical modern instance.  The server exposes a
registered slot table; clients can GET two ways:

* **two-sided** — a SEND request, served by the server process
  (consumes server CPU per request, like memcached over sockets);
* **one-sided** — an RDMA READ of the hashed slot, "without involving
  the target process" (paper §2.1) — the server's CPU stays idle.

PUTs are always two-sided (the server owns index consistency).

Wire/slot format: each slot is ``[key_len u16][val_len u16][key][value]``
in a registered region of ``slot_count`` fixed-size slots; keys hash to a
slot with bounded linear probing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Generator, Optional, Tuple

from ..core import QPTransport, WROpcode
from ..errors import ReproError
from ..mem import Access
from ..net.addresses import Endpoint
from ..sim import Event

SLOT_HDR = 4
PROBE_LIMIT = 4
KV_PORT = 11211

OP_PUT = 1
OP_GET = 2
OP_REPLY = 3
REQ_HDR = 8          # op(1) pad(1) klen(2) vlen(2) pad(2)


def _hash_key(key: bytes, slot_count: int) -> int:
    h = 2166136261
    for b in key:
        h = ((h ^ b) * 16777619) & 0xFFFFFFFF
    return h % slot_count


def _encode_req(op: int, key: bytes, value: bytes = b"") -> bytes:
    return struct.pack("!BxHHxx", op, len(key), len(value)) + key + value


def _decode_req(data: bytes) -> Tuple[int, bytes, bytes]:
    op, klen, vlen = struct.unpack_from("!BxHHxx", data, 0)
    key = data[REQ_HDR:REQ_HDR + klen]
    value = data[REQ_HDR + klen:REQ_HDR + klen + vlen]
    return op, key, value


class SlotTable:
    """The registered server-side table (shared layout with clients)."""

    def __init__(self, buf, slot_count: int, slot_size: int):
        if slot_count <= 0 or slot_size <= SLOT_HDR:
            raise ReproError("bad slot table geometry")
        if buf.length < slot_count * slot_size:
            raise ReproError("buffer too small for the slot table")
        self.buf = buf
        self.slot_count = slot_count
        self.slot_size = slot_size

    def slot_offset(self, index: int) -> int:
        return index * self.slot_size

    def write_slot(self, index: int, key: bytes, value: bytes) -> None:
        record = struct.pack("!HH", len(key), len(value)) + key + value
        if len(record) > self.slot_size:
            raise ReproError("record exceeds slot size")
        self.buf.write(record, offset=self.slot_offset(index))

    def read_slot_bytes(self, raw: bytes) -> Optional[Tuple[bytes, bytes]]:
        klen, vlen = struct.unpack_from("!HH", raw, 0)
        if klen == 0 and vlen == 0:
            return None
        if SLOT_HDR + klen + vlen > len(raw):
            return None
        return (raw[SLOT_HDR:SLOT_HDR + klen],
                raw[SLOT_HDR + klen:SLOT_HDR + klen + vlen])

    def find_slot(self, key: bytes, for_insert: bool) -> Optional[int]:
        base = _hash_key(key, self.slot_count)
        for probe in range(PROBE_LIMIT):
            index = (base + probe) % self.slot_count
            raw = self.buf.read(self.slot_size, offset=self.slot_offset(index))
            entry = self.read_slot_bytes(raw)
            if entry is None:
                return index if for_insert else None
            if entry[0] == key:
                return index
        return None if not for_insert else None


@dataclass
class KvStats:
    puts: int = 0
    gets_two_sided: int = 0
    gets_one_sided: int = 0
    misses: int = 0
    reconnects: int = 0      # server: connections served after the first


class KvServer:
    """Runs on the server node; owns the slot table."""

    def __init__(self, node, slot_count: int = 256, slot_size: int = 256,
                 port: int = KV_PORT):
        self.node = node
        self.iface = node.iface
        self.host = node.host
        self.slot_count = slot_count
        self.slot_size = slot_size
        self.port = port
        self.stats = KvStats()
        self.table: Optional[SlotTable] = None
        self.table_rkey: Optional[int] = None
        self.table_addr: Optional[int] = None
        self.ready = Event(node.host.sim)

    def run(self, max_clients: int = 1) -> Generator:
        """Serve ``max_clients`` concurrent clients (one worker each)."""
        iface = self.iface
        table_buf = yield from iface.register_memory(
            self.slot_count * self.slot_size,
            access=Access.local() | Access.REMOTE_READ)
        self.table = SlotTable(table_buf, self.slot_count, self.slot_size)
        self.table_rkey = table_buf.lkey
        self.table_addr = table_buf.addr
        listener = yield from iface.listen(self.port)
        self.ready.succeed((self.table_addr, self.table_rkey,
                            self.slot_count, self.slot_size))
        sim = self.host.sim
        workers = []
        for _ in range(max_clients):
            workers.append(sim.process(self._serve_one(listener)))
        for w in workers:
            yield w

    def _serve_one(self, listener) -> Generator:
        """Resilient worker: serve connections forever.  A client that
        dies (or is killed by chaos) just means a fresh QP and another
        accept — the slot table and stats persist across connections."""
        while True:
            yield from self._serve_conn(listener)
            self.stats.reconnects += 1

    def _serve_conn(self, listener) -> Generator:
        """Accept one connection and serve it until it goes away."""
        iface = self.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq, rdma=True,
                                        max_recv_wr=64)
        recv_bufs = []
        for _ in range(16):
            buf = yield from iface.register_memory(4096)
            yield from iface.post_recv(qp, [buf.sge()])
            recv_bufs.append(buf)
        reply_buf = yield from iface.register_memory(4096)
        yield from iface.accept(listener, qp)

        from .nbd.server import _QpMessagePump
        pump = _QpMessagePump(iface, qp, cq, recv_bufs, max_sends=16)
        while True:
            msg = yield from pump.get_message()
            if msg is None:
                return
            cqe, buf = msg
            op, key, value = _decode_req(buf.read(cqe.byte_len))
            yield from pump.recycle(buf)
            if op == OP_PUT:
                # Index maintenance costs server CPU (the two-sided half).
                yield self.host.cpu.submit_wait(2.0, "kv-server")
                slot = self.table.find_slot(key, for_insert=True)
                if slot is None:
                    reply = _encode_req(OP_REPLY, b"", b"ERR")
                else:
                    self.table.write_slot(slot, key, value)
                    reply = _encode_req(OP_REPLY, b"", b"OK")
                self.stats.puts += 1
            elif op == OP_GET:
                yield self.host.cpu.submit_wait(2.0, "kv-server")
                self.stats.gets_two_sided += 1
                slot = self.table.find_slot(key, for_insert=False)
                if slot is None:
                    self.stats.misses += 1
                    reply = _encode_req(OP_REPLY, b"", b"")
                else:
                    raw = self.table.buf.read(
                        self.slot_size, offset=self.table.slot_offset(slot))
                    _k, v = self.table.read_slot_bytes(raw)
                    reply = _encode_req(OP_REPLY, b"", v)
            else:
                raise ReproError(f"bad kv opcode {op}")
            reply_buf.write(reply)
            yield from pump.send(reply_buf.sge(0, len(reply)))


class KvClient:
    """Client handle: two-sided PUT/GET plus one-sided RDMA GET."""

    def __init__(self, node, server_addr, port: int = KV_PORT):
        self.node = node
        self.iface = node.iface
        self.sim = node.host.sim
        self.server = Endpoint(server_addr, port)
        self.stats = KvStats()

    def connect(self, table_info) -> Generator:
        (self.table_addr, self.table_rkey, self.slot_count,
         self.slot_size) = table_info
        iface = self.iface
        self.cq = yield from iface.create_cq()
        self.qp = yield from iface.create_qp(QPTransport.TCP, self.cq,
                                             rdma=True, max_recv_wr=32)
        self.recv_bufs = []
        for _ in range(8):
            buf = yield from iface.register_memory(4096)
            yield from iface.post_recv(self.qp, [buf.sge()])
            self.recv_bufs.append(buf)
        self.req_buf = yield from iface.register_memory(4096)
        self.sink_buf = yield from iface.register_memory(
            max(4096, self.slot_size))
        yield from iface.connect(self.qp, self.server)
        from .nbd.server import _QpMessagePump
        self.pump = _QpMessagePump(iface, self.qp, self.cq, self.recv_bufs,
                                   max_sends=8)

    def _rpc(self, request: bytes) -> Generator:
        self.req_buf.write(request)
        yield from self.pump.send(self.req_buf.sge(0, len(request)))
        msg = yield from self.pump.get_message()
        if msg is None:
            raise ReproError("kv server went away")
        cqe, buf = msg
        _op, _key, value = _decode_req(buf.read(cqe.byte_len))
        yield from self.pump.recycle(buf)
        return value

    def put(self, key: bytes, value: bytes) -> Generator:
        reply = yield from self._rpc(_encode_req(OP_PUT, key, value))
        self.stats.puts += 1
        if reply != b"OK":
            raise ReproError(f"PUT failed: {reply!r}")

    def get(self, key: bytes) -> Generator:
        """Two-sided GET through the server process."""
        value = yield from self._rpc(_encode_req(OP_GET, key))
        self.stats.gets_two_sided += 1
        if not value:
            self.stats.misses += 1
            return None
        return value

    def get_rdma(self, key: bytes) -> Generator:
        """One-sided GET: read the hashed slots directly, probe locally.

        The server process never runs — its CPU cost for this operation
        is exactly zero.
        """
        table = SlotTable(self.sink_buf, 1, self.slot_size)  # reader helper
        base = _hash_key(key, self.slot_count)
        for probe in range(PROBE_LIMIT):
            index = (base + probe) % self.slot_count
            remote = self.table_addr + index * self.slot_size
            yield from self.iface.post_rdma_read(
                self.qp, self.sink_buf.sge(0, self.slot_size),
                remote_addr=remote, rkey=self.table_rkey)
            # Wait for the READ completion (reads complete on placement).
            got = False
            while not got:
                cqes = yield from self.iface.wait(self.cq)
                for cqe in cqes:
                    if cqe.opcode is WROpcode.RDMA_READ:
                        got = True
                    elif cqe.opcode is WROpcode.RECV:
                        self.pump.inbox.append(
                            (cqe, self.pump.posted.popleft()))
            raw = self.sink_buf.read(self.slot_size)
            entry = table.read_slot_bytes(raw)
            if entry is None:
                break
            if entry[0] == key:
                self.stats.gets_one_sided += 1
                return entry[1]
        self.stats.misses += 1
        return None

    def disconnect(self) -> Generator:
        yield from self.iface.disconnect(self.qp)


class FailoverKvClient:
    """KV client with automatic reconnect and replica failover.

    ``replicas`` is a list of ``(node_addr, port, table_info)`` — one
    independent :class:`KvServer` each.  Semantics under failure:

    * :meth:`put` is written to **every** replica (client-side
      replication) and retried per replica until it sticks, so any
      replica can serve any successfully-completed key afterwards.
      PUTs are idempotent (same key, same value), which makes blind
      replay after an ambiguous failure safe.
    * :meth:`get` / :meth:`get_rdma` try the preferred replica and fail
      over around the ring on connection errors or an ``op_timeout``
      (a stalled server is indistinguishable from a dead one).
    * Every failure path tears the broken QP down via
      ``firmware.abort_qp`` — no half-open connections are left behind.

    Retries follow a :class:`~repro.recovery.RetryPolicy`; the failover
    trace (``.trace``) is deterministic per seed.
    """

    def __init__(self, node, replicas, policy=None, rng=None,
                 op_timeout: float = 200_000.0):
        from ..recovery import RetryPolicy
        self.node = node
        self.sim = node.host.sim
        self.replicas = list(replicas)
        if not self.replicas:
            raise ReproError("failover client needs at least one replica")
        self.policy = policy or RetryPolicy(max_attempts=12)
        self.rng = rng
        self.op_timeout = op_timeout
        self._clients: dict = {}        # replica index -> connected KvClient
        self.preferred = 0
        self.stats = KvStats()
        self.failovers = 0
        self.reconnects = 0
        self.op_attempts = 0
        self.trace = []                 # deterministic failover trace

    # -- connection management ----------------------------------------------

    def _ensure(self, i: int) -> Generator:
        client = self._clients.get(i)
        if client is not None:
            return client
        addr, port, info = self.replicas[i]
        client = KvClient(self.node, addr, port=port)
        yield from self._bounded(client.connect(info), "connect")
        self._clients[i] = client
        self.reconnects += 1
        return client

    def _abandon(self, i: int) -> None:
        client = self._clients.pop(i, None)
        if client is not None and getattr(client, "qp", None) is not None:
            self.node.firmware.abort_qp(client.qp)

    def _bounded(self, gen, what: str) -> Generator:
        """Run ``gen`` with the op deadline; a hung op becomes a loud,
        retryable failure instead of a stuck client."""
        from ..sim import AnyOf
        proc = self.sim.process(gen)
        yield AnyOf(self.sim, [proc, self.sim.timeout(self.op_timeout)])
        if not proc.triggered:
            raise ReproError(f"kv {what} timed out after "
                             f"{self.op_timeout:g}us")
        if not proc.ok:
            raise proc.value
        return proc.value

    def _run_on(self, i: int, op_factory, what: str) -> Generator:
        """Retry one operation against one replica until it succeeds or
        the retry budget runs out."""
        from ..errors import RetryBudgetExhausted
        started = self.sim.now
        attempts = 0
        last: Optional[Exception] = None
        for delay in self.policy.delays(self.rng):
            if delay > 0:
                yield self.sim.timeout(delay)
            if self.policy.deadline is not None and attempts > 0 \
                    and self.sim.now - started >= self.policy.deadline:
                break
            attempts += 1
            self.op_attempts += 1
            try:
                client = yield from self._ensure(i)
                result = yield from self._bounded(op_factory(client), what)
                return result
            except ReproError as exc:
                last = exc
                self._abandon(i)
                self.trace.append(f"{self.sim.now:.1f}:retry:{what}:r{i}")
        raise RetryBudgetExhausted(
            f"kv {what} on replica {i} failed after {attempts} attempts "
            f"(last: {last})", attempts=attempts,
            elapsed=self.sim.now - started)

    # -- operations ----------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> Generator:
        """Replicated PUT: sticks on every replica before returning."""
        for i in range(len(self.replicas)):
            yield from self._run_on(i, lambda c: c.put(key, value), "put")
        self.stats.puts += 1

    def _get_with_failover(self, op_factory, what: str) -> Generator:
        from ..errors import RetryBudgetExhausted
        started = self.sim.now
        attempts = 0
        last: Optional[Exception] = None
        for delay in self.policy.delays(self.rng):
            if delay > 0:
                yield self.sim.timeout(delay)
            if self.policy.deadline is not None and attempts > 0 \
                    and self.sim.now - started >= self.policy.deadline:
                break
            attempts += 1
            self.op_attempts += 1
            i = self.preferred
            try:
                client = yield from self._ensure(i)
                result = yield from self._bounded(op_factory(client), what)
                return result
            except ReproError as exc:
                last = exc
                self._abandon(i)
                self.preferred = (i + 1) % len(self.replicas)
                self.failovers += 1
                self.trace.append(f"{self.sim.now:.1f}:failover:r{i}")
        raise RetryBudgetExhausted(
            f"kv {what} failed on every replica after {attempts} attempts "
            f"(last: {last})", attempts=attempts,
            elapsed=self.sim.now - started)

    def get(self, key: bytes) -> Generator:
        value = yield from self._get_with_failover(
            lambda c: c.get(key), "get")
        self.stats.gets_two_sided += 1
        if value is None:
            self.stats.misses += 1
        return value

    def get_rdma(self, key: bytes) -> Generator:
        value = yield from self._get_with_failover(
            lambda c: c.get_rdma(key), "get_rdma")
        self.stats.gets_one_sided += 1
        if value is None:
            self.stats.misses += 1
        return value

    def close(self) -> Generator:
        for i in list(self._clients):
            client = self._clients.pop(i)
            try:
                yield from client.disconnect()
            except ReproError:
                pass
