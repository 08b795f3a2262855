"""Cluster orchestration: conservative time-windowed parallel simulation.

The coordinator drives N shard workers through a sequence of sync
windows.  Each round:

1. compute the horizon-clamped window end
   ``T' = min(horizon, L + min_i(h_i))`` where ``h_i`` is shard *i*'s
   next pending event time (local heap or undelivered inbound message)
   and ``L`` is the cross-trunk lookahead;
2. hand every shard its inbound messages plus ``T'``; shards inject and
   run ``[now, T']`` concurrently;
3. collect each shard's new outbound messages and next event time.

Any message generated in a window ends strictly after that window
(``deliver_at > T'``: the lookahead is a strict under-estimate of
cut-through trunk latency), so all deliveries for a window are known at
its start — the protocol is conservative, never speculative, and the
merged run is bit-for-bit the single-process run.

Workers run either in-process (``processes=False``: same algorithm, one
OS process — the mode unit tests exercise) or as forked worker processes
(:class:`repro.proc.Worker`) connected by pipes.  Worker crashes
propagate: the traceback is shipped back and re-raised here as
:class:`ClusterError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import proc
from ..sim import reclaim_world
from ..tools.inspect import merge_metrics_dumps
from .partition import lookahead, partition_blueprint
from .shard import ClusterError, ShardWorker, TrunkMsg
from .spec import ClusterSpec


class WorkerDied(ClusterError, proc.WorkerDied):
    """A forked shard worker exited without reporting (crash, OOM kill,
    operator signal) — unlike an in-worker exception, which is a plain
    :class:`ClusterError` carrying the shipped traceback."""

    def __init__(self, shard_id: int, exitcode):
        proc.WorkerDied.__init__(self, exitcode, f"shard {shard_id}: worker")
        self.shard_id = shard_id


class WorkerHung(ClusterError, proc.WorkerHung):
    """A forked shard worker missed :data:`repro.proc.REPLY_TIMEOUT_S`,
    or needed killing after a clean run.  ``last_window`` is the last
    sync window end it acknowledged: its results are good up to there."""

    def __init__(self, shard_id: int, last_window: float, detail: str):
        super().__init__(
            f"shard {shard_id} hung {detail} "
            f"(last acknowledged window end: {last_window:g}us)")
        self.shard_id = shard_id
        self.last_window = last_window


@dataclass
class ClusterResult:
    """Merged observables of a run (sharded or oracle)."""

    spec: ClusterSpec
    num_workers: int
    flows: Dict[int, dict]
    wire: Dict[str, list]
    metrics: Optional[Dict[str, dict]]      # merged registry dump
    events: int                             # sum of kernel events
    now: float
    barriers: int = 0
    trunk_msgs: int = 0
    wall_s: float = 0.0
    per_worker_events: List[int] = field(default_factory=list)
    fault_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


class _InProcessHandle:
    """Worker driven by direct calls (deterministic, coverage-friendly)."""

    def __init__(self, spec: ClusterSpec, shard_id: int, num_shards: int):
        self.shard_id = shard_id
        self._worker = ShardWorker(spec, shard_id, num_shards)
        self._state = None
        self._result = None

    def start(self) -> float:
        return self._worker.next_time()

    def send_step(self, until: float, msgs: List[TrunkMsg]) -> None:
        self._state = self._worker.step(until, msgs)

    def recv_state(self):
        return self._state

    def send_finish(self) -> None:
        self._result = self._worker.finish()

    def recv_result(self) -> dict:
        return self._result

    def close(self) -> bool:
        return False

    kill = close


def _worker_main(conn, spec: ClusterSpec, shard_id: int,
                 num_shards: int) -> None:  # pragma: no cover - child process
    """Forked worker body: a step/finish loop over one pipe."""
    worker = ShardWorker(spec, shard_id, num_shards)
    conn.send(("ready", worker.next_time()))
    while True:
        msg = conn.recv()
        if msg[0] == "step":
            conn.send(("state",) + worker.step(msg[1], msg[2]))
        elif msg[0] == "finish":
            conn.send(("result", worker.finish()))
            return
        else:
            raise ClusterError(f"unknown command {msg[0]!r}")


class _ProcessHandle(proc.Worker):
    """Worker in a forked process; windows across shards overlap."""

    def __init__(self, spec: ClusterSpec, shard_id: int, num_shards: int):
        self.shard_id = shard_id
        #: Last sync window end this worker acknowledged (``-inf`` until
        #: the first "state" reply) — shipped inside :class:`WorkerHung`.
        self.last_window = float("-inf")
        self._sent_window = float("-inf")
        super().__init__(_worker_main, spec, shard_id, num_shards,
                         name=f"shard {shard_id}: worker")

    def _died(self) -> WorkerDied:
        # Every pipe failure, on send or recv, names the shard.
        return WorkerDied(self.shard_id, super()._died().exitcode)

    def _recv(self, want: str):
        try:
            msg = self.recv(proc.REPLY_TIMEOUT_S)
        except proc.WorkerHung:
            raise WorkerHung(
                self.shard_id, self.last_window,
                f"awaiting {want!r} after {proc.REPLY_TIMEOUT_S:g}s") \
                from None
        except proc.WorkerError as exc:
            raise ClusterError(
                f"shard {self.shard_id} crashed:\n{exc.text}") from None
        if msg[0] != want:
            raise ClusterError(
                f"shard {self.shard_id}: expected {want!r}, got {msg[0]!r}")
        return msg[1:]

    def start(self) -> float:
        return self._recv("ready")[0]

    def send_step(self, until: float, msgs: List[TrunkMsg]) -> None:
        self._sent_window = until
        self.send(("step", until, msgs))

    def recv_state(self):
        state = self._recv("state")
        self.last_window = self._sent_window
        return state

    def send_finish(self) -> None:
        self.send(("finish",))

    def recv_result(self) -> dict:
        return self._recv("result")[0]


class ClusterRunner:
    """Partition, spawn, synchronize, merge."""

    def __init__(self, spec: ClusterSpec, num_workers: int,
                 processes: bool = False):
        self.spec = spec
        self.num_workers = num_workers
        self.processes = processes
        #: Live worker handles while :meth:`run` executes (the serve
        #: supervisor's signal tests and operators introspect pids here).
        self.handles: List = []
        bp = spec.blueprint()
        self.partition = partition_blueprint(bp, num_workers)
        self.lookahead = lookahead(bp, self.partition)
        self._bp = bp

    def run(self) -> ClusterResult:
        handle = _ProcessHandle if self.processes else _InProcessHandle
        self.handles = handles = []
        try:
            for i in range(self.num_workers):
                handles.append(handle(self.spec, i, self.num_workers))
            result = self._drive(handles)
        except BaseException:
            for h in handles:
                h.kill()
            raise
        # A worker that needed killing after a *clean* run is a wedged
        # shard: fail loudly rather than silently reap it.
        escalated = [h for h in handles if h.close()]
        if escalated:
            h = escalated[0]
            raise WorkerHung(h.shard_id, h.last_window,
                             "at shutdown; terminate/kill needed")
        return result

    def _shard_of_trunk_side(self, trunk: int, to_b: bool) -> int:
        a, _pa, b, _pb, _prop = self._bp.trunks[trunk]
        return self.partition.switch_shard[b if to_b else a]

    def _drive(self, handles) -> ClusterResult:
        spec = self.spec
        horizon = spec.horizon
        la = self.lookahead
        next_times = [h.start() for h in handles]
        t0 = time.perf_counter()   # exclude worker construction, as
        # run_single's wall clock excludes the oracle's build
        pending: Dict[int, List[TrunkMsg]] = {i: [] for i in
                                              range(len(handles))}
        barriers = 0
        trunk_msgs = 0
        while True:
            h_eff = min(
                min(next_times),
                min((m.deliver_at for msgs in pending.values()
                     for m in msgs), default=float("inf")))
            window_end = horizon if h_eff == float("inf") \
                else min(horizon, la + h_eff)
            for i, handle in enumerate(handles):
                handle.send_step(window_end, pending[i])
                pending[i] = []
            for i, handle in enumerate(handles):
                next_times[i], out = handle.recv_state()
                for msg in out:
                    dest = self._shard_of_trunk_side(msg.trunk, msg.to_b)
                    pending[dest].append(msg)
                    trunk_msgs += 1
            barriers += 1
            if window_end >= horizon:
                # Messages from the final window deliver after the
                # horizon (deliver_at > T' = horizon) — out of scope.
                break
        for handle in handles:
            handle.send_finish()
        results = [handle.recv_result() for handle in handles]
        wall = time.perf_counter() - t0
        merged = _merge_results(spec, results, self.num_workers)
        merged.barriers = barriers
        merged.trunk_msgs = trunk_msgs
        merged.wall_s = wall
        return merged


def _merge_results(spec: ClusterSpec, results: List[dict],
                   num_workers: int) -> ClusterResult:
    flows: Dict[int, dict] = {}
    for res in results:
        for fid, record in res["flows"].items():
            flows.setdefault(fid, {}).update(record)
    wire: Dict[str, list] = {}
    for res in results:
        wire.update(res["wire"])
    dumps = [res["metrics"] for res in results if res["metrics"] is not None]
    metrics = merge_metrics_dumps(dumps).dump() if dumps else None
    fault_counts: Dict[str, Dict[str, int]] = {}
    for res in results:
        # Each injection point lives in exactly one shard (the transmit
        # owner), so this union never collides.
        fault_counts.update(res.get("fault_counts", {}))
    return ClusterResult(
        spec=spec, num_workers=num_workers, flows=flows, wire=wire,
        metrics=metrics,
        events=sum(res["events"] for res in results),
        now=max(res["now"] for res in results),
        per_worker_events=[res["events"] for res in results],
        fault_counts=fault_counts)


def run_single(spec: ClusterSpec) -> ClusterResult:
    """The oracle: the whole fabric in one kernel, stock run loop."""
    with reclaim_world():
        return _run_single(spec)


def _run_single(spec: ClusterSpec) -> ClusterResult:
    worker = ShardWorker(spec, 0, 1)
    t0 = time.perf_counter()
    worker.run_to(spec.horizon)
    wall = time.perf_counter() - t0
    result = _merge_results(spec, [worker.finish()], 1)
    result.wall_s = wall
    return result


def run_cluster(spec: ClusterSpec, num_workers: int,
                processes: bool = False) -> ClusterResult:
    with reclaim_world():
        if num_workers == 1 and not processes:
            return _run_single(spec)
        return ClusterRunner(spec, num_workers, processes=processes).run()


def assert_equivalent(oracle: ClusterResult, sharded: ClusterResult) -> None:
    """Bit-for-bit equivalence of the observables the paper cares about:
    CQE streams, wire traces (bytes *and* timestamps), merged metrics.

    Raises :class:`ClusterError` naming the first divergence.
    """
    if set(oracle.flows) != set(sharded.flows):
        raise ClusterError(f"flow sets differ: {sorted(oracle.flows)} "
                           f"vs {sorted(sharded.flows)}")
    for fid in sorted(oracle.flows):
        a, b = oracle.flows[fid], sharded.flows[fid]
        if set(a) != set(b):
            raise ClusterError(f"flow {fid}: record keys differ: "
                               f"{sorted(a)} vs {sorted(b)}")
        for key in sorted(a):
            if a[key] != b[key]:
                raise ClusterError(
                    f"flow {fid}: {key} diverges:\n  oracle : "
                    f"{a[key]!r}\n  sharded: {b[key]!r}")
    if set(oracle.wire) != set(sharded.wire):
        raise ClusterError("wiretapped host sets differ")
    for host in sorted(oracle.wire):
        ta, tb = oracle.wire[host], sharded.wire[host]
        if len(ta) != len(tb):
            raise ClusterError(f"wire trace {host}: {len(ta)} vs "
                               f"{len(tb)} records")
        for i, (ra, rb) in enumerate(zip(ta, tb)):
            if ra != rb:
                raise ClusterError(
                    f"wire trace {host}[{i}] diverges:\n  oracle : "
                    f"{ra!r}\n  sharded: {rb!r}")
    if (oracle.metrics is None) != (sharded.metrics is None):
        raise ClusterError("metrics present in one run only")
    if oracle.metrics is not None:
        norm_a = _normalize_metrics(oracle.metrics)
        norm_b = _normalize_metrics(sharded.metrics)
        if set(norm_a) != set(norm_b):
            only_a = set(norm_a) - set(norm_b)
            only_b = set(norm_b) - set(norm_a)
            raise ClusterError(f"metric names differ: only-oracle="
                               f"{sorted(only_a)} only-sharded="
                               f"{sorted(only_b)}")
        for name in sorted(norm_a):
            if norm_a[name] != norm_b[name]:
                raise ClusterError(
                    f"metric {name} diverges:\n  oracle : "
                    f"{norm_a[name]!r}\n  sharded: {norm_b[name]!r}")
    if oracle.fault_counts != sharded.fault_counts:
        raise ClusterError(
            f"fault counts diverge:\n  oracle : {oracle.fault_counts!r}\n"
            f"  sharded: {sharded.fault_counts!r}")
    if oracle.now != sharded.now:
        raise ClusterError(f"final times differ: {oracle.now} vs "
                           f"{sharded.now}")


def _normalize_metrics(dump: Dict[str, dict]) -> Dict[str, object]:
    """Shard-order-independent view: histogram samples as sorted lists,
    gauges by extremes (a global last-write does not survive sharding)."""
    out: Dict[str, object] = {}
    for name, entry in dump.items():
        kind = entry["type"]
        if kind == "counter":
            out[name] = ("counter", entry["value"])
        elif kind == "gauge":
            out[name] = ("gauge", entry["min"], entry["max"])
        else:
            out[name] = ("histogram", sorted(entry["samples"]))
    return out
