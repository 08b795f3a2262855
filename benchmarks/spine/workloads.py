"""The eight fixed-work workloads of the spine benchmark.

Each workload is a small object with the same life cycle::

    wl = WORKLOADS[name](seed, quick)
    wl.setup()          # build the testbed / spec / server   -> setup_s
    wl.run()            # the fixed simulated work            -> wall_s
    outcome = wl.check()  # correctness against a model or oracle
    wl.teardown()

``inproc()`` is what the traced run profiles: the same work with every
Python frame in this process.  For six workloads that is ``run`` itself;
``cluster_sharded`` swaps forked workers for in-process handles and
``serve_jobs`` runs one job's scenario without the server, because a
profiler cannot follow a fork from outside.

Only public entry points and public result objects of ``repro`` are
used; the one private read is ``Simulator._events_processed`` (in
``census_counts``), which ``repro perf`` already reads.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Optional

from repro.apps.kvstore import KvClient, KvServer
from repro.apps.pingpong import qpip_tcp_rtt
from repro.apps.ttcp import qpip_ttcp
from repro.bench import paper
from repro.bench.configs import build_qpip_pair
from repro.cluster import (ClusterError, PortalLink, assert_equivalent,
                           run_cluster, run_single)
from repro.cluster.bench import scaling_spec
from repro.collectives.group import CollectiveWorkSpec
from repro.collectives.job import CollectiveJob
from repro.core import CompletionQueue, QueuePair
from repro.errors import ReproError
from repro.fabric import Link, MyrinetSwitch
from repro.faults import FaultInjector, FaultPlan, run_chaos
from repro.gate.spec import ScenarioSpec, WorkloadSpec
from repro.hw import Host, ProgrammableNic, lanai_fw_checksum
from repro.net.tcp import TcpConnection
from repro.recovery import RecoveryManager
from repro.serve import ReproServer, ServeClient, ServeConfig, exec_scenario
from repro.sim import Simulator

from report import percentile

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_out")

#: Classes whose instances the traced run counts (see ``layers.census``).
CENSUS_CLASSES = (Simulator, ProgrammableNic, Host, TcpConnection, QueuePair,
                  CompletionQueue, Link, PortalLink, MyrinetSwitch,
                  RecoveryManager, FaultInjector)


@dataclasses.dataclass
class Outcome:
    """What one run did, after checking it."""

    attempted: int
    failed: int
    sim_time_us: Optional[float] = None   # simulated us of the fixed work
    timelines: int = 1                    # independent simulations summed in it
    headline: Optional[float] = None      # simulated result the paper reports
    notes: List[str] = dataclasses.field(default_factory=list)
    facts: Dict[str, float] = dataclasses.field(default_factory=dict)
    job_latencies_s: List[float] = dataclasses.field(default_factory=list)


class Workload:
    name = ""
    why = ""
    #: ``(reference value, unit)`` from ``repro.bench.paper`` or None.
    paper_ref = None
    #: Said next to the per-layer numbers when ``inproc`` is not ``run``.
    trace_note = ""
    #: Per-layer name under which a forked workload repeats its ``cpu_s``.
    cpu_fact = ""

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def inproc_setup(self) -> None:
        self.setup()

    def inproc(self) -> None:
        self.run()

    def check(self, deep: bool = False) -> Outcome:
        """``deep`` adds the oracles that are too slow for every timed run."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def failed_run(self, exc: BaseException) -> Outcome:
        """A run that raises fails every operation it would have made."""
        return Outcome(self.ops, self.ops,
                       notes=[f"run raised {type(exc).__name__}: {exc}"])


class _PairWorkload(Workload):
    """Two QPIP hosts on one Myrinet switch."""

    nic_timing: Callable = staticmethod(lambda: None)

    def setup(self) -> None:
        self.sim = Simulator()
        self.a, self.b, _fabric = build_qpip_pair(
            self.sim, mtu=16384, nic_timing=self.nic_timing())



class TtcpBulk(_PairWorkload):
    name = "ttcp_bulk"
    why = ("Paper Fig 4: pipelined 16 KiB sends at queue depth 8, where "
           "burst walks, segment batching, codecs and CQE coalescing work")
    paper_ref = paper.FIG4_THROUGHPUT["QPIP"]
    chunk = 16384

    def setup(self) -> None:
        super().setup()
        self.total = (2 if self.quick else 128) << 20
        self.ops = self.total // self.chunk

    def run(self) -> None:
        self.result = qpip_ttcp(self.sim, self.a, self.b,
                                total_bytes=self.total, chunk=self.chunk,
                                queue_depth=8)

    def check(self, deep: bool = False) -> Outcome:
        out = Outcome(self.ops, 0, sim_time_us=self.result.elapsed_us,
                      headline=self.result.mb_per_sec)
        received = sum(ep.conn.stats.bytes_in
                       for ep in self.b.firmware.endpoints.values())
        retransmits = sum(ep.conn.stats.retransmitted_segs
                          for ep in self.a.firmware.endpoints.values())
        if received != self.total:
            out.failed = self.ops
            out.notes.append(f"receiver got {received} of {self.total} bytes")
        if retransmits:
            out.failed = self.ops
            out.notes.append(f"{retransmits} retransmits on a clean fabric")
        return out


class Pingpong1b(_PairWorkload):
    name = "pingpong_1b"
    why = ("Paper Fig 3: one 1-byte message in flight, so batching has "
           "nothing to batch and the event kernel dominates; a burst-only "
           "gain must not move it")
    paper_ref = paper.FIG3_RTT[("QPIP", "tcp")]
    nic_timing = staticmethod(lanai_fw_checksum)

    def setup(self) -> None:
        super().setup()
        self.ops = 100 if self.quick else 3000

    def run(self) -> None:
        self.result = qpip_tcp_rtt(self.sim, self.a, self.b,
                                   iterations=self.ops, msg_size=1)

    def check(self, deep: bool = False) -> Outcome:
        rtts = self.result.rtts
        out = Outcome(self.ops, 0, sim_time_us=sum(rtts),
                      headline=self.result.mean)
        good = sum(1 for r in rtts if r > 0)
        if good != self.ops:
            out.failed = self.ops - min(good, self.ops)
            out.notes.append(f"{good} valid RTT samples of {self.ops}")
        return out


class KvstoreMixed(_PairWorkload):
    name = "kvstore_mixed"
    why = ("The same verbs/firmware layers used three ways (two-sided PUT, "
           "two-sided GET, one-sided RDMA READ through mem translation), so "
           "a gain for one op that costs another shows")
    keys = 64

    def __init__(self, seed: int, quick: bool = False,
                 model: Callable[[], dict] = dict):
        super().__init__(seed, quick)
        self.model = model()      # the self-test swaps in a wrong model

    def setup(self) -> None:
        super().setup()
        self.ops = 120 if self.quick else 4000
        rng = random.Random(self.seed)
        self.script = []
        for _ in range(self.ops):
            key = b"key-%d" % rng.randrange(self.keys)
            draw = rng.random()
            if draw < 0.4:
                value = rng.randbytes(rng.randint(32, 200))
                self.script.append(("put", key, value))
            else:
                self.script.append(("get" if draw < 0.8 else "get_rdma",
                                    key, None))
        self.server = KvServer(self.b, slot_count=256, slot_size=256)
        self.client = KvClient(self.a, self.b.addr)
        self.wrong = 0
        self.t_start = self.t_end = 0.0

    def _body(self):
        sim, client, model = self.sim, self.client, self.model
        info = yield self.server.ready
        yield sim.timeout(500)
        yield from client.connect(info)
        self.t_start = sim.now
        for op, key, value in self.script:
            if op == "put":
                yield from client.put(key, value)
                model[key] = value
            else:
                got = yield from getattr(client, op)(key)
                if got != model.get(key):
                    self.wrong += 1
        self.t_end = sim.now
        yield from client.disconnect()

    def run(self) -> None:
        sim = self.sim
        sim.process(self.server.run())
        proc = sim.process(self._body())
        sim.run(until=sim.now + 600_000_000)
        if not proc.triggered:
            raise RuntimeError("kvstore client did not finish")
        if not proc.ok:
            raise proc.value

    def check(self, deep: bool = False) -> Outcome:
        out = Outcome(self.ops, self.wrong,
                      sim_time_us=self.t_end - self.t_start)
        if self.wrong:
            out.notes.append(f"{self.wrong} reads differ from the dict model")
        return out


def _carries_message(msg_size: int) -> Callable:
    """Fault only packets that carry a whole application message.

    Control frames of the recovery layer (HELLO, ACK, PING) and bare TCP
    segments stay clean: losing a HELLO leaves the session idle until a
    heartbeat happens to be lost too (50-500 simulated seconds, see the
    README), which would time the seed rather than the program.
    """
    return lambda pkt: pkt.payload.length >= msg_size


class ChaosRecover(Workload):
    name = "chaos_recover"
    why = ("The share of traffic that leaves the fast path: retransmit, "
           "reassembly, recovery replay, QP teardown and re-establish, with "
           "real payload bytes checksummed")
    messages = 64
    msg_size = 4096

    def setup(self) -> None:
        self.runs = 4 if self.quick else 48
        self.ops = self.runs * self.messages
        self.results = []

    def _plan(self) -> FaultPlan:
        match = _carries_message(self.msg_size)
        return (FaultPlan()
                .drop(0.02, match=match)
                .reorder(0.01, delay=200.0, match=match)
                .duplicate(0.01, match=match))

    def run(self) -> None:
        for i in range(self.runs):
            self.results.append(run_chaos(
                seed=self.seed * 1000 + i, workload="ttcp",
                plan=self._plan(), messages=self.messages,
                msg_size=self.msg_size, recover=True, restarts=2))

    def check(self, deep: bool = False) -> Outcome:
        out = Outcome(self.ops, 0, timelines=self.runs,
                      sim_time_us=sum(r.elapsed_us for r in self.results))
        for r in self.results:
            if not r.ok:
                out.failed += self.messages
                out.notes.append(f"seed {r.seed}: {'; '.join(r.violations())}")
        return out


class _Allreduce64(Workload):
    engine = ""
    vector_len = 256

    def setup(self) -> None:
        self.ops = self.hosts = 8 if self.quick else 64
        self.job = self._job(self.engine)

    def _job(self, engine: str) -> CollectiveJob:
        work = CollectiveWorkSpec(algo="allreduce", engine=engine,
                                  vector_len=self.vector_len, seed=self.seed)
        return CollectiveJob(work, hosts=self.hosts, horizon=20_000_000.0,
                             seed=self.seed)

    def run(self) -> None:
        self.summary = self.job.run()

    def check(self, deep: bool = False) -> Outcome:
        s = self.summary
        out = Outcome(self.ops, 0, sim_time_us=s["max_wall_time_us"],
                      facts={"collectives.steps_per_rank":
                             max(s["steps_per_rank"]),
                             "collectives.bytes_sent": s["total_bytes_sent"]})
        for flag in ("status_ok", "ranks_agree", "oracle_match"):
            if not s[flag]:
                out.failed = self.ops
                out.notes.append(f"{flag} is false")
        if deep:
            other = self._job("nic" if self.engine == "host" else "host").run()
            if other["result_digest"] != s["result_digest"]:
                out.failed = self.ops
                out.notes.append("host and nic engines disagree")
            lat = {self.engine: s["max_wall_time_us"],
                   other["engine"]: other["max_wall_time_us"]}
            out.facts["collectives.nic_speedup_sim"] = lat["host"] / lat["nic"]
        return out


class AllreduceHost64(_Allreduce64):
    name = "allreduce_host_64"
    engine = "host"
    why = ("64 connections, fabric/switch contention and a full verbs round "
           "trip (post, doorbell, CQE, wakeup) per schedule step")


class AllreduceNic64(_Allreduce64):
    name = "allreduce_nic_64"
    engine = "nic"
    why = ("Identical wire bytes with the per-step verbs/CQ/wakeup path "
           "bypassed: a verbs/CQ/apps gain should leave this flat; "
           "net.tcp and codecs dominate")


class ClusterSharded(Workload):
    name = "cluster_sharded"
    why = ("The only workload where cluster sync/pickle/pipe is the "
           "bottleneck: 32 hosts, 16 ttcp flows on 2 forked workers "
           "(ROADMAP: sharding must pay or shrink)")
    trace_note = ("traced with processes=False: same sync protocol, "
                  "in-process handles")
    cpu_fact = "cluster.cpu_s"

    def setup(self) -> None:
        # Flow placement stays the recorded one (scaling_spec's own seed):
        # it decides how many barriers a run takes, and a seed-dependent
        # barrier count (4906-8612 over eight seeds) would time the seed.
        spec = scaling_spec(total_bytes=(64 << 10) if self.quick else (1 << 20))
        self.spec = dataclasses.replace(spec, seed=self.seed)
        self.ops = len(self.spec.flows)

    def run(self) -> None:
        self.result = run_cluster(self.spec, 2, processes=True)

    def inproc(self) -> None:
        self.result = run_cluster(self.spec, 2, processes=False)

    def check(self, deep: bool = False) -> Outcome:
        r = self.result
        t0 = time.perf_counter()
        oracle = run_single(self.spec)
        single_wall = time.perf_counter() - t0
        events = r.per_worker_events
        out = Outcome(
            self.ops, 0,
            sim_time_us=max(rec["rx_done"] for rec in r.flows.values()),
            facts={"cluster.barriers": r.barriers,
                   "cluster.trunk_msgs": r.trunk_msgs,
                   "cluster.worker_event_imbalance":
                   max(events) / (sum(events) / len(events)),
                   "cluster.single_wall_s": single_wall,
                   "cluster.sharded_over_single_x": r.wall_s / single_wall,
                   "cluster.wall_us_per_barrier": r.wall_s * 1e6 / r.barriers})
        try:
            assert_equivalent(oracle, r)
        except ClusterError as exc:
            out.failed = self.ops
            out.notes.append(f"sharded run diverges from the oracle: {exc}")
        return out


def _p50(values: List[float]) -> float:
    return percentile(values, 50)


class ServeJobs(Workload):
    name = "serve_jobs"
    why = ("The served path HTTP submit -> admission -> fork -> run -> "
           "journal fsync -> response; closed loop with 1 client, because "
           "one caller waiting for a reply is the repeatable case on 2 cores")
    trace_note = ("layers from one in-process exec_scenario of the job; "
                  "serve.* from the served jobs' own timestamps")
    cpu_fact = "serve.cpu_s"
    poll_s = 0.005

    server = None

    def inproc_setup(self) -> None:
        self.ops = 4 if self.quick else 60
        self.spec = ScenarioSpec(
            name="serve_bench", hosts=8, seed=7,
            workload=WorkloadSpec(count=2, total_bytes=131072, chunk=8192),
            workers=(1,), timeout_s=60.0).to_dict()

    def setup(self) -> None:
        self.inproc_setup()
        os.makedirs(OUT_DIR, exist_ok=True)
        self.data_dir = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
        self.server = ReproServer(ServeConfig(
            data_dir=self.data_dir, pool_size=1)).start()
        self.client = ServeClient(self.server.url)
        self.client.wait_ready()
        self.jobs: List[dict] = []
        self.submit_ms: List[float] = []
        self._serve(2, "warm")
        self.jobs.clear()
        self.submit_ms.clear()

    def _serve(self, count: int, tag: str) -> None:
        """Closed loop, one client: submit, poll until terminal, repeat."""
        for i in range(count):
            t0 = time.perf_counter()
            status, data, _ = self.client.submit(
                self.spec, key=f"spine-{self.seed}-{os.getpid()}-{tag}-{i}",
                client="spine")
            self.submit_ms.append((time.perf_counter() - t0) * 1e3)
            if status != 202:
                raise ReproError(f"submit {tag}-{i} got HTTP {status}: {data}")
            self.jobs.append(self.client.wait(data["job"]["id"],
                                              poll_s=self.poll_s))

    def run(self) -> None:
        self._serve(self.ops, "job")

    def inproc(self) -> None:
        self.bundle = exec_scenario(self.spec)

    def check(self, deep: bool = False) -> Outcome:
        if not self.jobs:           # traced run: inproc() ran, not run()
            self.run()
        journal = os.path.getsize(os.path.join(self.data_dir,
                                               "journal.jsonl"))
        t0 = time.perf_counter()
        self.inproc()
        exec_s = time.perf_counter() - t0
        jobs = self.jobs
        bad = [j["id"] for j in jobs
               if j["state"] != "done" or j["result"] != self.bundle]
        latency = [j["finished_at"] - j["submitted_at"] for j in jobs]
        out = Outcome(self.ops, len(bad), job_latencies_s=latency, facts={
            "serve.submit_ms_p50": _p50(self.submit_ms),
            "serve.queue_s_p50": _p50([j["started_at"] - j["submitted_at"]
                                       for j in jobs]),
            "serve.run_s_p50": _p50([j["finished_at"] - j["started_at"]
                                     for j in jobs]),
            "serve.exec_inproc_s": exec_s,
            "serve.overhead_s_p50": _p50(latency) - exec_s,
            "serve.attempts_per_job": sum(j["attempts"] for j in jobs)
            / len(jobs),
            # The journal also holds the two warm-up jobs.
            "serve.journal_bytes_per_job": journal / (len(jobs) + 2)})
        if bad:
            out.notes.append(f"jobs not done or off the in-process bundle: "
                             f"{bad[:5]}")
        return out

    def teardown(self) -> None:
        if self.server is not None:
            self.server.drain_and_stop(10.0)
            shutil.rmtree(self.data_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (
    TtcpBulk, Pingpong1b, KvstoreMixed, ChaosRecover, AllreduceHost64,
    AllreduceNic64, ClusterSharded, ServeJobs)}


# -- exact counts from the census --------------------------------------------


def census_counts(seen: Dict[type, list], sim_time_us: Optional[float],
                  timelines: int) -> Dict[str, float]:
    """Sum the layers' own public counters over every instance built."""
    sims = seen[Simulator]
    conns = [c.stats for c in seen[TcpConnection]]
    nics = seen[ProgrammableNic]
    hosts = seen[Host]
    directions = [link.direction_from(att)
                  for link in seen[Link] for att in (link.a, link.b)]
    directions += [link.direction_from(link.a) for link in seen[PortalLink]]
    recovery = [m.report() for m in seen[RecoveryManager]]
    classified = sum(s.slowpath + s.fastpath_data + s.fastpath_ack
                     for s in conns)
    counts = {
        "sim.events": sum(s._events_processed for s in sims),
        "net.tcp.segs_out": sum(s.segs_out for s in conns),
        "net.tcp.retransmits": sum(s.retransmitted_segs for s in conns),
        "net.tcp.rto_timeouts": sum(s.rto_timeouts for s in conns),
        "net.tcp.slowpath_share": (sum(s.slowpath for s in conns) / classified
                                   if classified else 0.0),
        "core.wrs_posted": sum(q.sends_posted + q.recvs_posted
                               for q in seen[QueuePair]),
        "core.cqes": sum(c.total_completions for c in seen[CompletionQueue]),
        "hw.doorbells": sum(n.doorbells_rung for n in nics),
        "fabric.pkts": sum(d.packets_sent for d in directions),
        "fabric.bytes": sum(d.bytes_sent for d in directions),
        "fabric.switch_fwd": sum(s.forwarded for s in seen[MyrinetSwitch]),
        "recovery.heals": sum(r.get("heals", 0) for r in recovery),
        "recovery.connect_attempts": sum(r.get("attempts", 0)
                                         for r in recovery),
        "recovery.replayed_wrs": sum(r.get("replayed_wrs", 0)
                                     for r in recovery),
        "faults.fired": sum(i.drops + i.duplicates + i.delays + i.corruptions
                            for i in seen[FaultInjector]),
    }
    # Simulated occupancy over the fixed work: busy time per device over
    # the work's simulated duration (sim.run(until=...) fast-forwards the
    # clock, so utilization() since boot would read ~0).
    if sim_time_us:
        span = sim_time_us / timelines
        counts["hw.nic_busy_frac"] = (
            sum(n.processor.busy_time for n in nics) / (len(nics) * span)
            if nics else 0.0)
        counts["hw.host_cpu_busy_frac"] = (
            sum(h.cpu.busy_time for h in hosts) / (len(hosts) * span)
            if hosts else 0.0)
    return counts
