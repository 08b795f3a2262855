"""One shard of a partitioned fabric: local switches, hosts, portals.

A :class:`ShardWorker` rebuilds *its* slice of the blueprint inside a
private :class:`~repro.sim.Simulator`.  Trunks whose far switch lives in
another shard are replaced by a :class:`PortalLink`: the transmit side
runs the normal link serialization (same busy-until FIFO, hooks, stats,
observability — byte-for-byte the code path of a real
:class:`~repro.fabric.link.Link` direction), but instead of scheduling
the delivery callback it appends a :class:`TrunkMsg` to the shard's
outbox.  The coordinator carries the message to the destination shard,
which injects it at the exact ``deliver_at`` the single-process run
would have used (see :meth:`repro.sim.Simulator.inject` for how the
tie-break is preserved).

Construction order is the determinism backbone: every shard iterates the
*global* blueprint and flow list, instantiating only local pieces — so
each kernel sees the same relative creation order (host index order,
then flow order, server before client) as the oracle, which pins the
t=0 bootstrap ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..collectives.group import COLLECTIVE_FLOW_BASE
from ..collectives.schedule import peer_pairs
from ..collectives.runner import collective_rank_driver
from ..core import QpipFirmware, QpipInterface
from ..errors import ConfigError, ReproError
from ..fabric.link import Link, _Direction
from ..fabric.switch import MyrinetSwitch
from ..faults.inject import FaultInjector
from ..hw import Host, ProgrammableNic
from ..net.addresses import IPv6Address
from ..net.packet import Packet
from ..obs.trace import TraceRecorder
from ..sim import RngHub, Simulator
from ..tools.wiretap import Wiretap
from .partition import Partition, partition_blueprint
from .spec import ClusterSpec
from .workloads import CLIENT_DRIVERS, SERVER_DRIVERS


class ClusterError(ReproError):
    """A shard failed, a flow did not finish, or the sync protocol was
    violated; carries the offending shard id when known."""


@dataclass
class TrunkMsg:
    """A packet in flight across a cut trunk (picklable)."""

    trunk: int          # index into blueprint.trunks
    to_b: bool          # True: deliver at side b's switch port
    t_send: float       # when the transmit scheduled the delivery
    deliver_at: float   # exact simulated delivery timestamp
    pkt: Packet

    def sort_key(self) -> Tuple[float, int, bool]:
        return (self.t_send, self.trunk, self.to_b)


class _PortalPeer:
    """Stands in for the remote cut-through switch port on a cut trunk:
    just enough attachment surface for ``_Direction.transmit``."""

    __slots__ = ("name",)
    rx_mode = "cut_through"

    def __init__(self, name: str):
        self.name = name

    def on_receive(self, pkt, at):  # pragma: no cover - never scheduled
        raise ClusterError(f"{self.name}: portal peer cannot receive")


class PortalDirection(_Direction):
    """A link direction whose deliveries leave the process."""

    def __init__(self, sim: Simulator, bandwidth: float, propagation: float,
                 name: str, outbox: List[TrunkMsg], trunk: int, to_b: bool):
        super().__init__(sim, bandwidth, propagation,
                         _PortalPeer(f"{name}~peer"), name)
        self._outbox = outbox
        self._trunk = trunk
        self._to_b = to_b

    def _schedule_delivery(self, pkt: Packet, deliver_at: float,
                           copies: int) -> None:
        now = self.sim.now
        self._outbox.append(
            TrunkMsg(self._trunk, self._to_b, now, deliver_at, pkt))
        for _ in range(copies):
            self._outbox.append(TrunkMsg(self._trunk, self._to_b, now,
                                         deliver_at, pkt.copy_shallow()))


class PortalLink:
    """The local half of a cut trunk; mimics the Link surface the switch
    port needs (transmit / direction_from)."""

    def __init__(self, sim: Simulator, local, bandwidth: float,
                 propagation: float, name: str, direction_name: str,
                 outbox: List[TrunkMsg], trunk: int, to_b: bool):
        self.sim = sim
        self.name = name
        self.a = local
        self._dir = PortalDirection(sim, bandwidth, propagation,
                                    direction_name, outbox, trunk, to_b)
        local.link = self

    def transmit(self, pkt: Packet, src) -> None:
        self._dir.transmit(pkt)

    def direction_from(self, src) -> PortalDirection:
        return self._dir


@dataclass
class ShardNode:
    """A QPIP host living in this shard."""

    index: int
    host: Host
    nic: ProgrammableNic
    firmware: QpipFirmware
    iface: QpipInterface
    addr: IPv6Address
    name: str


class ShardWorker:
    """Builds and advances one shard (``num_shards == 1`` is the oracle)."""

    def __init__(self, spec: ClusterSpec, shard_id: int, num_shards: int):
        self.spec = spec
        self.shard_id = shard_id
        self.bp = spec.blueprint()
        self.part: Partition = partition_blueprint(self.bp, num_shards)
        self.sim = Simulator()
        self.outbox: List[TrunkMsg] = []
        self.recorder: Optional[TraceRecorder] = None
        if spec.metrics:
            self.recorder = TraceRecorder(self.sim, capacity=1_000_000)
        self.switches: Dict[int, MyrinetSwitch] = {}
        self.nodes: Dict[int, ShardNode] = {}
        self.results: Dict[int, dict] = {}
        self.taps: Dict[str, Wiretap] = {}
        self._flow_procs: List[Tuple[int, str, object]] = []
        # (trunk index, to_b) -> local switch-port attachment to inject at
        self._trunk_rx: Dict[Tuple[int, bool], object] = {}
        # trunk index -> locally-owned transmit directions by "a2b"/"b2a"
        self._trunk_dirs: Dict[int, Dict[str, _Direction]] = {}
        self.injectors: Dict[str, FaultInjector] = {}
        self._last_until = 0.0
        prev = obs.RECORDER
        obs.RECORDER = self.recorder
        try:
            self._build()
        finally:
            obs.RECORDER = prev

    # -- construction ----------------------------------------------------

    def _local_switch(self, sid: int) -> bool:
        return self.part.switch_shard[sid] == self.shard_id

    def _build(self) -> None:
        bp, sim = self.bp, self.sim
        for sid, num_ports in enumerate(bp.switch_ports):
            if self._local_switch(sid):
                self.switches[sid] = MyrinetSwitch(
                    sim, num_ports, name=f"myr-sw{sid}",
                    latency=bp.switch_latency)
        for idx, (a, pa, b, pb, prop) in enumerate(bp.trunks):
            name = f"trunk{a}.{pa}-{b}.{pb}"
            local_a, local_b = self._local_switch(a), self._local_switch(b)
            if local_a and local_b:
                link = Link(sim, self.switches[a].port(pa),
                            self.switches[b].port(pb),
                            bp.bandwidth, prop, name=name)
                self._trunk_dirs[idx] = {
                    "a2b": link.direction_from(link.a),
                    "b2a": link.direction_from(link.b)}
            elif local_a:
                port = self.switches[a].port(pa)
                pl = PortalLink(sim, port, bp.bandwidth, prop, name,
                                f"{name}:a->b", self.outbox, idx, to_b=True)
                self._trunk_rx[(idx, False)] = port
                self._trunk_dirs[idx] = {"a2b": pl.direction_from(port)}
            elif local_b:
                port = self.switches[b].port(pb)
                pl = PortalLink(sim, port, bp.bandwidth, prop, name,
                                f"{name}:b->a", self.outbox, idx, to_b=False)
                self._trunk_rx[(idx, True)] = port
                self._trunk_dirs[idx] = {"b2a": pl.direction_from(port)}
        # Hosts in global index order (bootstrap-order backbone).
        for i, (hname, sid, port) in enumerate(bp.hosts):
            if not self._local_switch(sid):
                continue
            host = Host(sim, f"qpip-host{i}")
            nic = ProgrammableNic(sim, host, mtu=self.spec.mtu, name="qpnic")
            addr = IPv6Address.from_index(i + 1)
            firmware = QpipFirmware(nic, addr, isn_seed=i)
            Link(sim, nic.attachment, self.switches[sid].port(port),
                 bp.bandwidth, bp.propagation, name=f"host-{hname}")
            iface = QpipInterface(firmware, host, process_name=f"app{i}")
            self.nodes[i] = ShardNode(i, host, nic, firmware, iface,
                                      addr, hname)
        # Routes (pure table writes, no events).
        if self.spec.collective is not None:
            for r_a, r_b in peer_pairs(self.spec.hosts,
                                       self.spec.collective.variant):
                a_name = self.bp.hosts[r_a][0]
                b_name = self.bp.hosts[r_b][0]
                if r_a in self.nodes:
                    self.nodes[r_a].firmware.add_route(
                        IPv6Address.from_index(r_b + 1),
                        source_route=bp.route(a_name, b_name))
                if r_b in self.nodes:
                    self.nodes[r_b].firmware.add_route(
                        IPv6Address.from_index(r_a + 1),
                        source_route=bp.route(b_name, a_name))
        for fs in self.spec.flows:
            src_name, _s, _p = self.bp.hosts[fs.src]
            dst_name, _d, _q = self.bp.hosts[fs.dst]
            if fs.src in self.nodes:
                self.nodes[fs.src].firmware.add_route(
                    IPv6Address.from_index(fs.dst + 1),
                    source_route=bp.route(src_name, dst_name))
            if fs.dst in self.nodes:
                self.nodes[fs.dst].firmware.add_route(
                    IPv6Address.from_index(fs.src + 1),
                    source_route=bp.route(dst_name, src_name))
        # Fault bindings: pure hook installs, no events.  Every shard
        # validates every binding (errors must not depend on the cut),
        # but only the shard owning the transmit side installs it.
        self._install_faults()
        # Wiretaps before flows spawn, so t=0 traffic is captured too.
        capture = set(self.spec.capture_hosts)
        for i, node in self.nodes.items():
            if node.name in capture:
                tap = Wiretap(sim)
                tap.attach_qpip_nic(node.nic)
                self.taps[node.name] = tap
        # Flow drivers in global flow order, server before client.
        for fs in self.spec.flows:
            record = self.results.setdefault(fs.flow_id, {})
            if fs.dst in self.nodes:
                gen = SERVER_DRIVERS[fs.kind](sim, self.nodes[fs.dst],
                                              fs, record)
                self._flow_procs.append((fs.flow_id, "server",
                                         sim.process(gen)))
            if fs.src in self.nodes:
                gen = CLIENT_DRIVERS[fs.kind](
                    sim, self.nodes[fs.src],
                    IPv6Address.from_index(fs.dst + 1), fs, record)
                self._flow_procs.append((fs.flow_id, "client",
                                         sim.process(gen)))
        # Collective ranks after the flows, in rank order.
        if self.spec.collective is not None:
            coll = self.spec.collective
            for rank in range(self.spec.hosts):
                if rank not in self.nodes:
                    continue
                fid = COLLECTIVE_FLOW_BASE + rank
                record = self.results.setdefault(fid, {})
                gen = collective_rank_driver(sim, self.nodes[rank], rank,
                                             self.spec.hosts, coll, record)
                self._flow_procs.append((fid, "collective",
                                         sim.process(gen)))

    def _install_faults(self) -> None:
        """Bind the spec's fault plans to their local link directions.

        Each binding gets an RNG stream named after its injection point
        (derived from the spec seed), so a given direction sees the same
        fault decisions for the same packet sequence whether the fabric
        runs in one kernel or sharded — the injector state lives wholly
        in the shard that owns the transmit side.
        """
        if not self.spec.faults:
            return
        hub = RngHub(self.spec.seed)
        host_index = {name: i for i, (name, _sid, _port)
                      in enumerate(self.bp.hosts)}
        for binding in self.spec.faults:
            kind, selector, direction = binding.target()
            if kind == "trunk":
                idx = int(selector)
                if idx >= len(self.bp.trunks):
                    raise ConfigError(
                        f"fault binding {binding.where!r}: trunk {idx} "
                        f"not in blueprint ({len(self.bp.trunks)} trunks)")
                target = self._trunk_dirs.get(idx, {}).get(direction)
            else:
                if selector not in host_index:
                    raise ConfigError(
                        f"fault binding {binding.where!r}: unknown host "
                        f"{selector!r}")
                node = self.nodes.get(host_index[selector])
                if node is None:
                    target = None
                else:
                    link = node.nic.attachment.link
                    src = node.nic.attachment if direction == "tx" \
                        else link.b
                    target = link.direction_from(src)
            if target is None:
                continue            # transmit side lives in another shard
            injector = FaultInjector(self.sim, binding.plan(),
                                     hub.stream(binding.rng_stream_name()))
            target.add_hook(injector)
            self.injectors[binding.where] = injector

    # -- the conservative window protocol --------------------------------

    def next_time(self) -> float:
        return self.sim.next_live_time()

    def step(self, until: float,
             incoming: List[TrunkMsg]) -> Tuple[float, List[TrunkMsg]]:
        """Inject this window's deliveries, run to ``until``, and report
        (next local event time, messages generated this window)."""
        prev = obs.RECORDER
        obs.RECORDER = self.recorder
        try:
            for msg in sorted(incoming, key=TrunkMsg.sort_key):
                target = self._trunk_rx.get((msg.trunk, msg.to_b))
                if target is None:
                    raise ClusterError(
                        f"shard {self.shard_id}: message for trunk "
                        f"{msg.trunk} (to_b={msg.to_b}) has no local port")
                self.sim.inject(msg.deliver_at, msg.t_send,
                                target.on_receive, msg.pkt, target)
            self.sim.run_window(until)
        finally:
            obs.RECORDER = prev
        # Drain in place: the portal directions hold a reference to this
        # exact list, so rebinding would orphan them.
        out = list(self.outbox)
        self.outbox.clear()
        self.sim.trim_window_log(until)
        self._last_until = until
        return self.sim.next_live_time(), out

    def run_to(self, until: float) -> None:
        """Oracle path: the stock ``run()`` loop, no windowing."""
        prev = obs.RECORDER
        obs.RECORDER = self.recorder
        try:
            self.sim.run(until=until)
        finally:
            obs.RECORDER = prev

    # -- results ---------------------------------------------------------

    def finish(self) -> dict:
        unfinished = [(fid, side) for fid, side, proc in self._flow_procs
                      if not proc.triggered]
        if unfinished:
            raise ClusterError(
                f"shard {self.shard_id}: flows did not finish by the "
                f"horizon ({self.spec.horizon}us): {unfinished}")
        for fid, side, proc in self._flow_procs:
            if not proc.ok:
                raise proc.value
        wire = {
            name: [(rec.time, rec.direction,
                    b"".join(h.encode() for h in rec.packet.headers)
                    + rec.packet.payload.to_bytes())
                   for rec in tap.records]
            for name, tap in self.taps.items()}
        return {
            "shard": self.shard_id,
            "flows": self.results,
            "wire": wire,
            "metrics": (self.recorder.metrics.dump()
                        if self.recorder is not None else None),
            "fault_counts": {where: inj.counts()
                             for where, inj in self.injectors.items()},
            "events": self.sim._events_processed,
            "now": self.sim.now,
        }
