"""Topology builders: wire hosts and switches, compute source routes.

``MyrinetFabric`` supports arbitrary switch graphs and computes
shortest-path source routes (one output-port byte per hop) with BFS —
the static IPv6→route table of the prototype is generated from this.
``EthernetFabric`` is the single-switch GigE baseline.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError, RouteError
from ..sim import Simulator
from ..units import gbit_per_sec
from .link import Attachment, Link
from .switch import EthernetSwitch, MyrinetSwitch

MYRINET_BANDWIDTH = gbit_per_sec(2.0)     # 2.0 Gb/s full duplex (paper §4.1)
GIGE_BANDWIDTH = gbit_per_sec(1.0)


@dataclass
class FabricNode:
    """A host attachment point in a fabric."""

    name: str
    attachment: Attachment
    switch_id: int
    switch_port: int


class MyrinetFabric:
    """Switched Myrinet: hosts hang off cut-through switches."""

    def __init__(self, sim: Simulator, bandwidth: float = MYRINET_BANDWIDTH,
                 propagation: float = 0.1, switch_latency: float = 0.3):
        self.sim = sim
        self.bandwidth = bandwidth
        self.propagation = propagation
        self.switch_latency = switch_latency
        self.switches: List[MyrinetSwitch] = []
        self.hosts: Dict[str, FabricNode] = {}
        # inter-switch wiring: (switch_a, port_a) <-> (switch_b, port_b)
        self._trunks: List[Tuple[int, int, int, int]] = []
        self._next_port: List[int] = []

    def add_switch(self, num_ports: int = 16) -> int:
        sid = len(self.switches)
        self.switches.append(MyrinetSwitch(
            self.sim, num_ports, name=f"myr-sw{sid}",
            latency=self.switch_latency))
        self._next_port.append(0)
        return sid

    def _alloc_port(self, sid: int) -> int:
        port = self._next_port[sid]
        if port >= len(self.switches[sid].ports):
            raise ConfigError(f"switch {sid} is out of ports")
        self._next_port[sid] = port + 1
        return port

    def connect_switches(self, a: int, b: int,
                         propagation: Optional[float] = None) -> None:
        pa = self._alloc_port(a)
        pb = self._alloc_port(b)
        Link(self.sim, self.switches[a].port(pa), self.switches[b].port(pb),
             self.bandwidth,
             self.propagation if propagation is None else propagation,
             name=f"trunk{a}.{pa}-{b}.{pb}")
        self._trunks.append((a, pa, b, pb))

    def attach_host(self, name: str, attachment: Attachment,
                    switch_id: int = 0) -> FabricNode:
        if name in self.hosts:
            raise ConfigError(f"duplicate host {name}")
        port = self._alloc_port(switch_id)
        Link(self.sim, attachment, self.switches[switch_id].port(port),
             self.bandwidth, self.propagation, name=f"host-{name}")
        node = FabricNode(name, attachment, switch_id, port)
        self.hosts[name] = node
        return node

    def source_route(self, src: str, dst: str) -> List[int]:
        """BFS shortest path: one egress-port byte per switch traversed."""
        if src not in self.hosts or dst not in self.hosts:
            raise RouteError(f"unknown host in route {src}->{dst}")
        src_node, dst_node = self.hosts[src], self.hosts[dst]
        if src == dst:
            raise RouteError("no route to self over the fabric")
        # Graph over switches via trunks.  Neighbor lists are sorted by
        # explicit (switch_id, out_port) so the BFS visit order — and
        # therefore which of several equal-cost routes wins — is pinned,
        # independent of trunk insertion order.
        adjacency: Dict[int, List[Tuple[int, int, int]]] = {}
        for a, pa, b, pb in self._trunks:
            adjacency.setdefault(a, []).append((b, pa, pb))
            adjacency.setdefault(b, []).append((a, pb, pa))
        for neighbors in adjacency.values():
            neighbors.sort()
        start, goal = src_node.switch_id, dst_node.switch_id
        # BFS for the egress-port sequence between switches.
        frontier = deque([(start, [])])
        seen = {start}
        path: Optional[List[int]] = None
        while frontier:
            sid, ports = frontier.popleft()
            if sid == goal:
                path = ports
                break
            for nxt, out_port, _in_port in adjacency.get(sid, []):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, ports + [out_port]))
        if path is None:
            raise RouteError(f"no switch path {src}->{dst}")
        return path + [dst_node.switch_port]

    def host_link(self, name: str) -> Link:
        return self.hosts[name].attachment.link


@dataclass
class FabricBlueprint:
    """Pure-data description of a Myrinet fabric: no :class:`Simulator`.

    A blueprint is partitioned into shards that each build only their
    own switches (:mod:`repro.cluster`).  For sharded and
    single-process builds to be bit-for-bit identical, port numbering
    is fixed *in the blueprint* using the same sequential allocator as
    :class:`MyrinetFabric`: trunks claim ports in list order first, then
    hosts in list order.
    Routes are likewise computed from the blueprint — never from a live
    fabric — with equal-cost ties pinned by a hash of the host pair.
    The host index, the switch graph and the per-goal distances are
    derived once and cached, so routing every pair of an ``N``-host
    world is not ``O(N²)``; a blueprint is not edited once built.
    """

    switch_ports: List[int]                       # ports per switch
    trunks: List[Tuple[int, int, int, int, float]]  # (a, pa, b, pb, prop)
    hosts: List[Tuple[str, int, int]]             # (name, switch_id, port)
    bandwidth: float = MYRINET_BANDWIDTH
    propagation: float = 0.1                      # host links
    switch_latency: float = 0.3
    _dist_cache: Dict[int, Dict[int, int]] = field(
        default_factory=dict, repr=False, compare=False)
    _index_cache: Dict[str, int] = field(
        default_factory=dict, repr=False, compare=False)
    _adj_cache: Dict[int, List[Tuple[int, int]]] = field(
        default_factory=dict, repr=False, compare=False)

    def host_index(self, name: str) -> int:
        index = self._index_cache
        if not index:
            for i, (n, _sid, _port) in enumerate(self.hosts):
                index.setdefault(n, i)
        if name not in index:
            raise RouteError(f"unknown host {name}")
        return index[name]

    def host(self, name: str) -> Tuple[str, int, int]:
        return self.hosts[self.host_index(name)]

    def adjacency(self) -> Dict[int, List[Tuple[int, int]]]:
        """``switch -> [(neighbor, out_port)]`` sorted by (neighbor, port)
        so every walk over the graph is independent of trunk order."""
        adj = self._adj_cache
        if not adj:
            for sid in range(len(self.switch_ports)):
                adj[sid] = []
            for a, pa, b, pb, _prop in self.trunks:
                adj[a].append((b, pa))
                adj[b].append((a, pb))
            for neighbors in adj.values():
                neighbors.sort()
        return adj

    def _dist_to(self, goal: int) -> Dict[int, int]:
        dist = self._dist_cache.get(goal)
        if dist is None:
            adj = self.adjacency()
            dist = {goal: 0}
            frontier = deque([goal])
            while frontier:
                u = frontier.popleft()
                for v, _p in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        frontier.append(v)
            self._dist_cache[goal] = dist
        return dist

    def route(self, src: str, dst: str) -> List[int]:
        """Shortest-path source route with pinned ECMP tie-breaking.

        Among equal-cost next hops the choice is
        ``crc32("src|dst") % len(candidates)`` over the sorted candidate
        list — deterministic for a given host pair, yet spreading
        distinct pairs across parallel trunks (per-flow ECMP, no
        reordering within a pair).
        """
        if src == dst:
            raise RouteError("no route to self over the fabric")
        _sname, s_sid, _sport = self.host(src)
        _dname, d_sid, d_port = self.host(dst)
        dist = self._dist_to(d_sid)
        if s_sid not in dist:
            raise RouteError(f"no switch path {src}->{dst}")
        pick = zlib.crc32(f"{src}|{dst}".encode())
        adj = self.adjacency()
        ports: List[int] = []
        cur = s_sid
        while cur != d_sid:
            step = dist[cur] - 1
            candidates = [(v, p) for v, p in adj[cur]
                          if dist.get(v, -1) == step]
            cur, out_port = candidates[pick % len(candidates)]
            ports.append(out_port)
        return ports + [d_port]


def fat_tree_blueprint(hosts: int, hosts_per_edge: int = 4,
                       spines: int = 2, trunk_propagation: float = 1.0,
                       bandwidth: float = MYRINET_BANDWIDTH,
                       propagation: float = 0.1,
                       switch_latency: float = 0.3) -> FabricBlueprint:
    """Two-stage Clos / folded fat-tree: edge switches below, spines above.

    Every edge switch connects to every spine, so any host pair on
    different edges has ``spines`` equal-cost paths (pinned per pair by
    :meth:`FabricBlueprint.route`).  Switch ids: edges ``0..E-1`` then
    spines ``E..E+S-1``.  ``trunk_propagation`` models long inter-rack
    runs and sets the cluster sync lookahead, so it defaults higher than
    the in-rack host links.
    """
    if hosts < 1 or hosts_per_edge < 1 or spines < 1:
        raise ConfigError("fat tree needs hosts, hosts_per_edge, spines >= 1")
    edges = (hosts + hosts_per_edge - 1) // hosts_per_edge
    switch_ports = [spines + hosts_per_edge] * edges + [edges] * spines
    trunks: List[Tuple[int, int, int, int, float]] = []
    next_port = [0] * (edges + spines)
    for e in range(edges):
        for s in range(spines):
            spine = edges + s
            pa, next_port[e] = next_port[e], next_port[e] + 1
            pb, next_port[spine] = next_port[spine], next_port[spine] + 1
            trunks.append((e, pa, spine, pb, trunk_propagation))
    host_list: List[Tuple[str, int, int]] = []
    for i in range(hosts):
        sid = i // hosts_per_edge
        port, next_port[sid] = next_port[sid], next_port[sid] + 1
        host_list.append((f"h{i}", sid, port))
    return FabricBlueprint(switch_ports, trunks, host_list,
                           bandwidth, propagation, switch_latency)


def ring_blueprint(switches: int, hosts_per_switch: int = 2,
                   trunk_propagation: float = 1.0,
                   bandwidth: float = MYRINET_BANDWIDTH,
                   propagation: float = 0.1,
                   switch_latency: float = 0.3) -> FabricBlueprint:
    """A cycle of switches, each with local hosts — the smallest topology
    where a contiguous partition cuts exactly two trunks per boundary."""
    if switches < 3:
        raise ConfigError("a ring needs at least 3 switches")
    if hosts_per_switch < 1:
        raise ConfigError("hosts_per_switch must be >= 1")
    switch_ports = [2 + hosts_per_switch] * switches
    trunks: List[Tuple[int, int, int, int, float]] = []
    next_port = [0] * switches
    for i in range(switches):
        j = (i + 1) % switches
        pa, next_port[i] = next_port[i], next_port[i] + 1
        pb, next_port[j] = next_port[j], next_port[j] + 1
        trunks.append((i, pa, j, pb, trunk_propagation))
    host_list: List[Tuple[str, int, int]] = []
    for i in range(switches * hosts_per_switch):
        sid = i // hosts_per_switch
        port, next_port[sid] = next_port[sid], next_port[sid] + 1
        host_list.append((f"h{i}", sid, port))
    return FabricBlueprint(switch_ports, trunks, host_list,
                           bandwidth, propagation, switch_latency)


class EthernetFabric:
    """Hosts on one store-and-forward GigE switch."""

    def __init__(self, sim: Simulator, num_ports: int = 16,
                 bandwidth: float = GIGE_BANDWIDTH, propagation: float = 0.5,
                 switch_latency: float = 2.0):
        self.sim = sim
        self.bandwidth = bandwidth
        self.propagation = propagation
        self.switch = EthernetSwitch(sim, num_ports, latency=switch_latency)
        self._next_port = 0
        self.hosts: Dict[str, Attachment] = {}

    def attach_host(self, name: str, attachment: Attachment) -> None:
        if name in self.hosts:
            raise ConfigError(f"duplicate host {name}")
        if self._next_port >= len(self.switch.ports):
            raise ConfigError("switch out of ports")
        Link(self.sim, attachment, self.switch.port(self._next_port),
             self.bandwidth, self.propagation, name=f"eth-{name}")
        self._next_port += 1
        self.hosts[name] = attachment

    def host_link(self, name: str) -> Link:
        return self.hosts[name].link
