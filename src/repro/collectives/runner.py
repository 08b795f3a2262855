"""Per-rank collective drivers for single-process and cluster runs.

The same generators execute in the one-kernel oracle and on every
cluster shard (the :mod:`repro.cluster.workloads` pattern), so sharded
collective runs are bit-for-bit comparable via ``assert_equivalent``.
Each rank's record lands under ``COLLECTIVE_FLOW_BASE + rank`` in the
cluster flow results and carries a stable digest of the packed result
vector — the observable the gate invariants compare across ranks and
against the pure oracle.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Sequence

from ..core import WROpcode
from ..net.addresses import IPv6Address
from ..tools.inspect import stable_digest
from .group import (ELEM, CollectiveStats, CollectiveWorkSpec,
                    initial_vector, pack_vector, unpack_vector)
from .host import HostCollectiveMember


def result_digest(result: Optional[Sequence[float]]) -> str:
    """Stable digest of a result vector (None and [] digest alike)."""
    return stable_digest(pack_vector(list(result or [])))


def _fill_record(record: Dict, sim, spec: CollectiveWorkSpec, rank: int,
                 world: int, status: str, result, stats: CollectiveStats
                 ) -> None:
    vec = list(result or [])
    record["engine"] = spec.engine
    record["algo"] = spec.algo
    record["variant"] = spec.variant
    record["rank"] = rank
    record["world"] = world
    record["status"] = status
    record["result_len"] = len(vec)
    record["result_head"] = vec[:4]
    record["result_digest"] = result_digest(vec)
    record["stats"] = stats.to_dict()
    record["done_at"] = sim.now


def rank_addr(rank: int) -> IPv6Address:
    """Rank ``rank``'s NIC address: rank ``i`` runs on cluster host ``i``."""
    return IPv6Address.from_index(rank + 1)


def _host_rank(sim, node, rank: int, world: int, spec: CollectiveWorkSpec,
               record: Dict) -> Generator:
    member = HostCollectiveMember(node, rank, world, spec, rank_addr)
    yield from member.setup()
    result = yield from member.run()
    _fill_record(record, sim, spec, rank, world, "SUCCESS", result,
                 member.stats)


def _nic_rank(sim, node, rank: int, world: int, spec: CollectiveWorkSpec,
              record: Dict) -> Generator:
    iface = node.iface
    nelems = 0 if spec.algo == "barrier" else spec.vector_len
    cq = yield from iface.create_cq()
    buf = None
    sge = None
    if nelems:
        buf = yield from iface.register_memory(nelems * ELEM)
        buf.write(pack_vector(initial_vector(spec, rank, world)))
        sge = buf.sge(0, nelems * ELEM)
    right = rank_addr((rank + 1) % world) if world > 1 else None
    yield from iface.coll_create(0, rank, world, right, spec.port, cq,
                                 eager_threshold=spec.eager_threshold)
    yield from iface.coll_post(0, spec.algo, nelems, sge, root=spec.root,
                               wr_id=rank)
    cqe = None
    while cqe is None:
        for c in (yield from iface.wait(cq)):
            if c.opcode is WROpcode.COLLECTIVE:
                cqe = c
    result = None
    if buf is not None and cqe.ok:
        result = unpack_vector(buf.read(nelems * ELEM))
    unit = iface.fw.collectives[0]
    _fill_record(record, sim, spec, rank, world, cqe.status.name, result,
                 unit.stats)


def collective_rank_driver(sim, node, rank: int, world: int,
                           spec: CollectiveWorkSpec,
                           record: Dict) -> Generator:
    """One rank of the spec's collective; fills ``record`` when done."""
    spec.validate_world(world)
    if spec.start:
        yield sim.timeout(spec.start)
    if spec.engine == "host":
        yield from _host_rank(sim, node, rank, world, spec, record)
    else:
        yield from _nic_rank(sim, node, rank, world, spec, record)
