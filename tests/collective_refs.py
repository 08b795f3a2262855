"""Test-side collective references: pure in-memory executors and the
tuple-building schedule oracle.

Written directly from the algorithms' textbook definitions (not from
``repro.collectives.schedule``), so holding the schedule interpreter
against them is an independent check.  Not collected by pytest.
"""

from typing import List, Sequence, Tuple

from repro.collectives import Step, combine_into
from repro.errors import ConfigError


def chunk_bounds(length: int, world: int) -> List[Tuple[int, int]]:
    """``(offset, count)`` of each of ``world`` chunks, the remainder
    spread over the leading ones."""
    base, rem = divmod(length, world)
    bounds = []
    offset = 0
    for i in range(world):
        count = base + (1 if i < rem else 0)
        bounds.append((offset, count))
        offset += count
    return bounds


def ring_allreduce_local(vectors: Sequence[Sequence[float]]) -> List[List[float]]:
    """In-memory ring reduce-scatter + allgather, all ranks in lockstep."""
    world = len(vectors)
    if world == 0:
        raise ConfigError("need at least one vector")
    length = len(vectors[0])
    accs = [list(v) for v in vectors]
    if world == 1:
        return accs
    bounds = chunk_bounds(length, world)
    for step in range(world - 1):
        # Rank r sends chunk (r - step) and combines chunk (r - step - 1).
        outgoing = []
        for r in range(world):
            off, cnt = bounds[(r - step) % world]
            outgoing.append(accs[r][off:off + cnt])
        for r in range(world):
            off, _cnt = bounds[(r - step - 1) % world]
            combine_into(accs[r], off, outgoing[(r - 1) % world])
    for step in range(world - 1):
        # Rank r sends chunk (r + 1 - step) and overwrites chunk (r - step).
        outgoing = []
        for r in range(world):
            off, cnt = bounds[(r + 1 - step) % world]
            outgoing.append(accs[r][off:off + cnt])
        for r in range(world):
            off, cnt = bounds[(r - step) % world]
            accs[r][off:off + cnt] = outgoing[(r - 1) % world]
    return accs


def recursive_doubling_local(vectors: Sequence[Sequence[float]]) -> List[List[float]]:
    """In-memory recursive doubling; world must be a power of two."""
    world = len(vectors)
    if world == 0 or world & (world - 1):
        raise ConfigError("recursive doubling needs a power-of-two world")
    accs = [list(v) for v in vectors]
    k = 1
    while k < world:
        snapshot = [list(a) for a in accs]
        for r in range(world):
            combine_into(accs[r], 0, snapshot[r ^ k])
        k <<= 1
    return accs


# -- the tuple-building schedule reference ----------------------------------
#
# Each rank's whole step list as one tuple; ``repro.collectives.schedule``,
# which holds the steps as phases, must equal it step for step.

def _ref_ring_allreduce(world: int, rank: int,
                        nelems: int) -> Tuple[Step, ...]:
    bounds = chunk_bounds(nelems, world)
    right, left = (rank + 1) % world, (rank - 1) % world
    rs = [Step(right, left, bounds[(rank - s) % world],
               bounds[(rank - s - 1) % world], "combine", "reduce_scatter")
          for s in range(world - 1)]
    ag = [Step(right, left, bounds[(rank + 1 - s) % world],
               bounds[(rank - s) % world], "copy", "allgather")
          for s in range(world - 1)]
    return tuple(rs + ag)


def _ref_recursive_doubling(world: int, rank: int,
                            nelems: int) -> Tuple[Step, ...]:
    whole = (0, nelems)
    steps = []
    k = 1
    while k < world:
        steps.append(Step(rank ^ k, rank ^ k, whole, whole, "combine",
                          "rd_exchange"))
        k <<= 1
    return tuple(steps)


def _ref_broadcast(world: int, rank: int, nelems: int,
                   root: int) -> Tuple[Step, ...]:
    right = (rank + 1) % world
    whole = (0, nelems)
    if rank == root:
        return (Step(right, None, whole, None, "forward", "broadcast"),)
    return (Step(None if right == root else right, (rank - 1) % world,
                 None, whole, "forward", "broadcast"),)


def _ref_barrier(world: int, rank: int) -> Tuple[Step, ...]:
    right, left = (rank + 1) % world, (rank - 1) % world
    send = (0, 0) if rank == 0 else None
    return tuple(Step(right, left, send, (0, 0), "token", "barrier")
                 for _round in range(2))


def ref_schedule(algo: str, variant: str, world: int, rank: int,
                 nelems: int, root: int = 0) -> Tuple[Step, ...]:
    """Every step of ``rank``'s schedule, as one tuple."""
    if world < 2:
        return ()
    if algo == "barrier":
        return _ref_barrier(world, rank)
    if nelems == 0:
        return ()
    if algo == "broadcast":
        return _ref_broadcast(world, rank, nelems, root)
    if variant == "rd":
        return _ref_recursive_doubling(world, rank, nelems)
    return _ref_ring_allreduce(world, rank, nelems)


def ref_peer_pairs(world: int, variant: str = "ring") -> List[Tuple[int, int]]:
    """Brute force: the ``(rank, send_to)`` of every step of every rank's
    full allreduce schedule."""
    pairs = {(min(rank, step.send_to), max(rank, step.send_to))
             for rank in range(world)
             for step in ref_schedule("allreduce", variant, world, rank,
                                      world)}
    return sorted(pairs)
