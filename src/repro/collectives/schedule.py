"""Collective schedules as data: the one table both engines interpret.

:func:`schedule` returns the tuple of :class:`Step` s one rank executes
for one operation.  The host engine (:mod:`repro.collectives.host`)
runs each step as verbs round trips; the NIC engine
(:mod:`repro.collectives.nicoffload`) runs the same steps as firmware
frames.  Neither engine holds any other knowledge of ring, recursive
doubling, broadcast or barrier.

A step names the peer it sends to and the peer it receives from, an
``(offset, count)`` element range for each, what to do with the
received elements, and the phase its bytes and spans are accounted
under.  ``op`` is one of:

* ``combine`` — fold the received range into the vector
  (:func:`~repro.collectives.group.combine_into`);
* ``copy`` — overwrite the received range;
* ``forward`` — broadcast: store each received frame and relay it on
  arrival;
* ``token`` — barrier: one zero-length frame.

Sends wait on receives in one of two ways.  A step with a ``send``
range originates it once the *previous* step's receive is complete.  A
step with ``send=None`` originates nothing: it receives first and
relays each received frame to ``send_to`` (if any) as it arrives —
broadcast non-roots, and barrier ranks other than the token's initiator
(rank 0).  ``recv=None`` marks a send-only step (the broadcast root),
which is complete once its last frame has left.

The ring schedule (bandwidth-optimal, Baidu/Horovod style): with world
``N`` and the vector split into ``N`` chunks, reduce-scatter step
``s ∈ [0, N-2]`` has rank ``r`` send chunk ``(r - s) mod N`` to rank
``r+1`` and combine incoming chunk ``(r - s - 1) mod N`` from rank
``r-1``; after ``N-1`` steps rank ``r`` owns the fully reduced chunk
``(r + 1) mod N``.  Allgather step ``s`` sends chunk ``(r + 1 - s) mod
N`` and overwrites incoming chunk ``(r - s) mod N``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from ..errors import ConfigError
from .group import ALGOS

Range = Tuple[int, int]          # (offset, count) in elements


class Step(NamedTuple):
    send_to: Optional[int]
    recv_from: Optional[int]
    send: Optional[Range]
    recv: Optional[Range]
    op: str                      # combine | copy | forward | token
    phase: str


def chunk_bounds(length: int, world: int) -> List[Range]:
    """``(offset, count)`` for each of ``world`` chunks; remainder spread
    over the leading chunks so sizes differ by at most one element."""
    base, rem = divmod(length, world)
    bounds: List[Range] = []
    offset = 0
    for i in range(world):
        count = base + (1 if i < rem else 0)
        bounds.append((offset, count))
        offset += count
    return bounds


def rs_send_chunk(rank: int, world: int, step: int) -> int:
    return (rank - step) % world


def rs_recv_chunk(rank: int, world: int, step: int) -> int:
    return (rank - step - 1) % world


def ag_send_chunk(rank: int, world: int, step: int) -> int:
    return (rank + 1 - step) % world


def ag_recv_chunk(rank: int, world: int, step: int) -> int:
    return (rank - step) % world


def _ring_allreduce(world: int, rank: int, nelems: int) -> Tuple[Step, ...]:
    bounds = chunk_bounds(nelems, world)
    right, left = (rank + 1) % world, (rank - 1) % world
    rs = [Step(right, left, bounds[rs_send_chunk(rank, world, s)],
               bounds[rs_recv_chunk(rank, world, s)], "combine",
               "reduce_scatter") for s in range(world - 1)]
    ag = [Step(right, left, bounds[ag_send_chunk(rank, world, s)],
               bounds[ag_recv_chunk(rank, world, s)], "copy", "allgather")
          for s in range(world - 1)]
    return tuple(rs + ag)


def _recursive_doubling(world: int, rank: int,
                        nelems: int) -> Tuple[Step, ...]:
    """Round ``k`` exchanges the whole vector with ``rank ^ 2**k``."""
    whole = (0, nelems)
    steps = []
    k = 1
    while k < world:
        steps.append(Step(rank ^ k, rank ^ k, whole, whole, "combine",
                          "rd_exchange"))
        k <<= 1
    return tuple(steps)


def _broadcast(world: int, rank: int, nelems: int,
               root: int) -> Tuple[Step, ...]:
    """The root streams its vector round the ring; the rank before the
    root stores without relaying."""
    right = (rank + 1) % world
    whole = (0, nelems)
    if rank == root:
        return (Step(right, None, whole, None, "forward", "broadcast"),)
    return (Step(None if right == root else right, (rank - 1) % world,
                 None, whole, "forward", "broadcast"),)


def _barrier(world: int, rank: int) -> Tuple[Step, ...]:
    """Two rounds of a ring token (gather, then release) started by rank
    0; every other rank passes the token on when it arrives."""
    right, left = (rank + 1) % world, (rank - 1) % world
    send = (0, 0) if rank == 0 else None
    return tuple(Step(right, left, send, (0, 0), "token", "barrier")
                 for _round in range(2))


def schedule(algo: str, variant: str, world: int, rank: int, nelems: int,
             root: int = 0) -> Tuple[Step, ...]:
    """The steps ``rank`` executes; empty when there is nothing to move
    (one rank, or a data collective over an empty vector)."""
    if algo not in ALGOS:
        raise ConfigError(f"unknown collective algo {algo!r}")
    if world < 2:
        return ()
    if algo == "barrier":
        return _barrier(world, rank)
    if nelems == 0:
        return ()
    if algo == "broadcast":
        return _broadcast(world, rank, nelems, root)
    if variant == "rd":
        return _recursive_doubling(world, rank, nelems)
    return _ring_allreduce(world, rank, nelems)


def peer_pairs(world: int, variant: str = "ring") -> List[Tuple[int, int]]:
    """Unordered rank pairs that exchange traffic, for route install.

    The pairs are the ``(rank, send_to)`` of every rank's allreduce
    schedule: the engines wire those links (the whole ring, or every
    recursive-doubling partner) whatever operation then runs on them.
    """
    pairs = {(min(rank, step.send_to), max(rank, step.send_to))
             for rank in range(world)
             for step in schedule("allreduce", variant, world, rank, world)}
    return sorted(pairs)
