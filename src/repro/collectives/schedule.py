"""Collective schedules as data: the one table both engines interpret.

:func:`schedule` returns the sequence of :class:`Step` s one rank
executes for one operation.  The host engine (:mod:`repro.collectives.host`)
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

A :class:`Schedule` holds those steps as *phases* — runs of steps that
share peers, op and phase name — and builds each :class:`Step` when it
is read, so one rank's schedule is a handful of objects whatever the
world size: two phases for the ring, ``log2 N`` one-step phases for
recursive doubling, one for broadcast and barrier.  A phase's ranges are
fixed, or a chunk formula of the step number, its chunk's bounds
computed by :func:`chunk_range`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple, Union

from ..errors import ConfigError
from .group import ALGOS

Range = Tuple[int, int]          # (offset, count) in elements
ChunkFormula = Callable[[int, int, int], int]   # (rank, world, step) -> chunk


class Step(NamedTuple):
    send_to: Optional[int]
    recv_from: Optional[int]
    send: Optional[Range]
    recv: Optional[Range]
    op: str                      # combine | copy | forward | token
    phase: str


class Phase(NamedTuple):
    """``steps`` consecutive steps with the same peers, op and name.
    ``send`` / ``recv`` is a fixed range, None, or a chunk formula: step
    ``s`` of the phase then moves chunk ``formula(rank, world, s)``."""
    name: str
    op: str
    steps: int
    send_to: Optional[int]
    recv_from: Optional[int]
    send: Union[None, Range, ChunkFormula]
    recv: Union[None, Range, ChunkFormula]


def chunk_range(length: int, world: int, index: int) -> Range:
    """``(offset, count)`` of chunk ``index`` of ``world``; the remainder
    is spread over the leading chunks so sizes differ by at most one
    element."""
    base, rem = divmod(length, world)
    return (index * base + min(index, rem), base + (index < rem))


def rs_send_chunk(rank: int, world: int, step: int) -> int:
    return (rank - step) % world


def rs_recv_chunk(rank: int, world: int, step: int) -> int:
    return (rank - step - 1) % world


def ag_send_chunk(rank: int, world: int, step: int) -> int:
    return (rank + 1 - step) % world


def ag_recv_chunk(rank: int, world: int, step: int) -> int:
    return (rank - step) % world


class Schedule(Sequence):
    """One rank's steps, held as :class:`Phase` s.  ``len``, indexing
    and iteration give the :class:`Step` s; each is built on read, so an
    interpreter keeps the step it is working on rather than re-indexing."""

    __slots__ = ("rank", "world", "nelems", "phases", "_len")

    def __init__(self, rank: int, world: int, nelems: int,
                 phases: Tuple[Phase, ...] = ()):
        self.rank = rank
        self.world = world
        self.nelems = nelems
        self.phases = phases
        self._len = sum([phase.steps for phase in phases])

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("schedule index out of range")
        for phase in self.phases:
            if index < phase.steps:
                return self._step(phase, index)
            index -= phase.steps

    def __iter__(self) -> Iterator[Step]:
        for phase in self.phases:
            for s in range(phase.steps):
                yield self._step(phase, s)

    def _step(self, phase: Phase, s: int) -> Step:
        send, recv = phase.send, phase.recv
        if callable(send):
            send = chunk_range(self.nelems, self.world,
                               send(self.rank, self.world, s))
        if callable(recv):
            recv = chunk_range(self.nelems, self.world,
                               recv(self.rank, self.world, s))
        return Step(phase.send_to, phase.recv_from, send, recv, phase.op,
                    phase.name)


def _ring_allreduce(world: int, rank: int) -> Tuple[Phase, ...]:
    right, left = (rank + 1) % world, (rank - 1) % world
    return (Phase("reduce_scatter", "combine", world - 1, right, left,
                  rs_send_chunk, rs_recv_chunk),
            Phase("allgather", "copy", world - 1, right, left,
                  ag_send_chunk, ag_recv_chunk))


def _recursive_doubling(world: int, rank: int,
                        nelems: int) -> Tuple[Phase, ...]:
    """Round ``k`` exchanges the whole vector with ``rank ^ 2**k``."""
    whole = (0, nelems)
    phases = []
    k = 1
    while k < world:
        phases.append(Phase("rd_exchange", "combine", 1, rank ^ k, rank ^ k,
                            whole, whole))
        k <<= 1
    return tuple(phases)


def _broadcast(world: int, rank: int, nelems: int,
               root: int) -> Tuple[Phase, ...]:
    """The root streams its vector round the ring; the rank before the
    root stores without relaying."""
    right = (rank + 1) % world
    whole = (0, nelems)
    if rank == root:
        return (Phase("broadcast", "forward", 1, right, None, whole, None),)
    return (Phase("broadcast", "forward", 1, None if right == root else right,
                  (rank - 1) % world, None, whole),)


def _barrier(world: int, rank: int) -> Tuple[Phase, ...]:
    """Two rounds of a ring token (gather, then release) started by rank
    0; every other rank passes the token on when it arrives."""
    send = (0, 0) if rank == 0 else None
    return (Phase("barrier", "token", 2, (rank + 1) % world,
                  (rank - 1) % world, send, (0, 0)),)


def _phases(algo: str, variant: str, world: int, rank: int, nelems: int,
            root: int) -> Tuple[Phase, ...]:
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
    return _ring_allreduce(world, rank)


def schedule(algo: str, variant: str, world: int, rank: int, nelems: int,
             root: int = 0) -> Schedule:
    """The steps ``rank`` executes; empty when there is nothing to move
    (one rank, or a data collective over an empty vector)."""
    if algo not in ALGOS:
        raise ConfigError(f"unknown collective algo {algo!r}")
    return Schedule(rank, world, nelems,
                    _phases(algo, variant, world, rank, nelems, root))


def peer_pairs(world: int, variant: str = "ring") -> List[Tuple[int, int]]:
    """Unordered rank pairs that exchange traffic, for route install.

    The pairs are the ``(rank, send_to)`` of every phase of every rank's
    allreduce schedule: the engines wire those links (the whole ring, or
    every recursive-doubling partner) whatever operation then runs on
    them.
    """
    pairs = {(min(rank, phase.send_to), max(rank, phase.send_to))
             for rank in range(world)
             for phase in schedule("allreduce", variant, world, rank,
                                   world).phases}
    return sorted(pairs)
