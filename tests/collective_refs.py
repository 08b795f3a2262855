"""Test-side collective references: pure in-memory executors.

Written directly from the algorithms' textbook definitions (not from
``repro.collectives.schedule``), so holding the schedule interpreter
against them is an independent check.  Not collected by pytest.
"""

from typing import List, Sequence

from repro.collectives import chunk_bounds, combine_into
from repro.errors import ConfigError


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
