"""Collective group math: spec, oracle, stats — no simulator deps.

Besides the schedule table (:mod:`repro.collectives.schedule`), what
the two engines must agree on byte-for-byte lives here:

* the single :func:`combine_into` accumulation rule (operand order is
  part of the contract — both engines produce bit-identical float64
  results for the same seed/vector because they share this function),
* deterministic per-rank test vectors (:func:`rank_vector`) chosen
  integer-valued so float64 sums are exact in *any* association order,
  which is what lets the recursive-doubling variant match the oracle
  (:func:`allreduce_oracle`) bit-for-bit too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..errors import ConfigError

ELEM = 8                      # bytes per float64 element
COLLECTIVE_PORT = 12000       # default TCP port for collective rings
ALGOS = ("barrier", "broadcast", "allreduce")
ENGINES = ("host", "nic")
VARIANTS = ("ring", "rd")

# Collective rank records land in cluster results under
# ``COLLECTIVE_FLOW_BASE + rank`` so they can never collide with flow ids.
COLLECTIVE_FLOW_BASE = 100_000


def pack_vector(values: Sequence[float]) -> bytes:
    return struct.pack(f"!{len(values)}d", *values)


def unpack_vector(data: bytes) -> List[float]:
    return list(struct.unpack(f"!{len(data) // ELEM}d", data))


@dataclass
class CollectiveStats:
    """Honest per-rank accounting, filled from sim-clock deltas.

    ``wall_time_us`` is ``done_at - start_at`` on the simulated clock
    (post-to-completion as the application observes it).  ``bytes_sent``
    counts bytes handed to the transport including frame headers;
    ``phase_bytes`` splits the same total by phase name.
    """

    steps: int = 0
    bytes_sent: int = 0
    wall_time_us: float = 0.0
    phase_bytes: Dict[str, int] = field(default_factory=dict)

    def add_phase_bytes(self, phase: str, nbytes: int) -> None:
        self.bytes_sent += nbytes
        self.phase_bytes[phase] = self.phase_bytes.get(phase, 0) + nbytes

    def to_dict(self) -> Dict[str, object]:
        return {
            "steps": self.steps,
            "bytes_sent": self.bytes_sent,
            "wall_time_us": self.wall_time_us,
            "phase_bytes": dict(sorted(self.phase_bytes.items())),
        }


@dataclass(frozen=True)
class CollectiveWorkSpec:
    """One collective operation over every host of a cluster spec.

    World size is implied by ``ClusterSpec.hosts`` — rank ``i`` runs on
    host ``i``.  ``variant="rd"`` (recursive doubling) is host-engine
    allreduce only and needs a power-of-two world; the NIC engine
    implements the ring schedule for all three algorithms.
    """

    algo: str = "allreduce"
    engine: str = "nic"
    vector_len: int = 1024
    root: int = 0
    seed: int = 1
    eager_threshold: int = 4096   # bytes; chunks above go rendezvous
    variant: str = "ring"
    port: int = COLLECTIVE_PORT
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown collective algo {self.algo!r}")
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown collective engine {self.engine!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown collective variant {self.variant!r}")
        if self.variant == "rd" and (self.engine != "host"
                                     or self.algo != "allreduce"):
            raise ConfigError(
                "recursive doubling is host-engine allreduce only")
        if self.vector_len < 0:
            raise ConfigError("vector_len must be >= 0")
        if self.eager_threshold < 0:
            raise ConfigError("eager_threshold must be >= 0")
        if not 0 < self.port < 65536:
            raise ConfigError("port must be a valid TCP port")
        if self.root < 0:
            raise ConfigError("root must be >= 0")
        if self.start < 0:
            raise ConfigError("start must be >= 0")

    def validate_world(self, world: int) -> None:
        if world < 1:
            raise ConfigError("collective needs at least one rank")
        if self.root >= world:
            raise ConfigError(f"root {self.root} outside world {world}")
        if self.variant == "rd" and world & (world - 1):
            raise ConfigError(
                f"recursive doubling needs a power-of-two world, got {world}")


def rank_vector(rank: int, world: int, length: int, seed: int) -> List[float]:
    """Deterministic integer-valued contribution of ``rank``.

    Values lie in [-500, 500]; with world <= 1024 every partial sum is
    an integer well inside float64's exact range, so the reduced result
    is bit-identical no matter how additions associate.
    """
    return [float((seed * 31 + rank * 7 + i * 3) % 1001 - 500)
            for i in range(length)]


def initial_vector(spec: CollectiveWorkSpec, rank: int,
                   world: int) -> List[float]:
    """The rank's contribution: seeded values for allreduce (and for the
    broadcast root), zeros elsewhere."""
    if spec.algo == "allreduce" or rank == spec.root:
        return rank_vector(rank, world, spec.vector_len, spec.seed)
    return [0.0] * spec.vector_len


def allreduce_oracle(world: int, length: int, seed: int) -> List[float]:
    """Element-wise sum of every rank's vector, folded in rank order."""
    acc = [0.0] * length
    for rank in range(world):
        contrib = rank_vector(rank, world, length, seed)
        for i in range(length):
            acc[i] = acc[i] + contrib[i]
    return acc


def combine_into(acc: List[float], offset: int,
                 incoming: Sequence[float]) -> None:
    """The one accumulation rule: ``acc[o+i] = incoming[i] + acc[o+i]``.

    Operand order is deliberate and shared by both engines; changing it
    changes bit patterns for non-integer inputs.
    """
    for i, value in enumerate(incoming):
        acc[offset + i] = value + acc[offset + i]
