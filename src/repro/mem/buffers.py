"""Scatter/gather entries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import MemoryRegistrationError


@dataclass(frozen=True, slots=True)
class SGE:
    """Scatter/gather entry: (virtual address, length, registration key)."""

    addr: int
    length: int
    lkey: int

    def __post_init__(self):
        if self.length < 0:
            raise MemoryRegistrationError("SGE length must be non-negative")


def sg_total(sges: Iterable[SGE]) -> int:
    return sum(sge.length for sge in sges)

