"""Memory registration: the contract between verbs users and the NIC.

Work requests may only reference *registered* memory.  Registration pins
the pages and installs virtual→physical translations in a per-NIC
:class:`TranslationTable` (the paper's management FSM handles
"establishment of registered memory bindings").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Flag, auto
from typing import Dict

from ..errors import MemoryRegistrationError
from .address_space import AddressSpace


class Access(Flag):
    """Access rights attached to a memory region."""

    LOCAL_READ = auto()
    LOCAL_WRITE = auto()
    REMOTE_READ = auto()
    REMOTE_WRITE = auto()

    @classmethod
    def local(cls) -> "Access":
        return cls.LOCAL_READ | cls.LOCAL_WRITE


@dataclass(frozen=True)
class MemoryRegion:
    """A registered region; ``lkey`` names it in work requests."""

    lkey: int
    aspace: AddressSpace = field(repr=False)
    addr: int
    length: int
    access: Access

    @property
    def end(self) -> int:
        return self.addr + self.length

    def covers(self, addr: int, length: int) -> bool:
        return self.addr <= addr and addr + length <= self.end


class TranslationTable:
    """The NIC-resident registry of registered regions."""

    def __init__(self, name: str = "tpt"):
        self.name = name
        self._regions: Dict[int, MemoryRegion] = {}
        self._keys = itertools.count(0x100)

    def __len__(self) -> int:
        return len(self._regions)

    def register(self, aspace: AddressSpace, addr: int, length: int,
                 access: Access = Access.local()) -> MemoryRegion:
        if length <= 0:
            raise MemoryRegistrationError("cannot register an empty region")
        if not aspace.is_mapped(addr, length):
            raise MemoryRegistrationError(
                f"{self.name}: region [{addr:#x},+{length}) is not fully mapped")
        region = MemoryRegion(next(self._keys), aspace, addr, length, access)
        self._regions[region.lkey] = region
        return region

    def deregister(self, lkey: int) -> None:
        if lkey not in self._regions:
            raise MemoryRegistrationError(f"{self.name}: unknown lkey {lkey:#x}")
        del self._regions[lkey]

    def lookup(self, lkey: int) -> MemoryRegion:
        region = self._regions.get(lkey)
        if region is None:
            raise MemoryRegistrationError(f"{self.name}: unknown lkey {lkey:#x}")
        return region

    def check(self, lkey: int, addr: int, length: int, access: Access) -> MemoryRegion:
        """Validate an access; raises on bad key, bounds, or rights."""
        region = self.lookup(lkey)
        if not region.covers(addr, length):
            raise MemoryRegistrationError(
                f"{self.name}: access [{addr:#x},+{length}) outside region "
                f"[{region.addr:#x},+{region.length})")
        if access & ~region.access:
            raise MemoryRegistrationError(
                f"{self.name}: access {access} not permitted on region {lkey:#x}")
        return region
