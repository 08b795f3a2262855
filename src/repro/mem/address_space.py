"""Virtual address spaces over sparse physical memory.

The QPIP driver registers application buffers and hands the NIC a
virtual→physical translation table (paper §4.1: "a facility for
translating virtual addresses in WRs to physical addresses for use in
DMA transactions").  We model that faithfully:

* a per-host :class:`PhysicalMemory` allocates page frames;
* each process owns an :class:`AddressSpace` with a page table;
* frames hold real bytes, but **sparsely** — pages never written read as
  zeros and cost nothing, and a written frame holds bytes only up to the
  highest one written, so multi-hundred-megabyte benchmark transfers and
  thousands of barely-touched registered buffers stay cheap while
  data-integrity tests remain bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import MemoryRegistrationError

PAGE_SIZE = 4096
PAGE_SHIFT = 12


@dataclass(frozen=True)
class VirtualRange:
    """A contiguous range of virtual addresses."""

    addr: int
    length: int

    @property
    def end(self) -> int:
        return self.addr + self.length


class PhysicalMemory:
    """Sparse physical memory: a frame materializes on its first write,
    up to the highest byte written, and grows on later writes; bytes past
    its end read as zeros, like a frame never written."""

    def __init__(self, size_bytes: int = 1 << 30, name: str = "mem"):
        self.name = name
        self.size_bytes = size_bytes
        self.total_frames = size_bytes >> PAGE_SHIFT
        self._next_frame = 0
        self._frames: Dict[int, bytearray] = {}

    @property
    def frames_allocated(self) -> int:
        return self._next_frame

    @property
    def frames_materialized(self) -> int:
        return len(self._frames)

    def alloc_frames(self, count: int) -> List[int]:
        if self._next_frame + count > self.total_frames:
            raise MemoryRegistrationError(
                f"{self.name}: out of physical memory "
                f"({self._next_frame}+{count} > {self.total_frames} frames)")
        frames = list(range(self._next_frame, self._next_frame + count))
        self._next_frame += count
        return frames

    def write_frame(self, ppn: int, offset: int, data: bytes) -> None:
        if not 0 <= offset <= PAGE_SIZE or offset + len(data) > PAGE_SIZE:
            raise MemoryRegistrationError("frame write out of bounds")
        frame = self._frames.get(ppn)
        if frame is None:
            frame = self._frames[ppn] = bytearray(offset)
        elif len(frame) < offset:
            frame.extend(bytes(offset - len(frame)))
        frame[offset:offset + len(data)] = data

    def read_frame(self, ppn: int, offset: int, length: int) -> Optional[bytes]:
        """Read from a frame; None means the frame is all zeros (never written)."""
        if not 0 <= offset <= PAGE_SIZE or offset + length > PAGE_SIZE:
            raise MemoryRegistrationError("frame read out of bounds")
        frame = self._frames.get(ppn)
        if frame is None:
            return None
        data = bytes(frame[offset:offset + length])
        if len(data) < length:
            data += bytes(length - len(data))
        return data


class AddressSpace:
    """A process's virtual address space with an on-demand page table."""

    _BASE_VA = 0x1000_0000

    def __init__(self, phys: PhysicalMemory, name: str = "proc"):
        self.phys = phys
        self.name = name
        self._page_table: Dict[int, int] = {}
        self._next_va = self._BASE_VA
        self.allocations: List[VirtualRange] = []

    def alloc(self, nbytes: int, align: int = PAGE_SIZE) -> VirtualRange:
        """Allocate a page-backed virtual range (always page aligned)."""
        if nbytes <= 0:
            raise MemoryRegistrationError(f"allocation size must be positive, got {nbytes}")
        if align % PAGE_SIZE:
            raise MemoryRegistrationError("alignment must be a multiple of the page size")
        va = (self._next_va + align - 1) // align * align
        npages = (nbytes + PAGE_SIZE - 1) >> PAGE_SHIFT
        frames = self.phys.alloc_frames(npages)
        first_vpn = va >> PAGE_SHIFT
        for i, ppn in enumerate(frames):
            self._page_table[first_vpn + i] = ppn
        self._next_va = va + npages * PAGE_SIZE
        rng = VirtualRange(va, nbytes)
        self.allocations.append(rng)
        return rng

    def is_mapped(self, va: int, length: int) -> bool:
        if length <= 0:
            return False
        first = va >> PAGE_SHIFT
        last = (va + length - 1) >> PAGE_SHIFT
        return all(vpn in self._page_table for vpn in range(first, last + 1))

    # -- data access ------------------------------------------------------

    def write(self, va: int, data: bytes) -> None:
        cursor = va
        pos = 0
        while pos < len(data):
            page_off = cursor & (PAGE_SIZE - 1)
            chunk = min(len(data) - pos, PAGE_SIZE - page_off)
            vpn = cursor >> PAGE_SHIFT
            if vpn not in self._page_table:
                raise MemoryRegistrationError(
                    f"{self.name}: write to unmapped address {cursor:#x}")
            self.phys.write_frame(self._page_table[vpn], page_off,
                                  data[pos:pos + chunk])
            cursor += chunk
            pos += chunk

    def read(self, va: int, length: int) -> bytes:
        out = bytearray(length)
        cursor = va
        pos = 0
        any_data = False
        while pos < length:
            page_off = cursor & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - page_off)
            vpn = cursor >> PAGE_SHIFT
            if vpn not in self._page_table:
                raise MemoryRegistrationError(
                    f"{self.name}: read from unmapped address {cursor:#x}")
            data = self.phys.read_frame(self._page_table[vpn], page_off, chunk)
            if data is not None:
                out[pos:pos + chunk] = data
                any_data = True
            cursor += chunk
            pos += chunk
        return bytes(out) if any_data or length == 0 else bytes(length)

    def is_all_zero(self, va: int, length: int) -> bool:
        """True when no page in the range was ever written (fast path)."""
        first = va >> PAGE_SHIFT
        last = (va + length - 1) >> PAGE_SHIFT if length else first
        for vpn in range(first, last + 1):
            ppn = self._page_table.get(vpn)
            if ppn is None:
                raise MemoryRegistrationError(
                    f"{self.name}: query of unmapped address {vpn << PAGE_SHIFT:#x}")
            if ppn in self.phys._frames:
                return False
        return True
