"""Memory subsystem: address spaces, registration, scatter/gather buffers."""

from .address_space import (PAGE_SIZE, AddressSpace, PhysicalMemory,
                            VirtualRange)
from .buffers import SGE, sg_total
from .registration import Access, MemoryRegion, TranslationTable

__all__ = [
    "PAGE_SIZE", "AddressSpace", "PhysicalMemory", "VirtualRange",
    "SGE", "sg_total",
    "Access", "MemoryRegion", "TranslationTable",
]
