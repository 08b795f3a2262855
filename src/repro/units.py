"""Unit helpers.

Simulation time is microseconds (µs).  Sizes are bytes.  Rates are
bytes/µs internally; helpers convert to and from the units the paper
reports (MB/s, Mbit/s, Gbit/s).
"""

from __future__ import annotations

# -- time -----------------------------------------------------------------

US = 1.0
MS = 1_000.0
SECOND = 1_000_000.0
NS = 0.001


# -- size -------------------------------------------------------------------

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


# -- rates ------------------------------------------------------------------


def gbit_per_sec(g: float) -> float:
    """Gbit/s -> bytes/µs."""
    return g * 1e9 / 8 / SECOND


def to_mb_per_sec(bytes_per_us: float) -> float:
    """bytes/µs -> MB/s (2**20 bytes), the unit used in the paper's figures."""
    return bytes_per_us * SECOND / MB


def us_to_cycles(t_us: float, mhz: float) -> int:
    """µs -> CPU cycles at ``mhz`` MHz (rounded)."""
    return round(t_us * mhz)
