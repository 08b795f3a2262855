"""Diagnostics: wire taps, connection inspectors, fabric reports."""

from .wiretap import Wiretap, format_packet
from .inspect import (breaker_report, connection_report, cq_report,
                      fabric_report, nic_report, recovery_report)

__all__ = ["Wiretap", "format_packet", "connection_report", "cq_report",
           "fabric_report", "nic_report", "recovery_report", "breaker_report"]
