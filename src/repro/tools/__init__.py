"""Diagnostics: wire taps, connection inspectors, fabric reports."""

from .wiretap import Wiretap, format_packet
from .inspect import connection_report, fabric_report, nic_report

__all__ = ["Wiretap", "format_packet", "connection_report", "fabric_report",
           "nic_report"]
