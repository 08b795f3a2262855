"""Applications: ping-pong RTT, ttcp throughput, NBD network storage,
and an RDMA key-value store (collectives live in :mod:`repro.collectives`)."""

from .kvstore import FailoverKvClient, KvClient, KvServer
from .pingpong import (RttResult, qpip_tcp_rtt, qpip_udp_rtt, socket_tcp_rtt,
                       socket_udp_rtt)
from .ttcp import ThroughputResult, qpip_ttcp, socket_ttcp

__all__ = [
    "KvClient", "KvServer", "FailoverKvClient",
    "RttResult", "qpip_tcp_rtt", "qpip_udp_rtt", "socket_tcp_rtt",
    "socket_udp_rtt",
    "ThroughputResult", "qpip_ttcp", "socket_ttcp",
]
