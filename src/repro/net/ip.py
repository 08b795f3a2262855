"""The IP layer: routing, header construction/validation, link framing.

Address resolution follows the prototype: "Address resolution is provided
by a static table that maps IPv6 addresses to switch routes" (§4.1).  For
the Ethernet baseline the static table maps IP → MAC instead of running
ARP/ND.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ChecksumError, ConfigError, RouteError
from .addresses import Endpoint, IPAddress, IPv4Address, IPv6Address, MacAddress
from .checksum import pseudo_header_v4, pseudo_header_v6
from .headers.base import Header
from .headers.ip import IPv4Header, IPv6Header, PROTO_TCP, PROTO_UDP
from .headers.link import (ETHERTYPE_IPV4, ETHERTYPE_IPV6, EthernetHeader,
                           MyrinetHeader)
from .headers.transport import (TCPHeader, UDPHeader, tcp_fill_checksum,
                                tcp_verify_checksum, udp_fill_checksum,
                                udp_verify_checksum)
from .packet import Packet, Payload


@dataclass
class RouteEntry:
    """How to reach one destination: the egress interface plus link framing."""

    iface: object                                 # duck-typed NIC port
    next_mac: Optional[MacAddress] = None         # Ethernet next hop
    source_route: List[int] = field(default_factory=list)  # Myrinet ports
    #: ethertype -> (link header, packet route, link header length), built
    #: on first use and shared by every packet sent on this route.
    _framing: Dict[int, Tuple[Header, Optional[List[int]], int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def framing(self, ethertype: int
                ) -> Optional[Tuple[Header, Optional[List[int]], int]]:
        """The link framing for ``ethertype``, or None if the route has
        neither a source route nor a next-hop MAC.  A bad source route
        raises here, on the first packet."""
        framing = self._framing.get(ethertype)
        if framing is None:
            if self.source_route:
                route = list(self.source_route)
                link = MyrinetHeader(route, ethertype)
            elif self.next_mac is not None:
                route = None
                link = EthernetHeader(
                    self.next_mac,
                    getattr(self.iface, "mac", MacAddress.from_index(0)),
                    ethertype)
            else:
                return None
            framing = self._framing[ethertype] = (link, route,
                                                  link.header_len())
        return framing


@dataclass
class ParsedSegment:
    """A validated transport segment handed up from the IP layer."""

    proto: int
    src: Endpoint
    dst: Endpoint
    transport: object            # TCPHeader | UDPHeader
    payload: Payload
    checksum_ok: bool
    ce: bool = False             # IP-layer Congestion Experienced mark


class IpModule:
    """Builds and parses IP packets over a static route table."""

    def __init__(self, name: str = "ip"):
        self.name = name
        self.local_addrs: set = set()
        self.routes: Dict[IPAddress, RouteEntry] = {}
        self._ident = itertools.count(1)
        self.sent = 0
        self.received = 0
        self.dropped_not_ours = 0
        self.dropped_bad = 0

    def add_local(self, addr: IPAddress) -> None:
        self.local_addrs.add(addr)

    def add_route(self, dst: IPAddress, entry: RouteEntry) -> None:
        self.routes[dst] = entry

    def route_for(self, dst: IPAddress) -> RouteEntry:
        entry = self.routes.get(dst)
        if entry is None:
            raise RouteError(f"{self.name}: no route to {dst!r}")
        return entry

    # -- output ----------------------------------------------------------

    def build(self, src_ip: IPAddress, dst_ip: IPAddress, transport,
              payload: Payload, hop_limit: int = 64, ecn: int = 0) -> Packet:
        """Construct a link-ready packet: fills transport checksum, IP and
        link headers, and the source route / MAC framing."""
        entry = self.route_for(dst_ip)
        proto = PROTO_TCP if isinstance(transport, TCPHeader) else PROTO_UDP
        upper_len = transport.header_len() + payload.length

        if isinstance(src_ip, IPv6Address):
            if not isinstance(dst_ip, IPv6Address):
                raise ConfigError("mixed IP versions")
            psum = pseudo_header_v6(src_ip.packed, dst_ip.packed, upper_len, proto)
            ip_hdr = IPv6Header(src_ip, dst_ip, next_header=proto,
                                payload_length=upper_len, hop_limit=hop_limit,
                                traffic_class=ecn & 0b11)
            ethertype = ETHERTYPE_IPV6
        else:
            psum = pseudo_header_v4(src_ip.packed, dst_ip.packed, upper_len, proto)
            ip_hdr = IPv4Header(src_ip, dst_ip, protocol=proto,
                                total_length=20 + upper_len,
                                identification=next(self._ident) & 0xFFFF,
                                ttl=hop_limit, dscp=ecn & 0b11)
            ethertype = ETHERTYPE_IPV4

        if proto == PROTO_TCP:
            tcp_fill_checksum(transport, psum, payload)
        else:
            udp_fill_checksum(transport, psum, payload)

        framing = entry.framing(ethertype)
        if framing is None:
            raise ConfigError(f"{self.name}: route to {dst_ip!r} has no framing")
        link, route, link_len = framing
        ip_len = ip_hdr.LEN + upper_len
        mtu = getattr(entry.iface, "mtu", None)
        if mtu is not None and ip_len > mtu:
            raise ConfigError(
                f"{self.name}: {link_len + ip_len}B packet exceeds MTU {mtu} "
                "(end-to-end fragmentation is out of scope, as in the paper)")
        pkt = Packet([link, ip_hdr, transport], payload)
        pkt.route = route
        pkt._wire_size = link_len + ip_len
        self.sent += 1
        return pkt

    def send(self, src_ip: IPAddress, dst_ip: IPAddress, transport,
             payload: Payload, hop_limit: int = 64, ecn: int = 0) -> None:
        entry = self.route_for(dst_ip)
        pkt = self.build(src_ip, dst_ip, transport, payload, hop_limit, ecn)
        entry.iface.enqueue_tx(pkt)

    # -- input ------------------------------------------------------------

    def parse(self, pkt: Packet, verify_checksum: bool = True
              ) -> Optional[ParsedSegment]:
        """Strip link + IP headers, validate, and demux the transport header.

        Returns None for packets not addressed to this stack (or malformed
        ones); counters record why.
        """
        top = pkt.top()
        if isinstance(top, (EthernetHeader, MyrinetHeader)):
            pkt.pop()
            top = pkt.top()

        ce = False
        if isinstance(top, IPv6Header):
            ip6 = pkt.pop()
            if ip6.dst not in self.local_addrs:
                self.dropped_not_ours += 1
                return None
            src_ip, dst_ip = ip6.src, ip6.dst
            proto = ip6.next_header
            upper_len = ip6.payload_length
            ce = ip6.ecn == 0b11
            psum = pseudo_header_v6(src_ip.packed, dst_ip.packed, upper_len, proto)
            udp_zero_csum_ok = False     # RFC 8200 §8.1: IPv6 UDP must sum
        elif isinstance(top, IPv4Header):
            ip4 = pkt.pop()
            if ip4.dst not in self.local_addrs:
                self.dropped_not_ours += 1
                return None
            src_ip, dst_ip = ip4.src, ip4.dst
            proto = ip4.protocol
            upper_len = ip4.total_length - 20
            ce = ip4.ecn == 0b11
            psum = pseudo_header_v4(src_ip.packed, dst_ip.packed, upper_len, proto)
            udp_zero_csum_ok = True      # RFC 768: zero means "no checksum"
        else:
            self.dropped_bad += 1
            return None

        transport = pkt.top()
        payload = pkt.payload
        if proto == PROTO_TCP and isinstance(transport, TCPHeader):
            ok = (not verify_checksum) or tcp_verify_checksum(transport, psum, payload)
        elif proto == PROTO_UDP and isinstance(transport, UDPHeader):
            ok = (not verify_checksum) or (
                (transport.checksum != 0 or udp_zero_csum_ok)
                and udp_verify_checksum(transport, psum, payload))
        else:
            self.dropped_bad += 1
            return None
        if pkt.corrupted:
            ok = False
        if not ok:
            self.dropped_bad += 1
        self.received += 1
        return ParsedSegment(
            proto=proto,
            src=Endpoint(src_ip, transport.src_port),
            dst=Endpoint(dst_ip, transport.dst_port),
            transport=transport,
            payload=payload,
            checksum_ok=ok,
            ce=ce)
