"""Wire taps: capture and render packets tcpdump-style.

A :class:`Wiretap` hooks a QPIP NIC, a conventional NIC, or a link
direction and records every packet with its timestamp.  Records render
like::

    1083.4  fd00::1.32768 > fd00::2.9000: Flags [PA], seq 68922:68932,
            ack 116045626, win 2048, length 10
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..net.headers.ip import IPv4Header, IPv6Header
from ..net.headers.transport import (ACK, CWR, ECE, FIN, PSH, RST, SYN,
                                     TCPHeader, UDPHeader)
from ..net.packet import Packet


def _tcp_flags(hdr: TCPHeader) -> str:
    out = []
    for mask, ch in ((SYN, "S"), (FIN, "F"), (RST, "R"), (PSH, "P"),
                     (ACK, "."), (ECE, "E"), (CWR, "W")):
        if hdr.flags & mask:
            out.append(ch)
    return "".join(out) or "none"


def format_packet(pkt: Packet, now: float = 0.0) -> str:
    """One-line, tcpdump-flavoured rendering of a packet."""
    ip = pkt.find(IPv6Header) or pkt.find(IPv4Header)
    tcp = pkt.find(TCPHeader)
    udp = pkt.find(UDPHeader)
    length = pkt.payload.length
    if ip is None:
        return f"{now:10.1f}  <non-IP frame, {pkt.wire_size}B>"
    src, dst = ip.src, ip.dst
    ce = " [CE]" if ip.ecn == 0b11 else ""
    if tcp is not None:
        seq_part = f"seq {tcp.seq}"
        if length:
            seq_part = f"seq {tcp.seq}:{(tcp.seq + length) & 0xFFFFFFFF}"
        opts = []
        if tcp.mss is not None:
            opts.append(f"mss {tcp.mss}")
        if tcp.wscale is not None:
            opts.append(f"wscale {tcp.wscale}")
        if tcp.ts_val is not None:
            opts.append(f"TS val {tcp.ts_val} ecr {tcp.ts_ecr}")
        opt_part = f" <{','.join(opts)}>" if opts else ""
        return (f"{now:10.1f}  {src!r}.{tcp.src_port} > {dst!r}.{tcp.dst_port}: "
                f"Flags [{_tcp_flags(tcp)}], {seq_part}, ack {tcp.ack}, "
                f"win {tcp.window}{opt_part}, length {length}{ce}")
    if udp is not None:
        return (f"{now:10.1f}  {src!r}.{udp.src_port} > {dst!r}.{udp.dst_port}: "
                f"UDP, length {length}{ce}")
    return f"{now:10.1f}  {src!r} > {dst!r}: proto?, length {length}{ce}"


@dataclass
class TapRecord:
    time: float
    direction: str            # 'tx' | 'rx'
    packet: Packet
    line: str = field(default="", repr=False)


class Wiretap:
    """Captures traffic at a NIC without perturbing timing."""

    def __init__(self, sim, capacity: int = 100_000):
        self.sim = sim
        self.capacity = capacity
        self.records: List[TapRecord] = []
        self.dropped_records = 0
        self.filter: Optional[Callable[[Packet], bool]] = None

    # -- attachment points -------------------------------------------------

    def attach_qpip_nic(self, nic) -> None:
        """Tap a ProgrammableNic's wire in both directions."""
        orig_tx = nic.wire_transmit
        orig_rx = nic._on_wire_receive

        def tx(pkt):
            self._record("tx", pkt)
            orig_tx(pkt)

        def rx(pkt, at):
            self._record("rx", pkt)
            orig_rx(pkt, at)

        nic.wire_transmit = tx
        nic.attachment.on_receive = rx

    def attach_dumb_nic(self, nic) -> None:
        """Tap a DumbNic/GmNic at its attachment."""
        orig_rx = nic.attachment.on_receive
        orig_tx = nic.attachment.transmit

        def rx(pkt, at):
            self._record("rx", pkt)
            orig_rx(pkt, at)

        def tx(pkt):
            self._record("tx", pkt)
            orig_tx(pkt)

        nic.attachment.on_receive = rx
        nic.attachment.transmit = tx

    # -- capture ----------------------------------------------------------------

    def _record(self, direction: str, pkt: Packet) -> None:
        if self.filter is not None and not self.filter(pkt):
            return
        if len(self.records) >= self.capacity:
            self.dropped_records += 1
            return
        # The receive path pops headers off the live packet; snapshot the
        # stack now and render eagerly so records stay faithful.
        snapshot = pkt.copy_shallow()
        record = TapRecord(self.sim.now, direction, snapshot)
        record.line = format_packet(snapshot, self.sim.now)
        self.records.append(record)

    # -- inspection ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def retransmissions(self) -> int:
        """Count repeated (seq, length>0) transmissions."""
        seen = set()
        retx = 0
        for r in self.records:
            if r.direction != "tx":
                continue
            tcp = r.packet.find(TCPHeader)
            if tcp is None or r.packet.payload.length == 0:
                continue
            key = (tcp.src_port, tcp.dst_port, tcp.seq)
            if key in seen:
                retx += 1
            seen.add(key)
        return retx

    def dump(self, limit: int = 50) -> str:
        lines = [r.line for r in self.records[:limit]]
        if len(self.records) > limit:
            lines.append(f"... {len(self.records) - limit} more")
        return "\n".join(lines)

    def write_pcap(self, path: str) -> int:
        """Write the capture as a classic libpcap file (LINKTYPE_RAW for
        bare-IP frames, LINKTYPE_ETHERNET when frames carry Ethernet).
        Myrinet-framed packets are written without their route header.
        Returns the number of packets written."""
        import struct as _struct
        from ..net.headers.link import EthernetHeader, MyrinetHeader
        from ..net.wire import serialize
        ethernet = any(r.packet.find(EthernetHeader) is not None
                       for r in self.records)
        linktype = 1 if ethernet else 101      # EN10MB vs RAW
        count = 0
        with open(path, "wb") as f:
            f.write(_struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                 65535, linktype))
            for r in self.records:
                pkt = r.packet.copy_shallow()
                if pkt.headers and isinstance(pkt.headers[0], MyrinetHeader):
                    pkt.pop()                  # no pcap linktype for Myrinet
                raw = serialize(pkt)
                sec = int(r.time // 1_000_000)
                usec = int(r.time % 1_000_000)
                f.write(_struct.pack("<IIII", sec, usec, len(raw), len(raw)))
                f.write(raw)
                count += 1
        return count

    def write_pcapng(self, path: str) -> int:
        """Write the capture as a pcapng file (Wireshark-loadable).

        Same linktype selection and Myrinet-header stripping as
        :meth:`write_pcap`, but with nanosecond-resolution timestamps, so
        sub-microsecond simulated timing survives the export.  Returns
        the number of packets written."""
        from ..net.headers.link import EthernetHeader, MyrinetHeader
        from ..net.wire import serialize
        from ..obs.pcapng import (LINKTYPE_ETHERNET, LINKTYPE_RAW,
                                  write_pcapng)
        ethernet = any(r.packet.find(EthernetHeader) is not None
                       for r in self.records)

        def frames():
            for r in self.records:
                pkt = r.packet.copy_shallow()
                if pkt.headers and isinstance(pkt.headers[0], MyrinetHeader):
                    pkt.pop()              # no pcap linktype for Myrinet
                yield r.time, serialize(pkt)

        return write_pcapng(
            path, frames(),
            linktype=LINKTYPE_ETHERNET if ethernet else LINKTYPE_RAW)
