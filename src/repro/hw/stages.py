"""The firmware stage table: the paper's Tables 2 & 3 as data.

Every timed stage the QPIP firmware (and the collective offload engine
built on it) runs on the NIC core is one :class:`Stage` row below, and
every FSM pipeline is a declared tuple of rows.  A row names the
:class:`~repro.hw.timing.LanaiTiming` field that prices it — or ``None``
for a *sized* stage, whose duration depends on the work and is passed by
the caller through :meth:`Stage.sized` — and the Table 2/3 row it is
measured under, if the paper shows it.

:meth:`ProgrammableNic.run <repro.hw.lanai.ProgrammableNic.run>` is the
one way a stage reaches the core, so the cycle counter's stage names and
the ``fw.stage_us.<name>`` histograms are exactly this table's names,
and ``bench.runners.run_occupancy_tables`` reads Tables 2 & 3 off the
``paper_row`` column.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple


class Stage(NamedTuple):
    name: str                  # cycle-counter / fw.stage_us key
    cost: Optional[str]        # LanaiTiming field; None = sized by the caller
    paper_row: Optional[str]   # Table 2/3 row label; None = not in the paper

    def sized(self, us: float) -> Tuple[str, float]:
        """This sized stage as a timed ``(name, µs)`` pair."""
        if self.cost is not None:
            raise ValueError(f"stage {self.name!r} is priced by "
                             f"LanaiTiming.{self.cost}, not by the caller")
        return (self.name, us)


def timed(timing, *rows) -> Tuple[Tuple[str, float], ...]:
    """``rows`` as the ``(name, µs)`` pairs a span carries.  Fixed-cost
    rows are priced from ``timing``; already-sized pairs pass through."""
    out = []
    for row in rows:
        if type(row) is not Stage:
            out.append(row)
        elif row.cost is None:
            raise ValueError(f"stage {row.name!r} is sized: pass "
                             f"{row.name.upper()}.sized(us)")
        else:
            out.append((row.name, getattr(timing, row.cost)))
    return tuple(out)


# -- doorbell and management FSMs --------------------------------------------
DOORBELL = Stage("doorbell", "doorbell_process", "Doorbell Process")
# FIFO-overflow recovery rescans every QP: a management-class pass.
DOORBELL_RESCAN = Stage("doorbell_rescan", "mgmt_command", None)
MGMT = Stage("mgmt", "mgmt_command", None)

# -- transmit FSM (Table 2) ---------------------------------------------------
SCHEDULE = Stage("schedule", "schedule", "Schedule")
GET_WR = Stage("get_wr", "get_wr", "Get WR")
GET_DATA = Stage("get_data", "get_data", "Get Data")
BUILD_TCP_HDR = Stage("build_tcp_hdr", "build_tcp_hdr", "Build TCP Hdr")
BUILD_UDP_HDR = Stage("build_udp_hdr", "build_udp_hdr", None)
BUILD_IP_HDR = Stage("build_ip_hdr", "build_ip_hdr", "Build IP Hdr")
MEDIA_SEND = Stage("media_send", "media_send", "Send")
# The prototype babysits the send engine for the packet's wire time.
MEDIA_SEND_DRAIN = Stage("media_send_drain", None, None)
TX_UPDATE = Stage("tx_update", "tx_update", "Update")

# -- receive FSM (Table 3) ----------------------------------------------------
MEDIA_RECV = Stage("media_recv", "media_recv", "Media Rcv")
# Firmware checksum variant: rx_checksum_per_byte × covered bytes.
RX_CHECKSUM = Stage("rx_checksum", None, None)
IP_PARSE = Stage("ip_parse", "ip_parse", "IP Parse")
TCP_PARSE_DATA = Stage("tcp_parse_data", "tcp_parse_data", "TCP Parse")
TCP_PARSE_ACK = Stage("tcp_parse_ack", "tcp_parse_ack", "TCP Parse")
UDP_PARSE = Stage("udp_parse", "udp_parse", None)
PUT_DATA = Stage("put_data", "put_data", "Put Data")
RX_UPDATE_DATA = Stage("rx_update_data", "rx_update_data", "Update")
RX_UPDATE_ACK = Stage("rx_update_ack", "rx_update_ack", "Update")
# Further send completions acknowledged by the same segment.
RX_UPDATE_EXTRA = Stage("rx_update_extra", "rx_update_data", None)

# -- RDMA extension -----------------------------------------------------------
RDMA_READ_REQ = Stage("rdma_read_req", "get_wr", None)

# -- collective offload engine ------------------------------------------------
COLL_GET_WR = Stage("coll_get_wr", "get_wr", None)
COLL_FRAME = Stage("coll_frame", "coll_frame", None)
# coll_combine_per_byte × frame body bytes.
COLL_COMBINE = Stage("coll_combine", None, None)

# -- fault injection ----------------------------------------------------------
FAULT_STALL = Stage("fault_stall", None, None)

TABLE: Tuple[Stage, ...] = (
    DOORBELL, DOORBELL_RESCAN, MGMT,
    SCHEDULE, GET_WR, GET_DATA, BUILD_TCP_HDR, BUILD_UDP_HDR, BUILD_IP_HDR,
    MEDIA_SEND, MEDIA_SEND_DRAIN, TX_UPDATE,
    MEDIA_RECV, RX_CHECKSUM, IP_PARSE, TCP_PARSE_DATA, TCP_PARSE_ACK,
    UDP_PARSE, PUT_DATA, RX_UPDATE_DATA, RX_UPDATE_ACK, RX_UPDATE_EXTRA,
    RDMA_READ_REQ, COLL_GET_WR, COLL_FRAME, COLL_COMBINE, FAULT_STALL,
)

# -- pipelines ------------------------------------------------------------------
# Each parse or build tuple runs as one merged core span: nothing
# observable happens between its stages.

# Segment emit: build span, wire handoff, then [MEDIA_SEND_DRAIN] + TX_DONE.
TX_BUILD_TCP = (BUILD_TCP_HDR, BUILD_IP_HDR, MEDIA_SEND)
TX_BUILD_UDP = (BUILD_UDP_HDR, BUILD_IP_HDR, MEDIA_SEND)
TX_DONE = (TX_UPDATE,)
# Packet parse; RX_CHECKSUM follows MEDIA_RECV under firmware checksums.
RX_PARSE_DATA = (MEDIA_RECV, IP_PARSE, TCP_PARSE_DATA)
RX_PARSE_ACK = (MEDIA_RECV, IP_PARSE, TCP_PARSE_ACK)
RX_PARSE_UDP = (MEDIA_RECV, IP_PARSE, UDP_PARSE)
# Placement into a posted WR (TCP data, UDP, RDMA SEND): one span per
# stage, with the length check and the host DMA between them.  Tagged
# RDMA placement (WRITE, READ response) runs the last two.
RECV_PLACE = (GET_WR, PUT_DATA, RX_UPDATE_DATA)

# Tables 2 & 3 as paths through the rows: (data column, ACK column).
# A data send rings the sender's doorbell; the ACK send follows the
# receiver's re-post of its consumed receive buffer.
TABLE2_PATHS = (
    (DOORBELL, SCHEDULE, GET_WR, GET_DATA) + TX_BUILD_TCP + TX_DONE,
    (DOORBELL, SCHEDULE) + TX_BUILD_TCP + TX_DONE,
)
TABLE3_PATHS = (
    (DOORBELL,) + RX_PARSE_DATA + RECV_PLACE,
    (DOORBELL,) + RX_PARSE_ACK + (RX_UPDATE_ACK,),
)
