"""ECN + RED extension tests (paper §5.2: inter-network protocols bring
"network-based mechanisms such as RED or ECN" to the SAN).
"""

import dataclasses

import pytest

from repro.fabric import RedParams
from repro.hw import DumbNic, Host
from repro.hoststack import TcpSocket
from repro.hoststack.kernel import HostKernel
from repro.fabric.switch import EthernetSwitch
from repro.fabric.link import Link
from repro.net.addresses import Endpoint, IPv4Address, MacAddress
from repro.net.headers.ip import ECN_CE, ECN_ECT0
from repro.net.headers.transport import CWR, ECE
from repro.net.packet import ZeroPayload
from repro.net.tcp import TcpConfig
from repro.sim import Simulator

from helpers_tcp import make_pair, establish


@pytest.fixture
def sim():
    return Simulator()


def ecn_cfg(**kw):
    kw.setdefault("ecn", True)
    kw.setdefault("mss", 1000)
    return TcpConfig(**kw)


class TestEcnNegotiation:
    def test_both_sides_ecn_capable(self, sim):
        cctx, sctx = make_pair(sim, ecn_cfg(), ecn_cfg())
        establish(sim, cctx, sctx)
        assert cctx.conn.ecn_ok and sctx.conn.ecn_ok
        # ECN-setup SYN carried ECE|CWR; SYN|ACK carried ECE only.
        syn = cctx.sent[0][1]
        assert syn.flags & ECE and syn.flags & CWR
        synack = sctx.sent[0][1]
        assert synack.flags & ECE and not synack.flags & CWR

    def test_one_side_without_ecn_disables_it(self, sim):
        cctx, sctx = make_pair(sim, ecn_cfg(), TcpConfig(mss=1000))
        establish(sim, cctx, sctx)
        assert not cctx.conn.ecn_ok and not sctx.conn.ecn_ok

    def test_legacy_peer_unaffected(self, sim):
        # A non-ECN client against an ECN-capable server.
        cctx, sctx = make_pair(sim, TcpConfig(mss=1000), ecn_cfg())
        establish(sim, cctx, sctx)
        assert not sctx.conn.ecn_ok
        cctx.conn.send_stream(ZeroPayload(5000))
        sim.run(until=sim.now + 1_000_000)
        assert sctx.delivered_bytes == bytes(5000)


class TestEcnResponse:
    def test_ce_mark_triggers_window_reduction_without_loss(self, sim):
        cctx, sctx = make_pair(sim, ecn_cfg(), ecn_cfg())
        establish(sim, cctx, sctx)
        # Grow the window first.
        cctx.conn.send_stream(ZeroPayload(20_000))
        sim.run(until=sim.now + 1_000_000)
        cwnd_before = cctx.conn.cc.cwnd

        # Deliver one CE-marked data segment to the server by hand.
        orig_rx = sctx._rx

        def rx_with_ce(hdr, payload):
            sctx.received.append((sim.now, hdr, payload.length))
            sctx.conn.handle_segment(hdr, payload, ce=payload.length > 0)

        sctx._rx = rx_with_ce
        cctx.conn.send_stream(ZeroPayload(3000))
        sim.run(until=sim.now + 1_000_000)
        sctx._rx = orig_rx

        # The sender saw ECE and halved, exactly once, without retransmits.
        assert cctx.conn.cc.ecn_reductions == 1
        assert cctx.conn.cc.cwnd < cwnd_before
        assert cctx.conn.stats.retransmitted_segs == 0

        # The receiver echoes ECE until data carrying CWR arrives.
        assert sctx.conn._ecn_echo
        cctx.conn.send_stream(ZeroPayload(5000))
        sim.run(until=sim.now + 2_000_000)
        cwr_segs = [h for _, h, l in cctx.sent if h.flags & CWR and l > 0]
        assert len(cwr_segs) >= 1
        assert not sctx.conn._ecn_echo
        assert len(sctx.delivered_bytes) == 28_000

    def test_single_reduction_per_window(self, sim):
        cctx, sctx = make_pair(sim, ecn_cfg(), ecn_cfg())
        establish(sim, cctx, sctx)
        orig_rx = sctx._rx

        def rx_all_ce(hdr, payload):
            sctx.conn.handle_segment(hdr, payload, ce=payload.length > 0)

        sctx._rx = rx_all_ce
        cctx.conn.send_stream(ZeroPayload(8000))   # many CE-marked segments
        sim.run(until=sim.now + 2_000_000)
        sctx._rx = orig_rx
        # Several ECE acks, but at most ~one reduction per window of data
        # (congestion persisted across ~4 windows of 8000 bytes).
        assert 1 <= cctx.conn.cc.ecn_reductions <= 6


class TestRedQueue:
    def _congested_rig(self, sim, red):
        """Two senders funneled into one 125 B/µs egress port."""
        sw = EthernetSwitch(sim, 3, latency=1.0, queue_capacity=64, red=red)
        hosts = []
        for i in range(3):
            host = Host(sim, f"h{i}")
            kernel = HostKernel(sim, host, isn_seed=i)
            nic = DumbNic(sim, host, mtu=1500, name="eth0",
                          mac=MacAddress.from_index(i))
            addr = IPv4Address.from_index(i + 1)
            kernel.add_nic(nic, addr)
            Link(sim, nic.attachment, sw.port(i), bandwidth=125.0,
                 propagation=0.5)
            hosts.append((host, kernel, nic, addr))
        for i, (host, kernel, nic, addr) in enumerate(hosts):
            for j, (_h2, _k2, nic2, addr2) in enumerate(hosts):
                if i != j:
                    kernel.add_route(addr2, nic, next_mac=nic2.mac)
        return sw, hosts

    def _blast(self, sim, hosts, ecn: bool, nbytes=400_000):
        """Hosts 0 and 2 both stream to host 1."""
        cfg = TcpConfig(mss=1460, ecn=ecn)
        (h0, k0, n0, a0), (h1, k1, n1, a1), (h2, k2, n2, a2) = hosts
        received = {}

        def server(port):
            lsock = TcpSocket(k1, a1, config=cfg)
            lsock.listen(port)
            conn = yield from lsock.accept()
            got = 0
            while got < nbytes:
                data = yield from conn.recv(1 << 20)
                if data.length == 0:
                    break
                got += data.length
            received[port] = got

        def client(kernel, addr, port):
            sock = TcpSocket(kernel, addr, config=cfg)
            yield from sock.connect(Endpoint(a1, port))
            yield from sock.send(ZeroPayload(nbytes))

        procs = [sim.process(server(5001)), sim.process(server(5002)),
                 sim.process(client(k0, a0, 5001)),
                 sim.process(client(k2, a2, 5002))]
        sim.run(until=sim.now + 120_000_000)
        for p in procs:
            assert p.triggered, "congestion run did not finish"
            if not p.ok:
                raise p.value
        return received

    def test_red_marks_ecn_flows_instead_of_dropping(self, sim):
        sw, hosts = self._congested_rig(sim, RedParams())
        received = self._blast(sim, hosts, ecn=True)
        assert all(v == 400_000 for v in received.values())
        assert sw.red_marked > 0
        assert sw.red_dropped == 0          # every packet was ECT
        # Senders reacted to marks, not losses.
        total_retx = 0
        for _h, kernel, _n, _a in hosts:
            for conn in kernel.stack.tcp.connections.values():
                total_retx += conn.stats.retransmitted_segs
        assert total_retx == 0

    def test_red_drops_non_ecn_flows(self, sim):
        sw, hosts = self._congested_rig(sim, RedParams())
        received = self._blast(sim, hosts, ecn=False)
        assert all(v == 400_000 for v in received.values())
        assert sw.red_dropped > 0
        assert sw.red_marked == 0
        total_retx = 0
        for _h, kernel, _n, _a in hosts:
            for conn in kernel.stack.tcp.connections.values():
                total_retx += conn.stats.retransmitted_segs
        assert total_retx > 0               # drops forced retransmissions

    def test_red_keeps_queues_shorter_than_taildrop(self, sim):
        sw_red, hosts = self._congested_rig(sim, RedParams())
        self._blast(sim, hosts, ecn=True, nbytes=200_000)
        sim2 = Simulator()
        sw_tail, hosts2 = TestRedQueue._congested_rig(self, sim2, None)
        self._blast(sim2, hosts2, ecn=True, nbytes=200_000)
        # With no RED, nothing marks; with RED, ECN flows got marked.
        assert sw_red.red_marked > 0
        assert sw_tail.red_marked == 0
