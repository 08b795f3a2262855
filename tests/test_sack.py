"""SACK extension tests (RFC 2018 over the QPIP engine)."""

import random

import pytest

from repro.net.headers.transport import TCPHeader
from repro.net.packet import BytesPayload, ZeroPayload
from repro.net.tcp import TcpConfig
from repro.sim import Simulator

from helpers_tcp import establish, make_pair


@pytest.fixture
def sim():
    return Simulator()


def sack_cfg(**kw):
    kw.setdefault("use_sack", True)
    kw.setdefault("reassembly", True)
    kw.setdefault("mss", 1000)
    kw.setdefault("min_rto", 1_000_000)    # force recovery via SACK, not RTO
    return TcpConfig(**kw)


class TestSackCodec:
    def test_blocks_roundtrip(self):
        h = TCPHeader(1, 2, ts_val=5, ts_ecr=6,
                      sack_blocks=[(100, 200), (300, 400), (500, 600)])
        decoded, used = TCPHeader.decode(h.encode())
        assert decoded.sack_blocks == [(100, 200), (300, 400), (500, 600)]
        assert used == h.header_len()
        assert used <= 60          # fits the TCP option space

    def test_blocks_capped_at_three(self):
        h = TCPHeader(1, 2, sack_blocks=[(i, i + 1) for i in range(5)])
        decoded, _ = TCPHeader.decode(h.encode())
        assert len(decoded.sack_blocks) == 3


class TestSackNegotiation:
    def test_negotiated_when_both_sides_support(self, sim):
        cctx, sctx = make_pair(sim, sack_cfg(), sack_cfg())
        establish(sim, cctx, sctx)
        assert cctx.conn.sack_ok and sctx.conn.sack_ok
        assert cctx.sent[0][1].sack_permitted          # on the SYN

    def test_disabled_when_peer_lacks_it(self, sim):
        cctx, sctx = make_pair(sim, sack_cfg(), TcpConfig(mss=1000))
        establish(sim, cctx, sctx)
        assert not cctx.conn.sack_ok

    def test_requires_reassembly(self, sim):
        # SACK without a reassembly queue would advertise data we dropped.
        cfg = TcpConfig(use_sack=True, reassembly=False, mss=1000)
        cctx, sctx = make_pair(sim, cfg, cfg)
        establish(sim, cctx, sctx)
        assert not cctx.conn.sack_ok


class TestSackRecovery:
    def _drop_nth_data(self, n):
        state = {"count": 0}

        def flt(hdr, payload):
            if payload.length > 0 and not hdr.flags & 0x02:
                state["count"] += 1
                return state["count"] == n
            return False

        return flt

    def test_single_loss_retransmits_only_the_hole(self, sim):
        cctx, sctx = make_pair(sim, sack_cfg(), sack_cfg())
        establish(sim, cctx, sctx)
        cctx.loss_filter = self._drop_nth_data(3)
        cctx.conn.send_stream(ZeroPayload(20_000))
        sim.run(until=sim.now + 2_000_000)
        assert len(sctx.delivered_bytes) == 20_000
        # Exactly one segment retransmitted, no timeout.
        assert cctx.conn.stats.retransmitted_segs == 1
        assert cctx.conn.stats.rto_timeouts == 0
        assert sctx.conn.stats.sack_blocks_out >= 1

    def test_multiple_losses_recover_without_rto(self, sim):
        cctx, sctx = make_pair(sim, sack_cfg(), sack_cfg())
        establish(sim, cctx, sctx)
        state = {"count": 0}

        def drop_3_and_7(hdr, payload):
            if payload.length > 0:
                state["count"] += 1
                return state["count"] in (3, 7)
            return False

        cctx.loss_filter = drop_3_and_7
        cctx.conn.send_stream(ZeroPayload(30_000))
        sim.run(until=sim.now + 3_000_000)
        assert len(sctx.delivered_bytes) == 30_000
        assert cctx.conn.stats.rto_timeouts == 0
        assert cctx.conn.stats.retransmitted_segs == 2
        assert cctx.conn.stats.sack_retransmits >= 1

    def test_sack_beats_plain_reassembly_under_loss(self, sim):
        def run(use_sack):
            s = Simulator()
            cfg = sack_cfg(use_sack=use_sack, min_rto=50_000,
                           send_buffer=256 * 1024)
            a, b = make_pair(s, cfg, cfg)
            establish(s, a, b)
            rng = random.Random(5)
            a.loss_filter = lambda h, p: p.length > 0 and rng.random() < 0.05
            t0 = s.now
            a.conn.send_stream(ZeroPayload(100_000))

            def feeder():
                while len(b.delivered_bytes) < 100_000:
                    yield s.timeout(10_000)
                return s.now - t0

            elapsed = s.run_process(feeder(), until=600_000_000)
            return elapsed, a.conn.stats

        with_sack, s1 = run(True)
        without, s2 = run(False)
        assert with_sack <= without
        assert s1.rto_timeouts <= s2.rto_timeouts

    def test_blocks_describe_reassembly_queue(self, sim):
        cctx, sctx = make_pair(sim, sack_cfg(), sack_cfg())
        establish(sim, cctx, sctx)
        cctx.loss_filter = self._drop_nth_data(1)
        cctx.conn.send_stream(ZeroPayload(5000))
        sim.run(until=sim.now + 30_000)
        # The receiver queued everything after the hole and advertised it.
        sacky = [h for _, h, l in sctx.sent if h.sack_blocks]
        assert sacky
        left, right = sacky[-1].sack_blocks[0]
        assert (right - left) % (2 ** 32) > 0

    def test_rto_clears_scoreboard(self, sim):
        cctx, sctx = make_pair(sim, sack_cfg(min_rto=30_000), sack_cfg())
        establish(sim, cctx, sctx)
        # Black-hole everything after the first two data segments so
        # recovery must fall back to RTO.
        state = {"count": 0}

        def drop_rest(hdr, payload):
            if payload.length > 0:
                state["count"] += 1
                return state["count"] > 2
            return False

        cctx.loss_filter = drop_rest
        cctx.conn.send_stream(ZeroPayload(8000))
        sim.run(until=sim.now + 200_000)
        cctx.loss_filter = None
        sim.run(until=sim.now + 10_000_000)
        assert len(sctx.delivered_bytes) == 8000
        assert cctx.conn.stats.rto_timeouts >= 1
        assert all(not c.sacked for c in cctx.conn._retx)   # queue drained
