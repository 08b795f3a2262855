"""TCP state-machine edge cases and adversarial scenarios."""

import pytest

from repro.errors import ConnectionReset
from repro.net.headers.transport import ACK, FIN, RST, SYN, TCPHeader
from repro.net.packet import BytesPayload, ZeroPayload
from repro.net.tcp import TcpConfig, TcpState
from repro.sim import Simulator

from helpers_tcp import PipeCtx, establish, make_pair


@pytest.fixture
def sim():
    return Simulator()


class TestHeaderPrediction:
    def test_clean_transfer_is_mostly_fast_path(self, sim):
        cctx, sctx = make_pair(sim, TcpConfig(mss=1000), TcpConfig(mss=1000))
        establish(sim, cctx, sctx)
        cctx.conn.send_stream(ZeroPayload(50_000))
        sim.run(until=sim.now + 5_000_000)
        rs = sctx.conn.stats
        # Receiver: nearly every segment was predicted in-order data.
        assert rs.fastpath_data > 40
        assert rs.fastpath_data > 10 * rs.slowpath
        # Sender: nearly every inbound segment was a predicted ACK.
        cs = cctx.conn.stats
        assert cs.fastpath_ack >= 5           # cumulative ACKs batch heavily
        assert cs.fastpath_ack > 3 * cs.slowpath

    def test_out_of_order_goes_slow_path(self, sim):
        cfg = TcpConfig(mss=1000, reassembly=True, min_rto=1_000_000)
        cctx, sctx = make_pair(sim, cfg, cfg)
        establish(sim, cctx, sctx)
        state = {"dropped": False}

        def drop_one(hdr, payload):
            if payload.length and not state["dropped"]:
                state["dropped"] = True
                return True
            return False

        cctx.loss_filter = drop_one
        for i in range(6):
            cctx.conn.send_message(ZeroPayload(500), msg_id=i) \
                if cfg.message_mode else cctx.conn.send_stream(ZeroPayload(500))
        sim.run(until=sim.now + 2_000_000)
        assert sctx.conn.stats.slowpath >= 1   # the gap segments


class TestRstScenarios:
    def test_rst_mid_transfer_aborts_both(self, sim):
        cctx, sctx = make_pair(sim)
        establish(sim, cctx, sctx)
        cctx.conn.send_stream(ZeroPayload(1000))
        sim.run(until=sim.now + 50_000)
        sctx.conn.abort()
        sim.run(until=sim.now + 100_000)
        assert cctx.reset_exc is not None
        assert cctx.conn.state is TcpState.CLOSED

    def test_blind_rst_outside_window_ignored(self, sim):
        cctx, sctx = make_pair(sim)
        establish(sim, cctx, sctx)
        # Forge an RST far outside the receive window.
        forged = TCPHeader(cctx.conn.tuple.local.port,
                           cctx.conn.tuple.remote.port,
                           seq=(sctx.conn.rcv_nxt + 1_000_000) & 0xFFFFFFFF,
                           flags=RST)
        sctx.conn.handle_segment(forged, ZeroPayload(0))
        sim.run(until=sim.now + 10_000)
        assert sctx.conn.state is TcpState.ESTABLISHED
        assert sctx.reset_exc is None

    def test_in_window_syn_resets(self, sim):
        cctx, sctx = make_pair(sim)
        establish(sim, cctx, sctx)
        forged = TCPHeader(cctx.conn.tuple.local.port,
                           cctx.conn.tuple.remote.port,
                           seq=sctx.conn.rcv_nxt, ack=sctx.conn.snd_una,
                           flags=SYN | ACK)
        sctx.conn.handle_segment(forged, ZeroPayload(0))
        assert sctx.conn.state is TcpState.CLOSED
        assert sctx.reset_exc is not None


class TestCloseEdges:
    def test_fin_retransmitted_when_lost(self, sim):
        cfg = TcpConfig(min_rto=20_000)
        cctx, sctx = make_pair(sim, cfg, TcpConfig())
        establish(sim, cctx, sctx)
        state = {"dropped": False}

        def drop_first_fin(hdr, payload):
            if hdr.flags & FIN and not state["dropped"]:
                state["dropped"] = True
                return True
            return False

        cctx.loss_filter = drop_first_fin
        cctx.conn.close()
        sim.run(until=sim.now + 5_000_000)
        assert state["dropped"]
        assert sctx.remote_fin                 # retransmitted FIN arrived
        assert cctx.conn.state in (TcpState.FIN_WAIT_2, TcpState.TIME_WAIT,
                                   TcpState.CLOSED)

    def test_time_wait_acks_retransmitted_fin(self, sim):
        cfg = TcpConfig(msl=50_000)
        cctx, sctx = make_pair(sim, cfg, cfg)
        establish(sim, cctx, sctx)
        cctx.conn.close()
        sim.run(until=sim.now + 50_000)
        sctx.conn.close()
        sim.run(until=sim.now + 20_000)
        assert cctx.conn.state is TcpState.TIME_WAIT
        # The server's FIN shows up again (ACK lost, say).
        fin = TCPHeader(sctx.conn.tuple.local.port,
                        sctx.conn.tuple.remote.port,
                        seq=(sctx.conn.snd_nxt - 1) & 0xFFFFFFFF,
                        ack=sctx.conn.rcv_nxt, flags=FIN | ACK)
        acks_before = len([s for s in cctx.sent if s[2] == 0])
        cctx.conn.handle_segment(fin, ZeroPayload(0))
        sim.run(until=sim.now + 10_000)
        acks_after = len([s for s in cctx.sent if s[2] == 0])
        assert acks_after > acks_before        # re-ACKed from TIME_WAIT

    def test_close_while_data_unacked_still_delivers(self, sim):
        cctx, sctx = make_pair(sim, TcpConfig(mss=1000), TcpConfig(mss=1000))
        establish(sim, cctx, sctx)
        cctx.conn.send_stream(ZeroPayload(10_000))
        cctx.conn.close()                      # FIN queued behind the data
        sim.run(until=sim.now + 5_000_000)
        assert len(sctx.delivered_bytes) == 10_000
        assert sctx.remote_fin

    def test_send_after_close_raises(self, sim):
        cctx, sctx = make_pair(sim)
        establish(sim, cctx, sctx)
        cctx.conn.close()
        with pytest.raises(ConnectionReset):
            cctx.conn.send_stream(ZeroPayload(10))


class TestWindowEdges:
    def test_window_never_shrinks_past_promise(self, sim):
        # Once advertised, window edge must not retreat even if credit drops.
        cfg = TcpConfig(message_mode=True, mss=1000)
        cctx, sctx = make_pair(sim, cfg, cfg)
        sctx.conn.enable_credit_window(8000)
        establish(sim, cctx, sctx)
        sim.run(until=sim.now + 10_000)
        edge_before = sctx.conn.rcv_adv
        sctx.conn.set_receive_credit(0)        # app tears down its buffers
        cctx.conn.send_message(ZeroPayload(500), msg_id=0)
        sim.run(until=sim.now + 100_000)
        # The promised window still admitted the message.
        assert len(sctx.delivered) == 1
        assert not pytest.approx(0) == edge_before

    def test_tiny_receive_buffer_trickles(self, sim):
        cfg_s = TcpConfig(mss=1000, recv_buffer=1500)
        cctx, sctx = make_pair(sim, TcpConfig(mss=1000), cfg_s)
        establish(sim, cctx, sctx)
        cctx.conn.send_stream(ZeroPayload(30_000))
        sim.run(until=sim.now + 30_000_000)
        assert len(sctx.delivered_bytes) == 30_000   # slow but complete


class TestSimultaneousOpen:
    def test_both_sides_syn(self, sim):
        cctx, sctx = make_pair(sim)
        # Both actively open toward each other at once.
        cctx.conn.connect()
        sctx.conn.connect()
        sim.run(until=sim.now + 5_000_000)
        # RFC 793 simultaneous open: both should land in ESTABLISHED.
        assert cctx.conn.state is TcpState.ESTABLISHED
        assert sctx.conn.state is TcpState.ESTABLISHED
        cctx.conn.send_stream(BytesPayload(b"sim-open"))
        sim.run(until=sim.now + 1_000_000)
        assert sctx.delivered_bytes == b"sim-open"


class TestTimestampBehaviour:
    def test_ts_recent_tracks_peer_clock(self, sim):
        cctx, sctx = make_pair(sim, TcpConfig(), TcpConfig())
        establish(sim, cctx, sctx)
        for _ in range(5):
            cctx.conn.send_stream(ZeroPayload(100))
            sim.run(until=sim.now + 10_000)
        assert sctx.conn.ts_recent >= 0
        # Echoed timestamps appear on the wire.
        data_segs = [h for _, h, l in cctx.sent if l > 0]
        assert all(h.ts_val is not None for h in data_segs)

    def test_no_timestamps_when_disabled(self, sim):
        cfg = TcpConfig(use_timestamps=False)
        cctx, sctx = make_pair(sim, cfg, cfg)
        establish(sim, cctx, sctx)
        cctx.conn.send_stream(ZeroPayload(100))
        sim.run(until=sim.now + 100_000)
        data_segs = [h for _, h, l in cctx.sent if l > 0]
        assert all(h.ts_val is None for h in data_segs)
