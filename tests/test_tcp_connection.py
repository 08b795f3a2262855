"""End-to-end tests of the TCP connection engine over the delay pipe."""

import pytest

from repro.errors import ConnectionReset
from repro.net.headers.transport import ACK, FIN, SYN
from repro.net.packet import BytesPayload, ZeroPayload
from repro.net.tcp import TcpConfig, TcpState
from repro.sim import Simulator

from helpers_tcp import PipeCtx, establish, make_pair


@pytest.fixture
def sim():
    return Simulator()


def msg_cfg(**kw):
    kw.setdefault("message_mode", True)
    kw.setdefault("mss", 16324)
    return TcpConfig(**kw)


class TestHandshake:
    def test_three_way_handshake(self, sim):
        cctx, sctx = make_pair(sim)
        cctx.conn.connect()
        sim.run(until=1000)
        assert cctx.conn.state is TcpState.ESTABLISHED
        assert sctx.conn.state is TcpState.ESTABLISHED
        assert cctx.established and sctx.established
        # SYN, SYN|ACK, ACK = exactly three segments.
        assert len(cctx.sent) + len(sctx.sent) == 3

    def test_options_negotiated(self, sim):
        cctx, sctx = make_pair(sim,
                               TcpConfig(mss=9000, max_window=1 << 20),
                               TcpConfig(mss=1460, max_window=1 << 20))
        establish(sim, cctx, sctx)
        assert cctx.conn.peer_mss == 1460
        assert sctx.conn.peer_mss == 9000
        assert cctx.conn.ts_ok and sctx.conn.ts_ok
        assert cctx.conn.ws_ok and sctx.conn.ws_ok
        # Effective MSS is the min of the two, less timestamp overhead.
        assert cctx.conn.effective_mss == 1460 - 12

    def test_timestamps_disabled_when_one_side_lacks_them(self, sim):
        cctx, sctx = make_pair(sim, TcpConfig(use_timestamps=False), TcpConfig())
        establish(sim, cctx, sctx)
        assert not cctx.conn.ts_ok and not sctx.conn.ts_ok
        assert cctx.conn.effective_mss == 1460

    def test_no_window_scaling_when_not_offered(self, sim):
        cctx, sctx = make_pair(sim, TcpConfig(use_window_scaling=False),
                               TcpConfig())
        establish(sim, cctx, sctx)
        assert not cctx.conn.ws_ok
        assert cctx.conn.snd_wscale == 0

    def test_syn_retransmitted_on_loss(self, sim):
        cctx, sctx = make_pair(sim)
        drops = []
        cctx.loss_filter = lambda hdr, p: (hdr.flags & SYN
                                           and not drops.append(1)
                                           and len(drops) <= 1)
        cctx.conn.connect()
        sim.run(until=3_000_000)
        assert cctx.conn.state is TcpState.ESTABLISHED
        assert cctx.conn.stats.retransmitted_segs >= 1

    def test_syn_retry_exhaustion_resets(self, sim):
        cctx, sctx = make_pair(sim, TcpConfig(syn_retries=2))
        cctx.loss_filter = lambda hdr, p: True   # black hole
        cctx.conn.connect()
        sim.run(until=60_000_000)
        assert cctx.reset_exc is not None
        assert cctx.conn.state is TcpState.CLOSED


class TestMessageMode:
    def test_single_message_delivery_and_completion(self, sim):
        cctx, sctx = make_pair(sim, msg_cfg(), msg_cfg())
        establish(sim, cctx, sctx)
        cctx.conn.send_message(BytesPayload(b"ping"), msg_id=7)
        sim.run(until=sim.now + 500_000)
        assert sctx.delivered_bytes == b"ping"
        assert cctx.completions == [7]  # completed when ACKed (paper §3)

    def test_message_boundaries_preserved(self, sim):
        cctx, sctx = make_pair(sim, msg_cfg(), msg_cfg())
        establish(sim, cctx, sctx)
        for i, m in enumerate([b"alpha", b"bee", b"gamma!"]):
            cctx.conn.send_message(BytesPayload(m), msg_id=i)
        sim.run(until=sim.now + 500_000)
        assert [p.to_bytes() for p, _ in sctx.delivered] == \
            [b"alpha", b"bee", b"gamma!"]
        assert cctx.completions == [0, 1, 2]

    def test_oversized_message_rejected(self, sim):
        cctx, sctx = make_pair(sim, msg_cfg(mss=1000), msg_cfg(mss=1000))
        establish(sim, cctx, sctx)
        with pytest.raises(ConnectionReset):
            cctx.conn.send_message(ZeroPayload(5000))

    def test_messages_queued_before_establishment_flow_after(self, sim):
        cctx, sctx = make_pair(sim, msg_cfg(), msg_cfg())
        cctx.conn.connect()
        cctx.conn.send_message(BytesPayload(b"early"), msg_id=1)
        sim.run(until=500_000)
        assert sctx.delivered_bytes == b"early"

    def test_bulk_messages_all_arrive_in_order(self, sim):
        cctx, sctx = make_pair(sim, msg_cfg(mss=4096), msg_cfg(mss=4096))
        establish(sim, cctx, sctx)
        count = 200
        for i in range(count):
            cctx.conn.send_message(BytesPayload(i.to_bytes(4, "big") * 100),
                                   msg_id=i)
        sim.run(until=sim.now + 5_000_000)
        assert len(sctx.delivered) == count
        for i, (p, _) in enumerate(sctx.delivered):
            assert p.to_bytes()[:4] == i.to_bytes(4, "big")
        assert cctx.completions == list(range(count))

    def test_zero_length_message(self, sim):
        # A zero-length message takes no sequence space, so no ACK can
        # cover it: it is refused rather than queued where it would never
        # complete.  (The verbs layer turns this into a LOCAL_LENGTH_ERROR
        # CQE before it gets here.)
        cctx, sctx = make_pair(sim, msg_cfg(), msg_cfg())
        establish(sim, cctx, sctx)
        sent = len(cctx.sent)
        with pytest.raises(ConnectionReset):
            cctx.conn.send_message(ZeroPayload(0), msg_id=3)
        sim.run(until=sim.now + 500_000)
        assert cctx.completions == [] and sctx.delivered == []
        assert len(cctx.sent) == sent


class TestStreamMode:
    def test_large_write_segmented_at_mss(self, sim):
        cctx, sctx = make_pair(sim, TcpConfig(mss=1460), TcpConfig(mss=1460))
        establish(sim, cctx, sctx)
        data = bytes(range(256)) * 20   # 5120 bytes
        taken = cctx.conn.send_stream(BytesPayload(data))
        assert taken == len(data)
        sim.run(until=sim.now + 1_000_000)
        assert sctx.delivered_bytes == data
        # Segments capped at effective MSS.
        data_segs = [s for s in cctx.sent if s[2] > 0]
        assert all(s[2] <= cctx.conn.effective_mss for s in data_segs)
        assert len(data_segs) >= 4

    def test_send_buffer_backpressure(self, sim):
        cfg = TcpConfig(send_buffer=4096, mss=1460)
        cctx, sctx = make_pair(sim, cfg, TcpConfig())
        establish(sim, cctx, sctx)
        taken1 = cctx.conn.send_stream(ZeroPayload(10_000))
        assert taken1 == 4096
        sim.run(until=sim.now + 1_000_000)
        assert cctx.buffer_space_signals > 0
        assert cctx.conn.send_space() == 4096

    def test_interleaved_small_writes_coalesce(self, sim):
        cctx, sctx = make_pair(sim, TcpConfig(mss=1460), TcpConfig(mss=1460))
        establish(sim, cctx, sctx)

        def writer():
            for i in range(10):
                cctx.conn.send_stream(BytesPayload(bytes([i]) * 10))
                yield sim.timeout(1)

        sim.process(writer())
        sim.run(until=sim.now + 1_000_000)
        assert len(sctx.delivered_bytes) == 100

    def test_nagle_holds_small_segments(self, sim):
        cfg = TcpConfig(mss=1000, nodelay=False)
        cctx, sctx = make_pair(sim, cfg, TcpConfig(mss=1000))
        establish(sim, cctx, sctx)
        cctx.sent.clear()
        # Two small writes in quick succession: second waits for first's ACK.
        cctx.conn.send_stream(BytesPayload(b"a" * 10))
        cctx.conn.send_stream(BytesPayload(b"b" * 10))
        sim.run(until=sim.now + 1_000_000)
        data_segs = [s for s in cctx.sent if s[2] > 0]
        assert len(data_segs) == 2          # not 1 combined, not 3
        assert sctx.delivered_bytes == b"a" * 10 + b"b" * 10

    def test_stream_api_mismatch_raises(self, sim):
        cctx, sctx = make_pair(sim, msg_cfg(), msg_cfg())
        establish(sim, cctx, sctx)
        with pytest.raises(ConnectionReset):
            cctx.conn.send_stream(ZeroPayload(10))
        cctx2, sctx2 = make_pair(sim)
        with pytest.raises(ConnectionReset):
            cctx2.conn.send_message(ZeroPayload(10))


class TestAcking:
    def test_delayed_ack_single_segment(self, sim):
        cfg = TcpConfig(delack_segments=2, delack_timeout=200_000)
        cctx, sctx = make_pair(sim, cfg, cfg)
        establish(sim, cctx, sctx)
        t0 = sim.now
        sctx.sent.clear()
        cctx.conn.send_stream(BytesPayload(b"x"))
        sim.run(until=t0 + 150_000)
        acks = [s for s in sctx.sent if s[2] == 0]
        assert not acks                       # still delayed
        sim.run(until=t0 + 400_000)
        acks = [s for s in sctx.sent if s[2] == 0]
        assert len(acks) == 1                 # fired on the delack timer

    def test_every_second_segment_acked_immediately(self, sim):
        cfg = TcpConfig(delack_segments=2, mss=1000)
        cctx, sctx = make_pair(sim, cfg, cfg)
        establish(sim, cctx, sctx)
        sctx.sent.clear()
        cctx.conn.send_stream(ZeroPayload(2000))  # exactly 2 segments
        sim.run(until=sim.now + 50_000)
        acks = [s for s in sctx.sent if s[2] == 0]
        assert len(acks) == 1

    def test_rtt_estimate_tracks_pipe_delay(self, sim):
        cctx, sctx = make_pair(sim, msg_cfg(), msg_cfg(), delay=50.0)
        establish(sim, cctx, sctx)
        for i in range(20):
            cctx.conn.send_message(ZeroPayload(100), msg_id=i)
            sim.run(until=sim.now + 300_000)
        assert cctx.conn.rtt.samples >= 5
        # True RTT is 100 µs (+ delack delay on pure-ack paths).
        assert 90 <= cctx.conn.rtt.srtt <= 300_000


class TestLossRecovery:
    def test_rto_retransmission(self, sim):
        cctx, sctx = make_pair(sim, msg_cfg(min_rto=20_000), msg_cfg())
        establish(sim, cctx, sctx)
        dropped = []

        def drop_first_data(hdr, payload):
            if payload.length > 0 and not dropped:
                dropped.append(hdr.seq)
                return True
            return False

        cctx.loss_filter = drop_first_data
        cctx.conn.send_message(BytesPayload(b"retry-me"), msg_id=0)
        sim.run(until=sim.now + 5_000_000)
        assert sctx.delivered_bytes == b"retry-me"
        assert cctx.conn.stats.rto_timeouts >= 1
        assert cctx.conn.stats.retransmitted_segs >= 1
        assert cctx.completions == [0]

    def test_fast_retransmit_with_reassembly(self, sim):
        cfg = msg_cfg(mss=1000, reassembly=True, min_rto=1_000_000)
        cctx, sctx = make_pair(sim, cfg, cfg)
        establish(sim, cctx, sctx)
        state = {"dropped": False}

        def drop_one(hdr, payload):
            if payload.length > 0 and not state["dropped"]:
                state["dropped"] = True
                return True
            return False

        cctx.loss_filter = drop_one
        for i in range(8):
            cctx.conn.send_message(BytesPayload(bytes([i]) * 500), msg_id=i)
        sim.run(until=sim.now + 500_000)
        # Recovered via fast retransmit well before the 1 s RTO.
        assert cctx.conn.stats.fast_retransmits == 1
        assert cctx.conn.stats.rto_timeouts == 0
        assert len(sctx.delivered) == 8
        # Reassembly queue preserved the out-of-order segments.
        assert sctx.conn.stats.ooo_queued >= 1
        assert cctx.completions == list(range(8))

    def test_no_reassembly_drops_out_of_order(self, sim):
        cfg = msg_cfg(mss=1000, reassembly=False, min_rto=50_000)
        cctx, sctx = make_pair(sim, cfg, cfg)
        establish(sim, cctx, sctx)
        state = {"dropped": False}

        def drop_one(hdr, payload):
            if payload.length > 0 and not state["dropped"]:
                state["dropped"] = True
                return True
            return False

        cctx.loss_filter = drop_one
        for i in range(8):
            cctx.conn.send_message(BytesPayload(bytes([i]) * 500), msg_id=i)
        sim.run(until=sim.now + 10_000_000)
        # Everything still arrives (retransmission), but the out-of-order
        # segments were discarded on first receipt (prototype behaviour).
        assert len(sctx.delivered) == 8
        assert sctx.conn.stats.ooo_dropped >= 1
        assert cctx.conn.stats.retransmitted_segs >= 2
        assert cctx.completions == list(range(8))

    def test_ack_loss_recovered_by_retransmit(self, sim):
        cctx, sctx = make_pair(sim, msg_cfg(min_rto=20_000), msg_cfg())
        establish(sim, cctx, sctx)
        state = {"dropped": False}

        def drop_first_ack(hdr, payload):
            if payload.length == 0 and not state["dropped"]:
                state["dropped"] = True
                return True
            return False

        sctx.loss_filter = drop_first_ack
        cctx.conn.send_message(BytesPayload(b"m"), msg_id=0)
        sim.run(until=sim.now + 5_000_000)
        assert cctx.completions == [0]
        # Receiver saw the data twice; duplicate discarded.
        assert sctx.conn.stats.duplicate_data_segs >= 1
        assert sctx.delivered_bytes == b"m"

    def test_heavy_random_loss_still_delivers_everything(self, sim):
        import random
        rng = random.Random(42)
        cfg = msg_cfg(mss=1000, min_rto=20_000, reassembly=True)
        cctx, sctx = make_pair(sim, cfg, cfg)
        establish(sim, cctx, sctx)
        cctx.loss_filter = lambda h, p: rng.random() < 0.2
        sctx.loss_filter = lambda h, p: rng.random() < 0.2
        count = 50
        for i in range(count):
            cctx.conn.send_message(BytesPayload(i.to_bytes(2, "big") * 50),
                                   msg_id=i)
        sim.run(until=sim.now + 120_000_000)
        assert len(sctx.delivered) == count
        for i, (p, _) in enumerate(sctx.delivered):
            assert p.to_bytes()[:2] == i.to_bytes(2, "big")
        assert cctx.completions == list(range(count))


class TestFlowControl:
    def test_credit_window_blocks_until_posted(self, sim):
        cfg = msg_cfg(mss=1000)
        cctx, sctx = make_pair(sim, cfg, cfg)
        sctx.conn.enable_credit_window(0)     # no receive WRs posted yet
        establish(sim, cctx, sctx)
        cctx.conn.send_message(ZeroPayload(800), msg_id=0)
        sim.run(until=sim.now + 300_000)
        assert not sctx.delivered              # zero window: nothing sent
        assert cctx.conn.snd_wnd == 0
        sctx.conn.set_receive_credit(2048)     # post receive buffers
        sim.run(until=sim.now + 300_000)
        assert len(sctx.delivered) == 1        # window update released it
        assert cctx.completions == [0]

    def test_window_tracks_posted_credit(self, sim):
        cfg = msg_cfg(mss=1000)
        cctx, sctx = make_pair(sim, cfg, cfg)
        sctx.conn.enable_credit_window(50_000)
        establish(sim, cctx, sctx)
        sim.run(until=sim.now + 1000)
        # Paper §5.1: "the more receive buffer space posted, the larger
        # the TCP receive window the sender can utilize".
        assert 49_000 <= cctx.conn.snd_wnd <= 50_000

    def test_persist_probe_elicits_window_update(self, sim):
        cfg = TcpConfig(mss=1000, persist_timeout=50_000)
        # Stream mode with a small receive buffer that fills up.
        cfg_recv = TcpConfig(mss=1000, recv_buffer=2000)
        cctx, sctx = make_pair(sim, cfg, cfg_recv)
        sctx.auto_consume = False
        establish(sim, cctx, sctx)
        cctx.conn.send_stream(ZeroPayload(5000))
        sim.run(until=sim.now + 400_000)
        assert cctx.conn.snd_wnd == 0          # receiver buffer full
        stalled_at = len(sctx.delivered_bytes)
        assert stalled_at < 5000
        # Window-update ACK from the app reading data was lost? Simulate by
        # consuming while updates flow normally: eventually all data lands.
        sctx.conn.app_consumed(stalled_at)
        sim.run(until=sim.now + 2_000_000)
        sctx.conn.app_consumed(len(sctx.delivered_bytes) - stalled_at)
        sim.run(until=sim.now + 2_000_000)
        assert len(sctx.delivered_bytes) == 5000

    def test_persist_probe_fires_when_update_lost(self, sim):
        cfg = TcpConfig(mss=1000, persist_timeout=50_000)
        cfg_recv = TcpConfig(mss=1000, recv_buffer=1000)
        cctx, sctx = make_pair(sim, cfg, cfg_recv)
        sctx.auto_consume = False
        establish(sim, cctx, sctx)
        cctx.conn.send_stream(ZeroPayload(3000))
        sim.run(until=sim.now + 200_000)
        assert cctx.conn.snd_wnd == 0
        # Drop the window-update ACK the receiver sends after the app reads.
        state = {"drops": 0}

        def drop_next_ack(hdr, payload):
            if payload.length == 0 and state["drops"] == 0:
                state["drops"] += 1
                return True
            return False

        sctx.loss_filter = drop_next_ack
        sctx.conn.app_consumed(1000)   # window update for this gets dropped
        sim.run(until=sim.now + 2_000_000)
        assert cctx.conn.stats.window_probes >= 1  # probe recovered the stall

        def consumer():
            while len(sctx.delivered_bytes) < 3000:
                buffered = sctx.conn._rcv_buffered
                if buffered:
                    sctx.conn.app_consumed(buffered)
                yield sim.timeout(10_000)

        sim.process(consumer())
        sim.run(until=sim.now + 10_000_000)
        assert len(sctx.delivered_bytes) == 3000


class TestClose:
    def test_graceful_close_four_way(self, sim):
        cctx, sctx = make_pair(sim)
        establish(sim, cctx, sctx)
        cctx.conn.close()
        sim.run(until=sim.now + 100_000)
        assert sctx.remote_fin
        assert sctx.conn.state is TcpState.CLOSE_WAIT
        assert cctx.conn.state is TcpState.FIN_WAIT_2
        sctx.conn.close()
        sim.run(until=sim.now + 100_000)
        assert sctx.closed                     # LAST_ACK -> CLOSED
        assert cctx.conn.state is TcpState.TIME_WAIT
        sim.run(until=sim.now + 5_000_000)     # 2 MSL
        assert cctx.closed

    def test_close_flushes_pending_data_first(self, sim):
        cctx, sctx = make_pair(sim, msg_cfg(), msg_cfg())
        establish(sim, cctx, sctx)
        cctx.conn.send_message(BytesPayload(b"last words"), msg_id=0)
        cctx.conn.close()
        sim.run(until=sim.now + 500_000)
        assert sctx.delivered_bytes == b"last words"
        assert sctx.remote_fin

    def test_simultaneous_close(self, sim):
        cctx, sctx = make_pair(sim)
        establish(sim, cctx, sctx)
        cctx.conn.close()
        sctx.conn.close()
        sim.run(until=sim.now + 10_000_000)
        assert cctx.closed and sctx.closed

    def test_abort_sends_rst(self, sim):
        cctx, sctx = make_pair(sim)
        establish(sim, cctx, sctx)
        cctx.conn.abort()
        sim.run(until=sim.now + 100_000)
        assert cctx.closed
        assert sctx.reset_exc is not None
        assert sctx.conn.state is TcpState.CLOSED

    def test_data_after_remote_fin_still_flows(self, sim):
        # Half-close: client FINs, server keeps sending (CLOSE_WAIT data).
        cctx, sctx = make_pair(sim, msg_cfg(), msg_cfg())
        establish(sim, cctx, sctx)
        cctx.conn.close()
        sim.run(until=sim.now + 100_000)
        assert sctx.conn.state is TcpState.CLOSE_WAIT
        sctx.conn.send_message(BytesPayload(b"still here"), msg_id=9)
        sim.run(until=sim.now + 500_000)
        assert cctx.delivered_bytes == b"still here"
        assert sctx.completions == [9]


class TestSequenceWrap:
    def test_transfer_across_seq_wraparound(self, sim):
        cctx, sctx = make_pair(sim, msg_cfg(mss=1000), msg_cfg(mss=1000))
        # Force the ISS near the top of sequence space.
        cctx.conn.iss = cctx.conn.snd_una = cctx.conn.snd_nxt = (1 << 32) - 1500
        establish(sim, cctx, sctx)
        for i in range(10):
            cctx.conn.send_message(BytesPayload(bytes([i]) * 500), msg_id=i)
        sim.run(until=sim.now + 2_000_000)
        assert len(sctx.delivered) == 10
        assert cctx.completions == list(range(10))
        assert cctx.conn.snd_nxt < (1 << 31)   # wrapped


class TestStats:
    def test_counters_consistent_after_clean_transfer(self, sim):
        cctx, sctx = make_pair(sim, msg_cfg(), msg_cfg())
        establish(sim, cctx, sctx)
        for i in range(10):
            cctx.conn.send_message(ZeroPayload(256), msg_id=i)
        sim.run(until=sim.now + 2_000_000)
        cs, ss = cctx.conn.stats, sctx.conn.stats
        assert cs.bytes_out == 2560
        assert ss.bytes_in == 2560
        assert cs.retransmitted_segs == 0
        assert ss.ooo_segments == 0
        assert cs.segs_out >= 11      # SYN + 10 data
        assert ss.segs_in == cs.segs_out
