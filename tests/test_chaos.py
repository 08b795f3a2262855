"""Chaos suite: full workloads under fault plans, checking the system's
end-to-end invariants (exact delivery, WR conservation, determinism,
total flush on QP death).  The harness lives in `repro.faults.chaos`."""

import gc

import pytest

from repro.core.qp import QPState
from repro.faults import FaultPlan, check_determinism, run_chaos
from repro.mem import PhysicalMemory


def lossy_plan():
    return FaultPlan().drop(0.02).corrupt(0.01)


def hostile_plan():
    return (FaultPlan().drop(0.03).corrupt(0.02)
            .reorder(0.05, delay=40.0, jitter=20.0)
            .duplicate(0.02))


def bursty_plan():
    return FaultPlan().drop(0.01, burst=4).corrupt(0.01)


PLANS = {
    "clean": FaultPlan,
    "lossy": lossy_plan,
    "hostile": hostile_plan,
    "bursty": bursty_plan,
}


class TestInvariantsUnderFaults:
    @pytest.mark.parametrize("workload", ["ttcp", "pingpong"])
    @pytest.mark.parametrize("plan_name", list(PLANS))
    def test_delivery_and_wr_conservation(self, workload, plan_name):
        result = run_chaos(seed=7, workload=workload,
                           plan=PLANS[plan_name](),
                           messages=32, msg_size=4096)
        assert result.ok, result.summary()
        assert result.messages_delivered == 32
        assert result.bytes_delivered == result.bytes_sent
        assert result.duplicate_messages == 0
        assert result.payload_mismatches == 0
        assert result.client_completed == result.client_posted
        assert result.server_completed == result.server_posted

    def test_faults_actually_fired(self):
        """Guard against a silently inert harness: under the hostile plan
        the wire counters and TCP recovery machinery must show activity."""
        result = run_chaos(seed=7, plan=hostile_plan(), messages=48)
        assert result.ok, result.summary()
        faults = result.fault_counts
        assert faults.get("wire_drops", 0) > 0
        assert faults.get("wire_corruptions", 0) > 0
        assert faults.get("checksum_drops", 0) > 0
        assert result.tcp_stats["retransmitted_segs"] > 0

    def test_corruption_recovery_is_bit_exact(self):
        """Satellite check: every corrupted packet dies in the checksum
        and the retransmitted copy delivers the original bytes."""
        result = run_chaos(seed=3, plan=FaultPlan().corrupt(0.05),
                           messages=32, msg_size=4096)
        assert result.ok, result.summary()
        assert result.fault_counts["wire_corruptions"] > 0
        assert result.fault_counts["checksum_drops"] > 0
        assert result.payload_mismatches == 0        # nothing leaked through


class TestDeterminism:
    @pytest.mark.parametrize("kill", ["none", "rst"])
    def test_same_seed_same_trace(self, kill):
        first, second = check_determinism(
            seed=11, plan=lossy_plan(), messages=24, kill=kill)
        assert first.trace_key() == second.trace_key()
        assert first.ok and second.ok

    def test_different_seeds_diverge(self):
        one = run_chaos(seed=1, plan=hostile_plan(), messages=24)
        two = run_chaos(seed=2, plan=hostile_plan(), messages=24)
        assert one.trace_key() != two.trace_key()


class TestKillSemantics:
    """A QP killed mid-transfer must flush 100% of outstanding WRs and
    the application must survive to count them."""

    @pytest.mark.parametrize("workload", ["ttcp", "pingpong"])
    def test_rst_flushes_every_wr(self, workload):
        result = run_chaos(seed=5, workload=workload, kill="rst",
                           kill_at=4_000.0, messages=64)
        assert result.ok, result.summary()
        assert result.client_qp_state == QPState.ERROR.name
        assert result.client_completed == result.client_posted
        assert result.server_completed == result.server_posted
        # The kill landed mid-transfer, not after the fact.
        assert result.messages_delivered < 64

    def test_dma_fault_flushes_every_wr(self):
        result = run_chaos(seed=5, kill="dma", kill_at=4_000.0, messages=64)
        assert result.ok, result.summary()
        assert result.client_qp_state == QPState.ERROR.name
        assert result.client_completed == result.client_posted
        assert result.fault_counts["dma_faults"] > 0
        assert result.fault_counts["dma_wr_errors"] > 0

    def test_kill_under_wire_faults(self):
        """The hardest case: wire chaos *and* a mid-flight kill."""
        result = run_chaos(seed=9, plan=lossy_plan(), kill="rst",
                           kill_at=6_000.0, messages=64)
        assert result.ok, result.summary()
        assert result.client_completed == result.client_posted
        assert result.server_completed == result.server_posted


def _memories_holding_frames():
    return {id(mem) for mem in gc.get_objects()
            if isinstance(mem, PhysicalMemory) and mem.frames_materialized}


@pytest.mark.parametrize("recover", [False, True])
def test_a_finished_run_gives_its_simulated_ram_back(recover):
    """A world is one reference cycle, so it outlives ``run_chaos`` until
    the next full collection; its 4 KiB frames must not."""
    gc.collect()                    # earlier tests' garbage is gone
    before = _memories_holding_frames()
    result = run_chaos(seed=3, plan=lossy_plan(), recover=recover,
                       messages=32, msg_size=4096)
    assert result.ok, result.summary()
    # No collection here: the dead world is still in gc.get_objects().
    assert _memories_holding_frames() <= before
