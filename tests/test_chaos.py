"""Chaos suite: full workloads under fault plans, checking the system's
end-to-end invariants (exact delivery, WR conservation, determinism,
total flush on QP death).  The harness lives in `repro.faults.chaos`."""

import gc

import pytest

from repro.core.qp import QPState
from repro.faults import FaultPlan, chaos, check_determinism, run_chaos
from repro.faults.chaos import CQE_RECORD
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


def _memories():
    return {id(mem) for mem in gc.get_objects()
            if isinstance(mem, PhysicalMemory)}


@pytest.mark.parametrize("recover", [False, True])
def test_a_finished_run_gives_its_simulated_ram_back(recover):
    """A world is one reference cycle; ``run_chaos`` reclaims it before
    returning, so its physical memories are gone even with automatic
    collection off."""
    gc.collect()                    # earlier tests' garbage is gone
    before = _memories()
    gc.disable()
    try:
        result = run_chaos(seed=3, plan=lossy_plan(), recover=recover,
                           messages=32, msg_size=4096)
        after = _memories()
    finally:
        gc.enable()
    assert result.ok, result.summary()
    assert after <= before


def test_recover_run_reports_tcp_counters_of_every_incarnation():
    """Each reconnect is a new connection; the counters sum them all."""
    result = run_chaos(seed=1, plan=lossy_plan(), recover=True,
                       messages=48, msg_size=1024)
    assert result.ok, result.summary()
    assert result.recovery["recoveries"] >= 3
    stats = result.tcp_stats
    assert stats["segs_out"] >= 48
    assert stats["retransmitted_segs"] + stats["rto_timeouts"] > 0
    assert f"tcp: {stats['segs_out']} segs out" in result.summary()


class TestPackedTrace:
    def test_records_decode_to_the_completions(self):
        result = run_chaos(seed=7, plan=lossy_plan(), messages=16,
                           msg_size=4096)
        records = result.completions()
        assert len(result.cqe_trace) == len(records) * CQE_RECORD.size
        assert len(records) == result.client_completed \
            + result.server_completed
        time_us, side, qp_num, opcode, status, byte_len = records[0]
        assert side in ("c", "s") and status == "SUCCESS"
        assert opcode in ("SEND", "RECV") and byte_len == 4096
        assert time_us == round(time_us, 3) and qp_num >= 0

    def test_one_differing_field_is_named(self, monkeypatch):
        """check_determinism names the first differing completion, both
        decoded, not just the two trace lengths."""
        runs = []

        def perturbed(**kwargs):
            result = run_chaos(**kwargs)
            if runs:                # second run: one byte_len off by one
                rec = list(CQE_RECORD.unpack_from(result.cqe_trace,
                                                  5 * CQE_RECORD.size))
                rec[-1] += 1
                trace = bytearray(result.cqe_trace)
                CQE_RECORD.pack_into(trace, 5 * CQE_RECORD.size, *rec)
                result.cqe_trace = bytes(trace)
            runs.append(result)
            return result

        monkeypatch.setattr(chaos, "run_chaos", perturbed)
        with pytest.raises(AssertionError) as err:
            check_determinism(seed=7, messages=16, msg_size=4096)
        first, second = (run.completions()[5] for run in runs)
        assert first[:-1] == second[:-1] and first[-1] + 1 == second[-1]
        assert f"completion 5 of {len(runs[0].completions())}" \
            in str(err.value)
        assert f"{first} vs {second}" in str(err.value)
