"""Direct unit tests for the hardware layer: hosts, PCI/DMA, interrupt
throttling, the programmable-NIC chassis."""

import pytest

from repro.hw import (DumbNic, GmNic, Host, LanaiTiming, ProgrammableNic,
                      ib_class_timing, lanai_fw_checksum)
from repro.hw.host import INTERRUPT_PRIORITY
from repro.hw.stages import FAULT_STALL, GET_WR
from repro.net.packet import Packet, ZeroPayload
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def host(sim):
    return Host(sim, "h0")


class TestHostCpu:
    def test_interrupt_preempts_queued_work(self, sim, host):
        order = []
        host.cpu_work(10, "app", fn=lambda: order.append("app1"))
        host.cpu_work(10, "app", fn=lambda: order.append("app2"))
        host.raise_interrupt(lambda: order.append("irq"))
        sim.run()
        # app1 was in service; the interrupt jumps the queue past app2.
        assert order == ["app1", "irq", "app2"]
        assert host.interrupts_delivered == 1

    def test_copy_and_checksum_costs_scale(self, host):
        assert host.copy_cost(360) == pytest.approx(1.0)
        assert host.checksum_cost(380) == pytest.approx(1.0)
        assert host.copy_cost(0) == 0.0

    def test_cpu_utilization_window(self, sim, host):
        host.cpu_work(30, "app")
        sim.call_later(100, lambda: None)
        sim.run()
        assert host.cpu_utilization() == pytest.approx(0.3)
        host.reset_cpu_stats()
        assert host.cpu_utilization() == 0.0

    def test_address_spaces_share_physical_memory(self, host):
        a1 = host.new_address_space("p1")
        a2 = host.new_address_space("p2")
        r1 = a1.alloc(4096)
        r2 = a2.alloc(4096)
        a1.write(r1.addr, b"one")
        a2.write(r2.addr, b"two")
        assert a1.read(r1.addr, 3) == b"one"
        assert a2.read(r2.addr, 3) == b"two"
        assert host.memory.frames_allocated == 2


class TestPciBus:
    def test_dma_serializes_at_bandwidth(self, sim, host):
        done = []
        host.pci.dma(2000, setup=0.0).callbacks.append(
            lambda e: done.append(sim.now))
        host.pci.dma(2000, setup=0.0).callbacks.append(
            lambda e: done.append(sim.now))
        sim.run()
        # 200 B/µs sustained: 10 µs each, strictly serialized.
        assert done == [pytest.approx(10.0), pytest.approx(20.0)]
        assert host.pci.bytes_moved == 4000

    def test_dma_setup_added(self, sim, host):
        done = []
        host.pci.dma(200, setup=0.8).callbacks.append(
            lambda e: done.append(sim.now))
        sim.run()
        assert done[0] == pytest.approx(1.8)

    def test_doorbell_cost_constant(self, host):
        assert host.pci.doorbell_cost() == pytest.approx(0.3)


class TestInterruptThrottle:
    def _nic_with_sink(self, sim, host):
        nic = DumbNic(sim, host, name="eth0")
        seen = []
        nic.driver_rx = seen.append
        return nic, seen

    def test_idle_line_fires_after_assert_latency(self, sim, host):
        nic, seen = self._nic_with_sink(sim, host)
        nic._rx_ready(Packet(payload=ZeroPayload(64)))
        sim.run()
        # intr_assert (20) + interrupt_entry (6) before the ISR runs.
        assert len(seen) == 1
        assert sim.now >= nic.timing.intr_assert
        assert nic.interrupts == 1

    def test_burst_shares_one_interrupt(self, sim, host):
        nic, seen = self._nic_with_sink(sim, host)
        for _ in range(5):
            nic._rx_ready(Packet(payload=ZeroPayload(64)))
        sim.run()
        assert len(seen) == 5
        assert nic.interrupts == 1

    def test_sustained_load_rate_limited(self, sim, host):
        nic, seen = self._nic_with_sink(sim, host)

        def feeder():
            for _ in range(40):
                nic._rx_ready(Packet(payload=ZeroPayload(64)))
                yield sim.timeout(10)      # 10 µs apart, window is 40 µs

        sim.process(feeder())
        sim.run()
        assert len(seen) == 40
        # ~400 µs of arrivals / 40 µs window -> about 10 interrupts.
        assert nic.interrupts <= 14


class TestProgrammableNicChassis:
    def test_cycle_counter_mean_and_reset(self, sim, host):
        nic = ProgrammableNic(sim, host)
        nic.run(nic.span(GET_WR))
        nic.run(nic.span(FAULT_STALL.sized(4.0)))
        nic.run(nic.span(FAULT_STALL.sized(2.0)))
        sim.run()
        assert nic.cycles.mean("get_wr") == pytest.approx(5.5)
        assert nic.cycles.mean("fault_stall") == pytest.approx(3.0)
        nic.reset_stats()
        assert nic.cycles.mean("fault_stall") == 0.0
        assert nic.occupancy() == 0.0

    def test_doorbell_and_mgmt_wake_firmware(self, sim, host):
        nic = ProgrammableNic(sim, host)
        woken = []
        nic.wake = lambda: woken.append(sim.now)
        nic.ring_doorbell((1, "send"))
        nic.post_mgmt(object())
        assert len(woken) == 2
        assert nic.doorbells_rung == 1

    def test_timing_variants_differ(self):
        base = LanaiTiming()
        fw = lanai_fw_checksum()
        ib = ib_class_timing()
        assert base.rx_checksum_per_byte is None
        assert fw.rx_checksum_per_byte > 0
        assert ib.overlap_dma and not base.overlap_dma
        assert ib.tcp_parse_ack < base.tcp_parse_ack

    def test_wire_time_without_link_is_zero(self, sim, host):
        nic = ProgrammableNic(sim, host)
        assert nic.wire_time(Packet(payload=ZeroPayload(100))) == 0.0


class TestGmNicFirmwareHop:
    def test_every_packet_crosses_the_firmware(self, sim, host):
        nic = GmNic(sim, host, name="myri0")
        from repro.fabric.link import Attachment, Link
        sink_log = []
        peer = Attachment("peer", lambda p, a: sink_log.append(sim.now))
        Link(sim, nic.attachment, peer, bandwidth=250.0)
        for _ in range(3):
            nic.transmit(Packet(payload=ZeroPayload(1000)))
        sim.run()
        assert len(sink_log) == 3
        assert nic.firmware.items_completed == 3
        assert nic.firmware.busy_time == pytest.approx(
            3 * nic.timing.fw_per_packet_tx)
