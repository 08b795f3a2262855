"""Golden-number regression tests.

EXPERIMENTS.md records this repository's measured results.  These tests
pin the fast experiments to those values (tight tolerances), so a future
change that silently shifts the reproduction — a timing-table edit, a
protocol tweak — fails loudly here rather than drifting the documented
numbers.  (The deterministic simulator makes exact pinning possible;
small tolerances keep legitimate refactors painless.)

Slow experiments (Figure 7) are covered at full scale in benchmarks/.
"""

import pytest

from repro.bench.runners import (run_fig3, run_fig4, run_mtu_sweep, run_table1)
from repro.units import MB

# Values as recorded in EXPERIMENTS.md (full-scale definitive run).
GOLDEN_FIG3 = {
    ("IP/GigE", "udp"): 121.0,
    ("IP/GigE", "tcp"): 142.0,
    ("IP/Myrinet", "udp"): 102.1,
    ("IP/Myrinet", "tcp"): 124.5,
    ("QPIP", "udp"): 81.0,
    ("QPIP", "tcp"): 114.4,
}
GOLDEN_FIG4 = {
    "IP/GigE": (44.2, 0.702),
    "IP/Myrinet": (49.5, 0.466),
    "QPIP": (79.7, 0.040),
}
GOLDEN_MTU = {1500: 22.3, 9000: 66.2, 16384: 79.7}
GOLDEN_FW_CHECKSUM = 25.7
GOLDEN_TABLE1 = (28.1, 2.5)


@pytest.fixture(scope="module")
def fig3():
    return run_fig3(iterations=100)


@pytest.fixture(scope="module")
def fig4():
    return run_fig4(total_bytes=10 * MB)


class TestGoldenFig3:
    @pytest.mark.parametrize("key", sorted(GOLDEN_FIG3))
    def test_rtt_pinned(self, fig3, key):
        system, proto = key
        assert fig3.measured(system, proto) == \
            pytest.approx(GOLDEN_FIG3[key], rel=0.02)


class TestGoldenFig4:
    @pytest.mark.parametrize("system", sorted(GOLDEN_FIG4))
    def test_throughput_and_cpu_pinned(self, fig4, system):
        mbps, cpu = fig4.measured(system)
        want_mbps, want_cpu = GOLDEN_FIG4[system]
        assert mbps == pytest.approx(want_mbps, rel=0.03)
        assert cpu == pytest.approx(want_cpu, rel=0.08)


class TestGoldenMtuSweep:
    def test_mtu_points_pinned(self):
        result = run_mtu_sweep(total_bytes=10 * MB)
        for mtu, want in GOLDEN_MTU.items():
            assert result.measured(mtu) == pytest.approx(want, rel=0.03), mtu
        assert result.fw_checksum_mbps == \
            pytest.approx(GOLDEN_FW_CHECKSUM, rel=0.03)


class TestGoldenTable1:
    def test_overheads_pinned(self):
        result = run_table1(iterations=100)
        want_host, want_qpip = GOLDEN_TABLE1
        assert result.host_based_us == pytest.approx(want_host, rel=0.03)
        assert result.qpip_us == pytest.approx(want_qpip, rel=0.03)
