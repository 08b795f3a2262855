"""Figure 4's text series: QPIP throughput across MTUs + checksum variant.

"For the smaller MTUs, the limited CPU capacity of the interface becomes
apparent and [QPIP] performs 22% less than the gigabit Ethernet in the
1500 Byte MTU case at 35.4 MB/sec.  For the 9000 Byte MTU, QPIP
outperforms the IP over Myrinet case at 70.1 MB/sec."
"""

from conftest import save_report

from repro.bench.runners import run_fig4, run_mtu_sweep


def _run():
    return run_mtu_sweep(), run_fig4()


def test_mtu_sweep_crossover(benchmark):
    sweep, fig4 = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_report("mtu_sweep", sweep.render())

    q1500 = sweep.measured(1500)
    q9000 = sweep.measured(9000)
    q16k = sweep.measured(16384)
    gige_mbps, _ = fig4.measured("IP/GigE")
    gm_mbps, _ = fig4.measured("IP/Myrinet")

    # Monotone in MTU: per-message interface occupancy amortizes.
    assert q1500 < q9000 < q16k
    # The crossover of Figure 4's discussion: QPIP loses to GigE at
    # 1500 B (interface CPU-bound) but wins at 9000 B vs IP/Myrinet.
    assert q1500 < gige_mbps
    assert q9000 > gm_mbps
    # Firmware checksumming collapses throughput (paper: 75.6 -> 26.4).
    assert sweep.fw_checksum_mbps < q16k / 2
    assert abs(sweep.fw_checksum_mbps - 26.4) / 26.4 < 0.25
