"""Figure 4: ttcp throughput and CPU utilization at native MTUs.

10 MB in 16 KB chunks with TCP_NODELAY, as in §4.2.1.  Shape checks:
QPIP wins on throughput while using a tiny fraction of the host CPU the
socket stacks burn.
"""

from conftest import save_report

from repro.bench.runners import run_fig4


def _run():
    return run_fig4()


def test_fig4_throughput_and_cpu(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_report("fig4_throughput", result.render())

    gige_mbps, gige_cpu = result.measured("IP/GigE")
    gm_mbps, gm_cpu = result.measured("IP/Myrinet")
    qpip_mbps, qpip_cpu = result.measured("QPIP")

    # Ordering (Figure 4): QPIP > IP/Myrinet > IP/GigE.
    assert qpip_mbps > gm_mbps > gige_mbps
    # QPIP native throughput near the paper's 75.6 MB/s (±15%).
    assert abs(qpip_mbps - 75.6) / 75.6 < 0.15
    # Host stacks burn "half to ¾ of a host processor"...
    assert 0.35 <= gm_cpu <= 0.95
    assert 0.5 <= gige_cpu <= 0.95
    # ... while QPIP uses a small fraction of that (paper: <1%).
    assert qpip_cpu < 0.08
    assert qpip_cpu < gige_cpu / 10
