"""Table 1: host overhead for the transmit+receive of a 1-byte TCP message.

Host-based: loopback RTT/2 (the paper's methodology).  QPIP: direct
timing of PostSend + the completion Poll.  The headline claim: QPIP
needs ~a tenth of the host cycles.
"""

from conftest import save_report

from repro.bench.runners import run_table1


def _run():
    return run_table1(iterations=100)


def test_table1_host_overhead(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_report("table1_overhead", result.render())

    # Within 20% of the paper's absolute numbers...
    assert abs(result.host_based_us - 29.9) / 29.9 < 0.20
    assert abs(result.qpip_us - 2.5) / 2.5 < 0.20
    # ...and the order-of-magnitude offload claim holds.
    assert result.host_based_us / result.qpip_us > 8
