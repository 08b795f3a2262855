"""Message-size characterization: the latency/bandwidth curves every SAN
interface paper of the era drew, for QPIP.

Not a figure in this paper, but the standard companion analysis: one-way
latency vs size, streaming bandwidth vs size, and the half-power point
n_1/2 (the message size at which half the peak bandwidth is reached —
small n_1/2 is what the QP interface buys).
"""

from conftest import save_report

from repro.bench.runners import run_msgsize_sweep


def _run():
    return run_msgsize_sweep()


def test_msgsize_sweep(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_report("msgsize_sweep", result.render())

    sizes = [r[0] for r in result.rows]
    lats = [r[1] for r in result.rows]
    bws = [r[2] for r in result.rows]
    # Latency grows monotonically with size (DMA + wire time)...
    assert lats == sorted(lats)
    # ...and spans the right range: ~55 µs one-way at 1 byte.
    assert 40 <= lats[0] <= 80
    # Bandwidth grows with message size and peaks near the Figure 4 value.
    assert bws.index(max(bws)) >= len(bws) - 2
    assert 65 <= max(bws) <= 95
    # Small messages are interface-occupancy-bound: tiny fraction of peak.
    assert bws[0] < max(bws) / 50
    # The half-power point sits in the few-KB range for the prototype.
    assert 1024 <= result.half_power_point() <= 16000
