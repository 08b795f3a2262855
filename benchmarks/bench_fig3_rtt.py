"""Figure 3: application-to-application round-trip time.

Regenerates the three-system, two-protocol RTT comparison and checks the
figure's shape: QPIP has the lowest RTT on both protocols, UDP beats TCP
everywhere, and magnitudes sit in the paper's ~70–140 µs band.
"""

from conftest import save_report

from repro.bench.runners import run_fig3


def _run():
    return run_fig3(iterations=100)


def test_fig3_rtt(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_report("fig3_rtt", result.render())

    systems = ("IP/GigE", "IP/Myrinet", "QPIP")
    # UDP < TCP within every system (TCP pays ACK/state processing).
    for s in systems:
        assert result.measured(s, "udp") < result.measured(s, "tcp")
    # QPIP is the lowest-latency system on both protocols (Figure 3).
    for proto in ("udp", "tcp"):
        qpip = result.measured("QPIP", proto)
        assert qpip < result.measured("IP/GigE", proto)
        assert qpip < result.measured("IP/Myrinet", proto)
    # Magnitudes: the paper's band is ~70-140 µs.
    for s in systems:
        for proto in ("udp", "tcp"):
            assert 40 <= result.measured(s, proto) <= 200
    # QPIP TCP with firmware checksum: 113 µs in the paper (±20%).
    assert abs(result.measured("QPIP", "tcp") - 113) / 113 < 0.20
