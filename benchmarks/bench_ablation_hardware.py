"""§5.2 ablation: "if the same degree of hardware support [as Infiniband]
were to be applied to QPIP then an equivalent performance could be
reached."

The Infiniband-class timing collapses FSM stage costs to hardware-engine
latencies and overlaps DMA with processing.  The claim checks out when
RTT drops to SAN scale (~10 µs) and throughput approaches the wire.
"""

from conftest import save_report

from repro.bench.runners import run_hw_ablation


def _run():
    return run_hw_ablation()


def test_hardware_support_ablation(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_report("ablation_hardware", result.render())

    rows = {name: (rtt, mbps) for name, rtt, mbps in result.rows}
    proto_rtt, proto_mbps = rows["LANai-9 prototype"]
    fw_rtt, fw_mbps = rows["LANai-9 + fw checksum"]
    ib_rtt, ib_mbps = rows["Infiniband-class"]

    # Firmware checksumming barely moves 1-byte RTT but destroys bandwidth.
    assert fw_rtt < proto_rtt * 1.1
    assert fw_mbps < proto_mbps / 2
    # Infiniband-class hardware reaches SAN targets: ~µs latency,
    # near-wire bandwidth (2 Gb/s link, PCI-bound around ~200 MB/s).
    assert ib_rtt < proto_rtt / 4
    assert ib_rtt < 25.0
    assert ib_mbps > 2 * proto_mbps
    assert ib_mbps > 150.0
