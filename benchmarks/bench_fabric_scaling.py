"""The introduction's scalability claim: "the switch-based design permits
a large array of devices to be connected in a manner that provides
scalable throughput" (§1).

Disjoint QPIP pairs on one crossbar switch: aggregate bandwidth should
grow ~linearly with the pair count (no shared bottleneck until the
switch itself saturates).
"""

from conftest import save_report

from repro.bench.runners import run_fabric_scaling


def _run():
    return run_fabric_scaling(pair_counts=(1, 2, 3, 4))


def test_fabric_scaling(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_report("fabric_scaling", result.render())

    rows = {n: agg for n, agg, _per in result.rows}
    base = rows[1]
    # Linear scaling within 10% at every point (cut-through crossbar).
    for n, agg in rows.items():
        assert agg > n * base * 0.9, (n, agg)
    # Per-pair throughput does not degrade.
    for n, _agg, per in result.rows:
        assert per > base * 0.9
