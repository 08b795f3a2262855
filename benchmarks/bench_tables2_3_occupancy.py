"""Tables 2 & 3: per-stage network-interface processing occupancy.

Measured with the simulated LANai cycle counter over a 1-byte TCP
message stream, exactly as the paper instruments its prototype, and
written to ``_output/tables2_3_occupancy.txt``.  The stage costs are
this model's calibrated inputs; that every row matches the paper — each
FSM stage runs where the paper says it runs — is asserted in tier-1 by
``tests/test_misc.py::TestRunnersSmoke::test_occupancy_structure``.
"""

from conftest import save_report

from repro.bench.runners import run_occupancy_tables


def _run():
    return run_occupancy_tables(messages=50)


def test_tables2_3_occupancy(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_report("tables2_3_occupancy", result.render())
