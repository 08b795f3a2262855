"""Figure 7: NBD client throughput and CPU effectiveness.

Sequential write then read of the paper's 409 MB working set (set
REPRO_NBD_MB to shrink for quick runs), with 'sync' between phases.
Shape checks: QPIP beats both socket stacks on throughput (paper: by
40–137%) and by a wide margin on MB per CPU-second, writes trail reads
on every system, and filesystem work keeps a hefty CPU floor everywhere.
"""

from conftest import save_report

from repro.bench.runners import run_fig7
from repro.bench.paper import NBD_FS_FLOOR


def _run():
    return run_fig7()


def test_fig7_nbd(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_report("fig7_nbd", result.render())

    systems = ("IP/GigE", "IP/Myrinet", "QPIP")
    for op in ("write", "read"):
        gige, gm, qpip = (result.measured(s, op)[0] for s in systems)
        # Ordering, as in the figure.
        assert qpip > gm > gige, op
        # QPIP's gain over the socket baselines is substantial (paper:
        # "40% to 137% throughput performance improvement").
        assert qpip / gige > 1.25, op
    # Writes are slower than reads on every system (disk + flush path).
    for s in systems:
        assert result.measured(s, "write")[0] < result.measured(s, "read")[0]
    # CPU effectiveness: QPIP moves far more data per CPU-second.
    for op in ("write", "read"):
        qpip_eff = result.measured("QPIP", op)[1]
        gige_eff = result.measured("IP/GigE", op)[1]
        assert qpip_eff > 2 * gige_eff
    # "The raw CPU utilization ... is at least 26% for filesystem
    # processing."  Filesystem work scales with delivered bandwidth in
    # our model, so the full 26% floor holds at QPIP's rate; the slower
    # socket systems show a proportionally smaller (but still hefty)
    # fs share.
    for op in ("write", "read"):
        assert result.measured("QPIP", op)[2] > NBD_FS_FLOOR, op
    for (system, op), (_mbps, _eff, fs_frac) in result.rows.items():
        assert fs_frac > 0.10, (system, op)
