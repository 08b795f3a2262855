"""Coverage for support modules: units, report rendering, CLI, runners."""

import pytest

from repro import units
from repro.bench.report import compare, pct, render_table
from repro.cli import EXPERIMENTS, build_parser, main


class TestUnits:
    def test_time_conversions(self):
        assert units.SECOND == 1_000_000
        assert units.MS == 1000
        assert units.NS == 0.001

    def test_rates(self):
        assert units.gbit_per_sec(2.0) == pytest.approx(250.0)
        assert units.to_mb_per_sec(1.048576) == pytest.approx(1.0)

    def test_cycles(self):
        assert units.us_to_cycles(2.5, 550) == 1375


class TestReport:
    def test_render_table_alignment(self):
        out = render_table("T", ["a", "bee"], [["x", 1], ["long", 22]])
        lines = out.splitlines()
        assert lines[0] == "== T =="
        assert "a" in lines[1] and "bee" in lines[1]
        assert len(lines) == 5
        # Columns align: every row has the same prefix width for col 2.
        assert lines[2].startswith("-")

    def test_render_empty_rows(self):
        out = render_table("Empty", ["col"], [])
        assert "Empty" in out

    def test_compare(self):
        cell = compare(50.0, 100.0)
        assert "paper 100" in cell and "x0.50" in cell
        assert compare(3.0, None) == "3.0"

    def test_pct(self):
        assert pct(0.756) == "75.6%"


class TestCli:
    def test_parser_lists_all_experiments(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name] if name != "fig7"
                                     else [name, "--mb", "1"])
            assert args.command == name

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "experiments" in capsys.readouterr().out

    def test_run_table1_via_cli(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Host-based IP" in out
        assert "QPIP" in out


class TestRunnersSmoke:
    """Small-size smoke runs for the experiment runners (full-size runs
    live in benchmarks/)."""

    def test_fig3_structure(self):
        from repro.bench.runners import run_fig3
        result = run_fig3(iterations=10)
        assert len(result.rows) == 6
        assert result.measured("QPIP", "tcp") > 0
        assert "Figure 3" in result.render()

    def test_fig4_structure(self):
        from repro.bench.runners import run_fig4
        from repro.units import MB
        result = run_fig4(total_bytes=1 * MB)
        mbps, cpu = result.measured("QPIP")
        assert mbps > 0 and 0 <= cpu <= 1
        assert "Figure 4" in result.render()

    def test_mtu_sweep_structure(self):
        from repro.bench.runners import run_mtu_sweep
        from repro.units import MB
        result = run_mtu_sweep(total_bytes=1 * MB, mtus=(1500, 16384))
        assert result.measured(1500) < result.measured(16384)
        assert "MTU" in result.render()

    def test_table1_structure(self):
        from repro.bench.runners import run_table1
        result = run_table1(iterations=20)
        assert result.qpip_us < result.host_based_us
        assert result.qpip_cycles == round(result.qpip_us * 550)
        assert "Table 1" in result.render()

    def test_occupancy_structure(self):
        from repro.bench.runners import run_occupancy_tables
        from repro.bench.paper import TABLE2_TX, TABLE3_RX
        result = run_occupancy_tables(messages=10)
        # Every row of both tables, data and ACK column, at the paper's
        # value — including the ACK path's 14 µs TCP parse (software
        # RTT-estimator multiplies) and 9 µs WR/QP state update — and
        # "-" exactly where the paper has no entry.
        for rows, paper in ((result.tx_rows, TABLE2_TX),
                            (result.rx_rows, TABLE3_RX)):
            assert [r[0] for r in rows] == list(paper)
            for name, md, pd, ma, pa in rows:
                assert (pd, pa) == paper[name]
                assert md == pytest.approx(pd) if pd else md is None, name
                assert ma == pytest.approx(pa) if pa else ma is None, name
        assert result.stage_tx("Get WR") == (pytest.approx(5.5), None)
        rx = {r[0]: r for r in result.rx_rows}
        assert rx["TCP Parse"][3] == pytest.approx(14.0)
        assert rx["Update"][3] == pytest.approx(9.0)
        assert "Table 2" in result.render() and "Table 3" in result.render()

    def test_fig7_structure(self):
        from repro.bench.runners import run_fig7
        from repro.units import MB
        result = run_fig7(total_bytes=4 * MB, systems=("QPIP",))
        mbps, eff, fs = result.measured("QPIP", "read")
        assert mbps > 0 and eff > 0 and 0 < fs < 1
        assert "Figure 7" in result.render()

    def test_hw_ablation_structure(self):
        from repro.bench.runners import run_hw_ablation
        from repro.units import MB
        result = run_hw_ablation(total_bytes=1 * MB)
        names = [r[0] for r in result.rows]
        assert "Infiniband-class" in names
        assert "ablation" in result.render()
