"""The wall-clock perf harness: report structure and the regression gate.

The harness itself must never affect simulated results — it only runs
existing workloads — so these tests check the *measurement plumbing*:
the ``BENCH_perf.json`` schema, the baseline round-trip, and the
normalised-wall regression arithmetic CI relies on.
"""

import json

import pytest

from repro.bench.perf import (compare_to_baseline, load_baseline, run_perf,
                              write_report)


@pytest.fixture(scope="module")
def quick_report():
    # One real (quick) run shared by the structural tests.  Profiling and
    # the naive-mode comparison re-run workloads; skip both for speed.
    return run_perf(quick=True, profile=False, compare_naive=False)


class TestReportStructure:
    def test_all_workloads_measured(self, quick_report):
        assert quick_report["harness"] == "repro-perf"
        assert quick_report["quick"] is True
        names = set(quick_report["workloads"])
        assert names == {"ttcp_bulk", "pingpong", "kvstore_mixed",
                         "chaos_recover"}

    def test_workload_fields(self, quick_report):
        for name, w in quick_report["workloads"].items():
            assert w["wall_s"] > 0, name
            assert w["bytes"] > 0, name
            assert w["sim_bytes_per_wall_s"] > 0, name
            if name == "chaos_recover":
                # run_chaos owns its simulator; no event counter surfaces.
                assert w["events_per_sec"] is None
            else:
                assert w["events_per_sec"] > 0, name
                assert w["events"] > 0, name
                assert w["sim_us"] > 0, name

    def test_report_is_json_and_round_trips(self, quick_report, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        out = write_report(quick_report, str(path))
        assert out == str(path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(
            json.dumps(quick_report, sort_keys=True))

    def test_load_baseline_round_trip(self, quick_report, tmp_path):
        path = tmp_path / "baseline_perf.json"
        write_report(quick_report, str(path))
        base = load_baseline(str(path))
        assert base["workloads"].keys() == quick_report["workloads"].keys()

    def test_load_baseline_missing_file(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) is None


def _report_with(wall, naive=1.0, quick=True, name="pingpong"):
    """A synthetic report: ``name`` took ``wall`` s on a host whose naive
    ttcp_bulk calibration run took ``naive`` s."""
    report = {"quick": quick, "workloads": {name: {"wall_s": wall}}}
    if naive is not None:
        report["naive_ttcp_bulk"] = {"wall_s": naive}
    return report


class TestRegressionGate:
    def test_within_tolerance_passes(self):
        ok, messages = compare_to_baseline(_report_with(1.25),
                                           _report_with(1.00),
                                           max_regression=0.30)
        assert ok
        assert any("pingpong" in m for m in messages)

    def test_beyond_tolerance_fails(self):
        ok, messages = compare_to_baseline(_report_with(1.35),
                                           _report_with(1.00),
                                           max_regression=0.30)
        assert not ok
        assert any("REGRESSION" in m for m in messages)

    def test_improvement_passes(self):
        ok, _ = compare_to_baseline(_report_with(0.40), _report_with(1.00))
        assert ok

    def test_a_slower_machine_is_not_a_regression(self):
        # Twice the wall on a host whose calibration run also doubled.
        ok, _ = compare_to_baseline(_report_with(2.0, naive=2.0),
                                    _report_with(1.0, naive=1.0))
        assert ok
        # ... and the same wall on a host that got faster is one.
        ok, _ = compare_to_baseline(_report_with(1.0, naive=0.5),
                                    _report_with(1.0, naive=1.0))
        assert not ok

    def test_fewer_cheaper_events_is_not_a_regression(self):
        # Poll-loop elision: 85% of the events gone, wall halved.  The
        # retired events/sec gate failed this; fixed-work wall passes it.
        current = _report_with(0.5)
        current["workloads"]["pingpong"]["events_per_sec"] = 110_000
        base = _report_with(1.0)
        base["workloads"]["pingpong"]["events_per_sec"] = 365_000
        ok, _ = compare_to_baseline(current, base)
        assert ok

    def test_ttcp_speedup_loss_fails_through_its_normalised_wall(self):
        # speedup_vs_naive 1.25x -> 0.91x is ttcp_bulk 0.8 -> 1.1.
        ok, messages = compare_to_baseline(
            _report_with(1.1, name="ttcp_bulk"),
            _report_with(0.8, name="ttcp_bulk"))
        assert not ok
        assert any("ttcp_bulk" in m and "REGRESSION" in m for m in messages)

    def test_no_calibration_run_compares_nothing(self):
        for current, base in ((_report_with(9.0, naive=None), _report_with(1.0)),
                              (_report_with(9.0), _report_with(1.0, naive=None))):
            ok, messages = compare_to_baseline(current, base)
            assert ok
            assert any("nothing compared" in m for m in messages)

    def test_different_sizes_compare_nothing(self):
        ok, messages = compare_to_baseline(_report_with(9.0, quick=False),
                                           _report_with(1.0, quick=True))
        assert ok
        assert any("different size" in m for m in messages)

    def test_unmeasurable_workload_skipped(self):
        # A workload that recorded no wall on one side is reported, not gated.
        ok, messages = compare_to_baseline(_report_with(None),
                                           _report_with(1.0))
        assert ok
        assert any("skipped" in m for m in messages)

    def test_workload_missing_from_baseline_skipped(self):
        ok, messages = compare_to_baseline(_report_with(9.0, name="new"),
                                           _report_with(1.0))
        assert ok
        assert any("skipped" in m for m in messages)
