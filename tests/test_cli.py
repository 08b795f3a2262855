"""CLI coverage: exit codes, output shape, and error paths for repro.cli.

Slow experiments are monkeypatched with cheap stubs — these tests pin
the dispatch plumbing (parser wiring, exit codes, JSON shape), not the
physics behind each experiment.
"""

import json

import pytest

import repro.cli as cli
from repro.cli import EXPERIMENTS, build_parser, main


class TestListAndDispatch:
    def test_list_exits_zero_and_names_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        for extra in ("all", "chaos", "trace", "metrics"):
            assert extra in out
        assert "perf" not in out

    def test_no_command_behaves_like_list(self, capsys):
        assert main([]) == 0
        assert "experiments:" in capsys.readouterr().out

    def test_unknown_experiment_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig99"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_retired_perf_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perf"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["cluster"], ["collective"],
                                      ["serve"]])
    def test_help_names_no_report_file(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--help"])
        assert exc.value.code == 0
        assert "BENCH" not in capsys.readouterr().out

    def test_single_experiment_dispatch(self, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "fig3",
                            ("stub", lambda args: "FIG3-STUB-OUTPUT"))
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "FIG3-STUB-OUTPUT" in out
        assert "[fig3 ran in" in out

    def test_all_runs_every_experiment_once(self, capsys, monkeypatch):
        ran = []
        for name in list(EXPERIMENTS):
            monkeypatch.setitem(
                EXPERIMENTS, name,
                ("stub", lambda args, _n=name: ran.append(_n) or f"ran {_n}"))
        assert main(["all"]) == 0
        assert ran == list(EXPERIMENTS)
        # fig7's stub still receives the parsed --mb argument.
        out = capsys.readouterr().out
        assert "ran fig7" in out

    def test_fig7_mb_flag_reaches_the_experiment(self, capsys, monkeypatch):
        seen = {}
        monkeypatch.setitem(
            EXPERIMENTS, "fig7",
            ("stub", lambda args: seen.setdefault("mb", args.mb) and "" or ""))
        assert main(["fig7", "--mb", "7"]) == 0
        assert seen["mb"] == 7


class TestChaosCommand:
    def test_tiny_chaos_run_passes_invariants(self, capsys):
        assert main(["chaos", "--seed", "1",
                     "--messages", "4", "--size", "256"]) == 0
        out = capsys.readouterr().out
        assert "chaos[ttcp] seed=1" in out
        assert "4/4 messages" in out

    def test_kvstore_without_recover_is_an_error(self, capsys):
        rc = main(["chaos", "--workload", "kvstore",
                   "--messages", "4", "--size", "256"])
        assert rc == 2
        assert "repro chaos: error:" in capsys.readouterr().err


class TestTraceAndMetricsCommands:
    def test_trace_writes_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "traces"
        assert main(["trace", "ttcp", "--bytes", "65536",
                     "--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "repro trace: ttcp" in out
        for artifact in ("trace.jsonl", "trace.chrome.json",
                         "capture.pcapng", "metrics.txt"):
            assert (out_dir / artifact).is_file(), artifact

    def test_trace_json_summary_shape(self, capsys, tmp_path):
        assert main(["trace", "ttcp", "--bytes", "32768", "--json",
                     "--out-dir", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["workload"] == "ttcp"
        assert summary["bytes_moved"] == 32768
        assert summary["events"] > 0
        assert summary["packets_captured"] > 0
        assert "metrics" in summary
        assert set(summary["artifacts"]) == {
            "trace_jsonl", "trace_chrome", "pcapng", "metrics"}

    def test_metrics_prints_report_without_artifacts(self, capsys, tmp_path,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["metrics", "pingpong", "--iterations", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == ""            # nothing dropped, no warning
        assert "repro trace: pingpong" in out
        assert "metrics:" in out
        assert "cq.cqe" in out
        # metrics mode is report-only: no artifact files appear.
        assert not list(tmp_path.iterdir())

    def test_metrics_json_has_registry_snapshot(self, capsys):
        assert main(["metrics", "pingpong", "--iterations", "2",
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["iterations"] == 2
        assert summary["metrics"]["verbs.send_posted"] >= 2

    @pytest.mark.parametrize("command", ["trace", "metrics"])
    def test_recorder_drops_warn_on_stderr_only(self, capsys, tmp_path,
                                                monkeypatch, command):
        from repro import obs
        install = obs.install
        monkeypatch.setattr(obs, "install",
                            lambda sim, capacity=0: install(sim, capacity=50))
        argv = [command, "pingpong", "--iterations", "2", "--json"]
        if command == "trace":
            argv += ["--out-dir", str(tmp_path)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        dropped = summary["dropped_events"]
        assert dropped > 0 and summary["events"] == 50
        assert summary["metrics"]["obs.dropped_events"] == dropped
        assert captured.err == (f"repro {command}: warning: the trace "
                                f"recorder was full and dropped "
                                f"{dropped:,} events\n")

    def test_unknown_workload_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "nfsstone"])
        assert exc.value.code == 2

    def test_recorder_uninstalled_after_cli_run(self, capsys, tmp_path,
                                                monkeypatch):
        from repro import obs
        monkeypatch.chdir(tmp_path)
        assert main(["metrics", "ttcp", "--bytes", "32768"]) == 0
        assert obs.RECORDER is None


class TestParser:
    def test_every_experiment_has_a_subparser(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.command == name

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "ttcp"])
        assert args.out_dir == "traces"
        assert args.bytes == 256 * 1024
        assert args.chunk == 8192

    def test_metrics_has_no_out_dir(self):
        args = build_parser().parse_args(["metrics", "ttcp"])
        assert not hasattr(args, "out_dir")


class _FakeChaosResult:
    """Stands in for ChaosResult: violations + the summary surface."""

    def __init__(self, violations):
        self._violations = violations
        self.messages_delivered = 4
        self.bytes_delivered = 1024

    def violations(self):
        return list(self._violations)

    def summary(self):
        return "chaos[stub] seed=1 4/4 messages"


class TestChaosJson:
    """Satellite: worker crash / invariant violation must exit nonzero
    with one structured JSON error object, consistent between --json and
    plain modes."""

    def _stub_chaos(self, monkeypatch, violations):
        import repro.faults as faults
        monkeypatch.setattr(
            faults, "run_chaos",
            lambda seed, **kw: _FakeChaosResult(violations))

    def test_json_success_shape(self, capsys, monkeypatch):
        self._stub_chaos(monkeypatch, [])
        assert main(["chaos", "--seed", "1", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True
        assert obj["command"] == "chaos"
        assert obj["messages_delivered"] == 4

    def test_invariant_violation_is_structured_and_exit_one(
            self, capsys, monkeypatch):
        self._stub_chaos(monkeypatch, ["lost 2 messages"])
        assert main(["chaos", "--seed", "1", "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is False
        assert obj["command"] == "chaos"
        assert obj["error"]["kind"] == "invariant_violation"
        assert obj["error"]["violations"] == ["lost 2 messages"]
        assert obj["error"]["seed"] == 1

    def test_invariant_violation_plain_mode_matches_exit_code(
            self, capsys, monkeypatch):
        self._stub_chaos(monkeypatch, ["lost 2 messages"])
        assert main(["chaos", "--seed", "1"]) == 1
        assert "invariant violation" in capsys.readouterr().err

    def test_usage_error_json_object_and_exit_two(self, capsys):
        rc = main(["chaos", "--workload", "kvstore", "--json",
                   "--messages", "4", "--size", "256"])
        assert rc == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is False
        assert obj["error"]["kind"].endswith("Error")
        assert obj["error"]["message"]


class TestClusterJson:
    def _stub_boom(self, monkeypatch):
        import repro.cluster as cluster
        from repro.cluster import ClusterError

        def boom(spec, workers, processes=False, **kw):
            raise ClusterError("shard 1 went sideways")

        monkeypatch.setattr(cluster, "run_cluster", boom)

    def test_cluster_error_json_object_and_exit_one(self, capsys,
                                                    monkeypatch):
        self._stub_boom(monkeypatch)
        assert main(["cluster", "--workers", "2", "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is False
        assert obj["command"] == "cluster"
        assert obj["error"]["kind"] == "ClusterError"
        assert "sideways" in obj["error"]["message"]
        assert obj["error"]["workers"] == 2

    def test_cluster_error_plain_mode_matches_exit_code(self, capsys,
                                                        monkeypatch):
        self._stub_boom(monkeypatch)
        assert main(["cluster", "--workers", "2"]) == 1
        assert "repro cluster: error:" in capsys.readouterr().err


class TestGateCommand:
    """Gate CLI: list/run/record/check exit codes and JSON shapes over a
    tiny throwaway corpus."""

    def _corpus(self, tmp_path, seed=5):
        from repro.gate import Expectation, ScenarioSpec, WorkloadSpec
        from repro.faults import FaultBinding, FaultEntry
        spec = ScenarioSpec(
            name="tiny", hosts=8, seed=seed, horizon=8_000_000.0,
            workload=WorkloadSpec(pattern="incast", senders=2,
                                  total_bytes=8192, chunk=4096),
            faults=(FaultBinding("host:h0:rx",
                                 (FaultEntry("drop", rate=0.3),)),),
            workers=(1,), timeout_s=60.0, expect=Expectation())
        (tmp_path / "tiny.json").write_text(json.dumps(spec.to_dict()))
        return str(tmp_path)

    def test_list_json_shape(self, capsys, tmp_path):
        d = self._corpus(tmp_path)
        assert main(["gate", "list", "--scenarios-dir", d, "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True
        assert [s["name"] for s in obj["scenarios"]] == ["tiny"]

    def test_unknown_name_is_structured_usage_error(self, capsys,
                                                    tmp_path):
        d = self._corpus(tmp_path)
        rc = main(["gate", "run", "nope", "--scenarios-dir", d, "--json"])
        assert rc == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is False
        assert obj["error"]["kind"] == "ConfigError"
        assert "nope" in obj["error"]["message"]

    def test_missing_dir_plain_mode_exit_two(self, capsys, tmp_path):
        rc = main(["gate", "run",
                   "--scenarios-dir", str(tmp_path / "absent")])
        assert rc == 2
        assert "repro gate: error:" in capsys.readouterr().err

    def test_bad_action_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gate", "frobnicate"])
        assert exc.value.code == 2

    def test_check_without_golden_fails_then_record_check_green(
            self, capsys, tmp_path):
        d = self._corpus(tmp_path)
        assert main(["gate", "check", "--scenarios-dir", d,
                     "--workers", "1", "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is False
        assert obj["scenarios"][0]["status"] == "no_golden"

        assert main(["gate", "record", "--scenarios-dir", d,
                     "--workers", "1", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True
        assert len(obj["recorded"]) == 1

        report = str(tmp_path / "report.json")
        assert main(["gate", "check", "--scenarios-dir", d,
                     "--workers", "1", "--report", report]) == 0
        out = capsys.readouterr().out
        assert "[PASS] tiny" in out
        with open(report) as f:
            assert json.load(f)["ok"] is True

    def test_drift_names_divergence_and_exits_one(self, capsys, tmp_path):
        d = self._corpus(tmp_path)
        assert main(["gate", "record", "--scenarios-dir", d,
                     "--workers", "1", "--json"]) == 0
        capsys.readouterr()
        self._corpus(tmp_path, seed=6)  # overwrite spec: fault RNG flips
        assert main(["gate", "check", "--scenarios-dir", d,
                     "--workers", "1", "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is False
        entry = obj["scenarios"][0]
        assert entry["status"] == "drift"
        assert "first divergence" in entry["detail"]


class TestGateOnlyFlag:
    """`gate --only <glob>`: family-scoped gate runs from the CLI."""

    def _corpus(self, tmp_path):
        from repro.gate import ScenarioSpec, WorkloadSpec
        for name in ("incast_a", "incast_b", "pingpong_c"):
            spec = ScenarioSpec(
                name=name, hosts=8, seed=5, horizon=8_000_000.0,
                workload=WorkloadSpec(pattern="incast", senders=2,
                                      total_bytes=8192, chunk=4096),
                workers=(1,), timeout_s=60.0)
            (tmp_path / f"{name}.json").write_text(
                json.dumps(spec.to_dict()))
        return str(tmp_path)

    def test_only_filters_list(self, capsys, tmp_path):
        d = self._corpus(tmp_path)
        assert main(["gate", "list", "--scenarios-dir", d,
                     "--only", "incast_*", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in obj["scenarios"]] == \
            ["incast_a", "incast_b"]

    def test_only_scopes_record_and_check(self, capsys, tmp_path):
        d = self._corpus(tmp_path)
        assert main(["gate", "record", "--scenarios-dir", d,
                     "--only", "pingpong_*", "--workers", "1",
                     "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        import os
        assert [os.path.basename(p) for p in obj["recorded"]] == \
            ["pingpong_c.json"]
        assert main(["gate", "check", "--scenarios-dir", d,
                     "--only", "pingpong_*", "--workers", "1",
                     "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in obj["scenarios"]] == ["pingpong_c"]

    def test_unmatched_only_is_structured_error(self, capsys, tmp_path):
        d = self._corpus(tmp_path)
        rc = main(["gate", "check", "--scenarios-dir", d,
                   "--only", "nope_*", "--json"])
        assert rc == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["error"]["kind"] == "ConfigError"
        assert "matches no scenario" in obj["error"]["message"]


class TestServeCommand:
    """Serve CLI: structured errors without a server, and the in-process
    bench path end to end."""

    def test_submit_without_spec_is_structured(self, capsys, tmp_path):
        rc = main(["serve", "submit", "--dir", str(tmp_path), "--json"])
        assert rc == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is False and obj["command"] == "serve"
        assert "needs --spec" in obj["error"]["message"]

    def test_status_without_server_is_structured(self, capsys, tmp_path):
        rc = main(["serve", "status", "--dir", str(tmp_path / "nope"),
                   "--json"])
        assert rc == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["error"]["kind"] == "ReproError"
        assert "serve.json" in obj["error"]["message"]

    def test_yaml_spec_without_pyyaml_is_structured(self, capsys,
                                                    tmp_path,
                                                    monkeypatch):
        import sys as _sys
        spec_path = tmp_path / "thing.yaml"
        spec_path.write_text("name: thing\nhosts: 4\n")
        monkeypatch.setitem(_sys.modules, "yaml", None)
        rc = main(["serve", "submit", "--dir", str(tmp_path),
                   "--spec", str(spec_path), "--json"])
        assert rc == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["error"]["kind"] == "MissingDependency"
        assert "pyyaml" in obj["error"]["message"]

    def test_bench_self_hosted_writes_report(self, capsys, tmp_path):
        out = tmp_path / "serve_load.json"
        rc = main(["serve", "bench", "--duration", "0.5",
                   "--rate", "6", "--pool", "1", "--out", str(out),
                   "--json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["scenario"] == "serve_bench"
        assert obj["phases"][0]["phase"] == "fixed"
        report = json.loads(out.read_text())
        assert set(report) == {"serve_load"}
        load = report["serve_load"]
        assert load["calibration"]["capacity_jobs_per_s"] > 0
        assert load["phases"][0]["offered"] >= 1


class TestBenchReports:
    """The three bench commands share one output contract: ``--json``
    prints exactly one JSON document on stdout, a file is written only
    when ``--out`` is given, and it holds only that command's section."""

    REPORT = {"all_ok": True, "engines_agree": True, "stub": [1, 2]}
    CASES = {
        "cluster_scaling": (["cluster", "--bench"],
                            "repro.cluster.bench", "measure_scaling"),
        "collectives": (["collective", "--bench", "--quick"],
                        "repro.collectives.bench", "measure_collectives"),
        "serve_load": (["serve", "bench", "--url", "http://127.0.0.1:9"],
                       "repro.serve", "run_loadgen"),
    }

    @pytest.fixture(params=sorted(CASES))
    def bench(self, request, monkeypatch, tmp_path):
        """(section, argv) with the measurement stubbed, cwd in tmp_path."""
        import importlib
        argv, module, name = self.CASES[request.param]
        monkeypatch.setattr(importlib.import_module(module), name,
                            lambda *a, **kw: dict(self.REPORT))
        monkeypatch.chdir(tmp_path)
        return request.param, list(argv)

    def test_json_is_one_document_and_nothing_is_written(self, capsys,
                                                         bench, tmp_path):
        _section, argv = bench
        assert main(argv + ["--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == self.REPORT
        assert captured.err == ""
        assert not list(tmp_path.iterdir())

    def test_out_holds_exactly_its_own_section(self, capsys, bench,
                                               tmp_path):
        section, argv = bench
        out = tmp_path / "report.json"
        out.write_text(json.dumps({"other": 1, section: "stale"}))
        assert main(argv + ["--json", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == self.REPORT
        assert str(out) in captured.err
        assert json.loads(out.read_text()) == {section: self.REPORT}


class TestErrorContract:
    """Bad numbers are usage errors at parse time, and a ReproError from
    any command is one ``repro <cmd>: error:`` line (or the ``--json``
    error object) with that command's exit code, never a traceback."""

    @pytest.mark.parametrize("argv, code", [
        (["cluster", "--workers", "0"], 2),
        (["cluster", "--hosts", "2", "--flows", "8"], 1),
        (["cluster", "--hosts", "2", "--flows", "8", "--json"], 1),
        (["cluster", "--horizon", "-5"], 2),
        (["cluster", "--horizon", "nan"], 2),
        (["collective", "--horizon", "nan"], 2),
        (["chaos", "--kill", "rst", "--kill-at", "nan"], 2),
        (["metrics", "ttcp", "--chunk", "0"], 2),
        (["chaos", "--kill", "rst", "--kill-at", "-1"], 2),
        (["chaos", "--recover", "--restarts", "-1"], 2),
        (["fig7", "--mb", "0"], 2),
    ])
    def test_bad_input_is_reported_not_raised(self, capsys, argv, code):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == code
        out, err = capsys.readouterr()
        if "--json" in argv:
            obj = json.loads(out)
            assert obj["ok"] is False and obj["command"] == argv[0]
            assert obj["error"]["kind"] == "ConfigError"
            assert obj["error"]["workers"] == 2
        else:
            assert f"repro {argv[0]}: error:" in err
        assert "Traceback" not in err
