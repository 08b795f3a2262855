"""Self-test of the spine benchmark on ``--quick`` sizes.

    python -m pytest benchmarks/spine -q

Not collected by tier-1 (whose ``testpaths`` is ``tests``).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers      # noqa: E402
import report      # noqa: E402
import run         # noqa: E402
import workloads   # noqa: E402

SINGLE_PROCESS = [n for n in report.WORKLOAD_NAMES
                  if n not in report.NEEDS_2_CPUS]
EXACT = [name for name, _unit, _better, exact in report.PER_LAYER if exact]


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced():
    """One traced quick run per workload (each a fresh subprocess)."""
    return {name: run._spawn(name, seed=1, quick=True, trace=True)
            for name in report.WORKLOAD_NAMES}


def test_names_and_caps_match_benchmark_json():
    doc = _benchmark_json()
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"]]
             + [m["name"] for m in doc["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    # The file is data; the code's tables are what actually gets printed.
    # The driver gates the single-process workloads; the two forked ones
    # time the host's scheduler (README, "What the driver gates").
    assert tuple(w["name"] for w in doc["workloads"]) == tuple(
        n for n in report.WORKLOAD_NAMES if n not in report.NEEDS_2_CPUS)
    assert set(report.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(report.UNIVERSAL)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [(n, u, b) for n, u, b, _exact in report.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_layer_self_times_sum_to_traced_wall(traced):
    for name, out in traced.items():
        assert out["failed"] == 0, (name, out["notes"])
        total = sum(out["layers"]["self_s"].values())
        assert total == pytest.approx(out["traced_wall_s"], rel=0.02), name
        assert out["layers"]["counts"]["trace_overhead_x"] > 1.0, name
        assert os.path.exists(os.path.join(ROOT, out["trace_file"]))


def test_exact_counts_repeat(traced):
    for name in SINGLE_PROCESS:
        again = run._spawn(name, seed=1, quick=True, trace=True)
        a = report.per_layer_entry(traced[name], {})
        b = report.per_layer_entry(again, {})
        differ = [m for m in EXACT if a[m]["value"] != b[m]["value"]]
        assert not differ, (name, differ)
        assert a["sim.events"]["value"] > 0


def test_seed_changes_generated_inputs():
    a, b, c = (workloads.KvstoreMixed(seed, quick=True) for seed in (1, 1, 2))
    for wl in (a, b, c):
        wl.setup()
    assert a.script == b.script != c.script


def test_wrong_kvstore_model_fails_the_run():
    class Forgetful(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value[:-1])

    wl = workloads.KvstoreMixed(1, quick=True, model=Forgetful)
    wl.setup()
    wl.run()
    outcome = wl.check()
    assert 0 < outcome.failed <= outcome.attempted
    entry = report.end_to_end_entry([{
        "cpu_s": 1.0, "wall_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0,
        "paper_ref": None,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "headline": None, "job_latencies_s": []}])
    assert entry["fail_share"]["value"] > 0


def test_layer_of_matches_most_specific_first():
    assert layers.layer_of("/x/src/repro/net/tcp/connection.py") == "net.tcp"
    assert layers.layer_of("/x/src/repro/net/checksum.py") == "net.checksum"
    assert layers.layer_of("/x/src/repro/net/ip.py") == "net"
    assert layers.layer_of("/x/src/repro/obs/trace.py") == "other"
    assert layers.layer_of("/usr/lib/python3.11/heapq.py") == "other"


def _metric(value, samples):
    return {"value": value, "samples": samples}


def test_compare_verdicts():
    steady = _metric(1.0, [0.99, 1.0, 1.01, 1.0])
    assert report._verdict(steady, _metric(1.02, [1.01, 1.02, 1.03, 1.02]),
                           0.10) == "ok"
    assert report._verdict(steady, _metric(1.2, [1.19, 1.2, 1.21, 1.2]),
                           0.10) == "regressed"
    noisy = _metric(1.0, [0.7, 0.9, 1.1, 1.4])
    assert report._verdict(noisy, _metric(1.0, [0.8, 1.0, 1.0, 1.3]),
                           0.10) == "unresolved"
    assert report._verdict(noisy, _metric(0.5, [0.4, 0.5, 0.5, 0.6]),
                           0.10) == "ok"       # B wins every single run
    assert report._verdict(_metric(0.0, [0.0]), _metric(0.01, [0.01]),
                           0.0) == "regressed"


def _cli(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, *argv], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_driver_lines_and_compare(tmp_path):
    doc = _benchmark_json()
    script = os.path.join("benchmarks", "spine", "run.py")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _cli(script, "--workload", "kvstore_mixed", "--seed", "5",
                    "--seconds", "1", "--trace", str(trace), "--quick",
                    "--out", str(tmp_path / f"t{trace}.json"))
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in doc[section]}
        for name, unit in ((m["name"], m["unit"]) for m in doc[section]):
            assert line["metrics"][name]["unit"] == unit
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        proc = _cli(script, "--workload", "pingpong_1b", "--seed", "5",
                    "--seconds", "1", "--quick", "--out", str(path))
        assert proc.returncode == 0, proc.stderr
        assert json.load(open(path))["fingerprint"]["cpus"] >= 1
    proc = _cli(script, "--compare", str(a), str(b))
    assert "exact counts: all" in proc.stdout, proc.stdout
    assert "paper_err_pct" in proc.stdout


def test_refuses_fastpath_env_and_bare_directory(tmp_path):
    script = os.path.join("benchmarks", "spine", "run.py")
    env = dict(os.environ, REPRO_FASTPATH="0")
    proc = subprocess.run([sys.executable, script, "--quick"], cwd=ROOT,
                          env=env, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    assert proc.returncode != 0 and "REPRO_FASTPATH" in proc.stderr
    # A directory with only BENCHMARK.json and the benchmark's own files.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _cli(script, "--workload", "ttcp_bulk", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
