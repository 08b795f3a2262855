"""tools/bench_history.py on a small hand-written spine result set."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "bench_history", os.path.join(ROOT, "tools", "bench_history.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metric(samples, unit, value=None):
    return {"value": sorted(samples)[len(samples) // 2] if value is None
            else value, "unit": unit, "samples": samples}


def _result_set(tmp_path, commit="abc1234", seed=3):
    entry = {"runs": 3, "attempted": 30, "failed": 1, "fastpath": True,
             "notes": ["one late reply"], "traced_wall_s": 2.0,
             "end_to_end": {
                 "cpu_s": _metric([1.0, 3.0, 2.0], "s"),
                 "wall_s": _metric([1.5, 3.5, 2.5], "s"),
                 "fail_share": _metric([0.0, 0.1, 0.0], "ratio", 1 / 30)}}
    lone = {"runs": 1, "attempted": 5, "failed": 0, "fastpath": True,
            "notes": [],
            "end_to_end": {"cpu_s": _metric([4.0], "s"),
                           "wall_s": _metric([4.5], "s")}}
    path = tmp_path / "results.json"
    path.write_text(json.dumps({
        "benchmark": "spine", "seed": seed, "quick": False, "skipped": [],
        "fingerprint": {"cpus": 2, "python": "3.11.7", "platform": "Linux",
                        "commit": commit, "fastpath": True, "seed": seed,
                        "runs": {"ttcp_bulk": 3, "pingpong_1b": 1}},
        "workloads": {"ttcp_bulk": entry, "pingpong_1b": lone}}))
    os.utime(path, (1_000_000_000, 1_000_000_000))
    return str(path)


def test_one_record_per_workload_in_the_documented_shape(tool, tmp_path):
    path = _result_set(tmp_path)
    history = tmp_path / "history.jsonl"
    assert tool.append(path, str(history)) == 2
    first, second = map(json.loads, history.read_text().splitlines())
    assert (first["id"], second["id"]) == ("abc1234:ttcp_bulk:3",
                                           "abc1234:pingpong_1b:3")
    assert first["attempt"] == 3 and second["attempt"] == 1
    assert first["errors"] == {"failed": 1, "attempted": 30,
                               "notes": ["one late reply"]}
    assert first["artifact"] == path
    assert first["host"] == {"cpus": 2, "python": "3.11.7",
                             "platform": "Linux", "fastpath": True}
    assert first["metrics"]["cpu_s"] == {"value": 2.0, "q1": 1.0, "q3": 3.0,
                                         "n": 3, "unit": "s"}
    # The pooled value is kept as the spine reports it, not re-derived.
    assert first["metrics"]["fail_share"]["value"] == 1 / 30
    assert second["metrics"]["cpu_s"] == {"value": 4.0, "q1": 4.0, "q3": 4.0,
                                          "n": 1, "unit": "s"}
    # end = the file's mtime; start = end less 7.5 + 2.0 + 4.5 measured s.
    assert first["end"] == second["end"] == "2001-09-09T01:46:40Z"
    assert first["start"] == "2001-09-09T01:46:26Z"


def test_a_dirty_tree_is_named_in_the_id(tool, tmp_path):
    record = tool.records(_result_set(tmp_path), dirty=True)[0]
    assert record["commit"] == "abc1234+dirty"
    assert record["id"] == "abc1234+dirty:ttcp_bulk:3"


def test_duplicates_are_refused_and_old_lines_never_rewritten(tool, tmp_path):
    history = tmp_path / "history.jsonl"
    tool.append(_result_set(tmp_path), str(history))
    before = history.read_bytes()
    with pytest.raises(SystemExit) as exc:
        tool.append(_result_set(tmp_path), str(history))
    assert "abc1234:ttcp_bulk:3" in str(exc.value)
    assert history.read_bytes() == before
    # Another seed of the same commit is a new experiment: appended after.
    tool.append(_result_set(tmp_path, seed=4), str(history))
    after = history.read_bytes()
    assert after.startswith(before)
    assert len(after.splitlines()) == 4


def test_the_committed_history_parses_and_ids_are_unique(tool):
    with open(tool.HISTORY) as fh:
        ids = [json.loads(line)["id"] for line in fh]
    assert ids and len(ids) == len(set(ids))
