"""repro serve: the supervised, self-healing simulation service.

The chaos properties pinned here (the ISSUE's acceptance criteria):

(a) SIGKILL a worker mid-job → the job still completes via supervised
    restart, and exactly one result is recorded under its idempotency
    key (one ``done`` journal record, no duplicates);
(b) a scenario that crashes its worker repeatedly is quarantined by the
    circuit breaker while other jobs on the same pool complete;
(c) open-loop arrivals at ~2x capacity → the queue stays bounded,
    excess load is shed with 429 + ``Retry-After``, and accepted jobs
    finish with bounded latency (degradation, not collapse);
(d) SIGKILL the whole server → a restart on the same data dir recovers
    every completed result from the journal and re-queues (or marks
    interrupted) everything that was in flight.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.errors import ConfigError, ReproError
from repro.gate.spec import ScenarioSpec, WorkloadSpec
from repro.serve import (DONE, FAILED, INTERRUPTED, QUARANTINED, QUEUED,
                         AdmissionQueue, Job, JobStore, ReproServer,
                         ServeClient, ServeConfig, ServeUnavailable,
                         read_journal)
from repro.serve.loadgen import run_phase

# ---------------------------------------------------------------------------
# fixtures: specs, executors, servers
# ---------------------------------------------------------------------------


def _spec_dict(name="tiny", **kw):
    defaults = dict(name=name, hosts=4, seed=3,
                    workload=WorkloadSpec(count=1, total_bytes=4096,
                                          chunk=1024),
                    workers=(1,), timeout_s=30.0)
    defaults.update(kw)
    return ScenarioSpec(**defaults).to_dict()


def _ok_result():
    return {"digests": {"net": "abc"}, "violations": [], "workers": [1]}


def _dispatch_exec(marker_dir):
    """The chaos-test executor (runs in the forked child; dispatches on
    the scenario name so one server can see several behaviours):

    * ``poison*``  — SIGKILL itself (a deterministic worker-killer);
    * ``sleepy*``  — sleep far past any test's patience;
    * ``once-*``   — sleep on the first attempt (the test kills it),
      succeed on later ones (marker file = attempt memory);
    * ``raise*``   — deterministic in-worker exception;
    * ``violate*`` — report an invariant violation;
    * ``slow*``    — a fixed small service time (load-gen plant);
    * anything else — succeed immediately.
    """
    def run(spec):
        name = spec["name"]
        if name.startswith("poison"):
            os.kill(os.getpid(), signal.SIGKILL)
        if name.startswith("sleepy"):
            time.sleep(120.0)
        if name.startswith("once-"):
            marker = os.path.join(marker_dir, name + ".marker")
            if not os.path.exists(marker):
                with open(marker, "w") as f:
                    f.write("attempt 1\n")
                time.sleep(120.0)       # the test SIGKILLs this attempt
        if name.startswith("raise"):
            raise ValueError(f"deterministic failure in {name}")
        if name.startswith("violate"):
            return {"digests": {}, "violations": ["tcp.sack: boom"],
                    "workers": [1]}
        if name.startswith("slow"):
            time.sleep(0.25)
        return _ok_result()
    return run


def _server(tmp_path, subdir="serve", **cfg):
    defaults = dict(data_dir=str(tmp_path / subdir), pool_size=2,
                    retry_base_s=0.02, retry_max_s=0.1,
                    snapshot_interval_s=600.0)
    defaults.update(cfg)
    config = ServeConfig(**defaults)
    server = ReproServer(config, executor=_dispatch_exec(str(tmp_path)),
                         fsync=False).start()
    client = ServeClient(server.url)
    client.wait_ready()
    return server, client


def _submit_ok(api, spec, **kw):
    status, data, _ = api.submit(spec, **kw)
    assert status == 202, data
    return data["job"]


def _done_records(journal_path, job_id):
    return [r for r in read_journal(journal_path)
            if r and r["ev"] == "state" and r["id"] == job_id
            and r["state"] == DONE]


# ---------------------------------------------------------------------------
# the store: journal, snapshot, recovery, exactly-once
# ---------------------------------------------------------------------------


class TestJobStore:
    def _job(self, n=1, **kw):
        defaults = dict(id=f"j{n}", key=f"k{n}", client="c",
                        scenario="tiny", spec=_spec_dict(),
                        submitted_at=123.0)
        defaults.update(kw)
        return Job(**defaults)

    def test_journal_replay_restores_state(self, tmp_path):
        root = str(tmp_path / "store")
        store = JobStore(root, fsync=False)
        store.submit(self._job(1))
        store.submit(self._job(2))
        store.transition("j1", "running", attempts=1, worker_pid=42)
        store.transition("j1", DONE, result=_ok_result(),
                         finished_at=124.0, worker_pid=None)
        store.close()

        again = JobStore(root, fsync=False)
        assert not again.recovered_torn_tail
        assert again.counts() == {DONE: 1, QUEUED: 1}
        j1 = again.get("j1")
        assert j1.state == DONE and j1.result == _ok_result()
        assert j1.attempts == 1 and j1.worker_pid is None
        assert again.lookup_key("k2").id == "j2"
        assert again.new_job_id() == "j3"   # id counter survives too

    def test_terminal_guard_is_exactly_once(self, tmp_path):
        store = JobStore(str(tmp_path / "store"), fsync=False)
        store.submit(self._job(1))
        assert store.transition("j1", DONE, result=_ok_result())
        # a racing duplicate completion (or a replayed retry) is dropped
        assert not store.transition("j1", FAILED,
                                    error={"kind": "late", "message": "x"})
        assert not store.transition("j1", DONE, result={"digests": {}})
        assert store.get("j1").state == DONE
        assert not store.transition("j999", DONE)   # unknown id: dropped
        records = [r for r in read_journal(store.journal_path)
                   if r["ev"] == "state" and r["state"] == DONE]
        assert len(records) == 1

    def test_snapshot_plus_tail_replay(self, tmp_path):
        root = str(tmp_path / "store")
        store = JobStore(root, fsync=False)
        store.submit(self._job(1))
        store.transition("j1", DONE, result=_ok_result())
        store.snapshot()
        store.submit(self._job(2))              # journal tail > snapshot
        store.transition("j2", "running", attempts=1)
        store.close()

        again = JobStore(root, fsync=False)
        assert again.get("j1").state == DONE
        assert again.get("j2").state == "running"
        assert again.get("j2").attempts == 1

    def test_torn_final_line_is_tolerated(self, tmp_path):
        root = str(tmp_path / "store")
        store = JobStore(root, fsync=False)
        store.submit(self._job(1))
        store.transition("j1", DONE, result=_ok_result())
        store.close()
        with open(store.journal_path, "a") as f:
            f.write('{"ev": "state", "id": "j1", "sta')   # crash mid-append

        again = JobStore(root, fsync=False)
        assert again.recovered_torn_tail
        assert again.get("j1").state == DONE

    def test_torn_tail_is_truncated_before_reappend(self, tmp_path):
        """Regression: recovery must drop the torn fragment from disk.
        Left in place, the next append concatenates onto it: with one
        record appended the merged line is misread as a fresh torn tail
        on the next boot (silently dropping an acknowledged record);
        with more it becomes interior corruption and the store cannot
        boot at all."""
        root = str(tmp_path / "store")
        store = JobStore(root, fsync=False)
        store.submit(self._job(1))
        store.close()
        with open(store.journal_path, "a") as f:
            f.write('{"ev": "state", "id": "j1", "sta')   # crash mid-append

        recovered = JobStore(root, fsync=False)
        assert recovered.recovered_torn_tail
        # exactly one record after recovery: the silent-drop shape
        assert recovered.transition("j1", DONE, result=_ok_result())
        recovered.close()

        again = JobStore(root, fsync=False)
        assert not again.recovered_torn_tail
        assert again.get("j1").state == DONE     # the ack'd record survived
        again.submit(self._job(2))      # several records: the no-boot shape
        again.close()

        third = JobStore(root, fsync=False)
        assert not third.recovered_torn_tail
        assert third.get("j1").state == DONE
        assert third.get("j2") is not None

    def test_corrupt_interior_line_raises(self, tmp_path):
        root = str(tmp_path / "store")
        store = JobStore(root, fsync=False)
        store.submit(self._job(1))
        store.close()
        with open(store.journal_path) as f:
            good = f.read()
        with open(store.journal_path, "w") as f:
            f.write("NOT JSON\n" + good)
        with pytest.raises(ConfigError, match="corrupt journal"):
            JobStore(root, fsync=False)

    def test_duplicate_ids_and_keys_refused(self, tmp_path):
        store = JobStore(str(tmp_path / "store"), fsync=False)
        store.submit(self._job(1))
        with pytest.raises(ConfigError, match="duplicate job id"):
            store.submit(self._job(1))
        with pytest.raises(ConfigError, match="duplicate job key"):
            store.submit(self._job(2, key="k1"))


# ---------------------------------------------------------------------------
# admission control (pure unit)
# ---------------------------------------------------------------------------


class TestAdmissionQueue:
    def _job(self, n, client="c"):
        return Job(id=f"j{n}", key=f"k{n}", client=client, scenario="t",
                   spec={}, submitted_at=0.0)

    def test_bounded_queue_sheds_with_retry_after(self):
        q = AdmissionQueue(max_queue=2, client_cap=10, pool_size=1,
                           service_time_guess_s=2.0)
        assert q.offer(self._job(1)) is None
        assert q.offer(self._job(2)) is None
        shed = q.offer(self._job(3))
        assert shed["kind"] == "queue_full"
        assert 1 <= shed["retry_after_s"] <= 60
        assert q.depth() == 2 and q.high_water == 2

    def test_client_cap_is_per_client(self):
        q = AdmissionQueue(max_queue=10, client_cap=1, pool_size=1)
        assert q.offer(self._job(1, "alice")) is None
        assert q.offer(self._job(2, "alice"))["kind"] == "client_cap"
        assert q.offer(self._job(3, "bob")) is None      # bob unaffected
        q.take()
        q.release_client("alice")                         # terminal
        assert q.offer(self._job(4, "alice")) is None

    def test_restore_bypasses_every_gate(self):
        q = AdmissionQueue(max_queue=1, client_cap=1, pool_size=1)
        assert q.offer(self._job(1)) is None
        q.restore(self._job(2))         # retry/recovery re-entry
        assert q.depth() == 2           # over max_queue, by design
        q.close()
        q.restore(self._job(3))         # even while draining
        assert q.depth() == 3

    def test_closed_queue_sheds_as_draining(self):
        q = AdmissionQueue(max_queue=10, client_cap=10, pool_size=1)
        q.close()
        assert q.offer(self._job(1))["kind"] == "draining"
        assert q.take() is None

    def test_retry_after_tracks_service_time(self):
        q = AdmissionQueue(max_queue=10, client_cap=10, pool_size=2,
                           service_time_guess_s=1.0)
        for n in range(6):
            q.offer(self._job(n))
        slow = q.retry_after_s()
        for _ in range(20):
            q.note_service_time(0.01)   # EWMA converges toward 10ms
        assert q.retry_after_s() <= slow
        assert q.retry_after_s() >= 1   # clamp floor

    def test_fifo_take(self):
        q = AdmissionQueue(max_queue=10, client_cap=10, pool_size=1)
        q.offer(self._job(1))
        q.offer(self._job(2))
        assert q.take().id == "j1" and q.take().id == "j2"
        assert q.take() is None


# ---------------------------------------------------------------------------
# the HTTP API surface
# ---------------------------------------------------------------------------


class TestServeAPI:
    def test_submit_run_fetch_roundtrip(self, tmp_path):
        server, client = _server(tmp_path)
        try:
            job = _submit_ok(client, _spec_dict(), key="r1",
                             client="alice")
            done = client.wait(job["id"], timeout_s=20)
            assert done["state"] == DONE
            assert done["attempts"] == 1
            assert done["result"]["digests"] == {"net": "abc"}
            assert done["error"] is None
            # lookup by id, by key, and via the index all agree
            assert client.job(job["id"])[1]["job"]["state"] == DONE
            status, data, _ = client.request(
                "GET", f"/jobs?key=r1")
            assert status == 200 and data["job"]["id"] == job["id"]
            index = client.jobs()
            assert index["counts"] == {DONE: 1}
        finally:
            server.drain_and_stop(5)

    def test_endpoint_file_appears_complete(self, tmp_path, monkeypatch):
        """serve.json appears only by an atomic rename of a complete file
        from the same directory, so a poller never parses it empty."""
        import repro.serve.server as server_mod
        real_replace = os.replace
        renames = []

        def spy(src, dst):
            if os.path.basename(dst) == "serve.json":
                with open(src, encoding="utf-8") as f:
                    renames.append((src, dst, json.load(f)))
                assert not os.path.exists(dst)
            real_replace(src, dst)

        monkeypatch.setattr(server_mod.os, "replace", spy)
        server, _client = _server(tmp_path)
        try:
            endpoint = os.path.join(server.config.data_dir, "serve.json")
            assert [(os.path.dirname(src), dst) for src, dst, _ in renames] \
                == [(server.config.data_dir, endpoint)]
            assert renames[0][2]["url"] == server.url
            with open(endpoint, encoding="utf-8") as f:
                assert json.load(f) == renames[0][2]
            assert os.listdir(server.config.data_dir).count("serve.json") == 1
            assert not [n for n in os.listdir(server.config.data_dir)
                        if n.endswith(".tmp")]
        finally:
            server.drain_and_stop(5)

    def test_idempotent_key_and_conflicts(self, tmp_path):
        server, client = _server(tmp_path)
        try:
            spec = _spec_dict()
            job = _submit_ok(client, spec, key="idem")
            # same key + same spec: 200, the same job, no second run
            status, data, _ = client.submit(spec, key="idem")
            assert status == 200 and data["duplicate"]
            assert data["job"]["id"] == job["id"]
            # same key + different spec: 409
            status, data, _ = client.submit(_spec_dict(seed=99),
                                            key="idem")
            assert status == 409
            assert data["error"]["kind"] == "key_conflict"
            assert data["error"]["job_id"] == job["id"]
        finally:
            server.drain_and_stop(5)

    def test_invalid_submissions_are_structured_400s(self, tmp_path):
        server, client = _server(tmp_path)
        try:
            status, data, _ = client.request("POST", "/jobs", {"no": 1})
            assert status == 400
            assert data["error"]["kind"] == "bad_request"
            status, data, _ = client.submit({"name": "x", "bogus": 1})
            assert status == 400     # ScenarioSpec validation, by type
            assert data["error"]["kind"] == "ConfigError"
            conn_status, data, _ = client.request("GET", "/nope")
            assert conn_status == 404
            status, data, _ = client.request("POST", "/jobs/j1/x")
            assert status == 404
            status, data, _ = client.request("PUT", "/jobs")
            assert status == 405
        finally:
            server.drain_and_stop(5)

    def test_health_ready_metrics(self, tmp_path):
        server, client = _server(tmp_path)
        try:
            assert client.healthz()[0] == 200
            status, ready = client.readyz()
            assert status == 200
            assert ready["pool_size"] == 2
            _submit_ok(client, _spec_dict(), key="m1")
            client.wait(client.jobs()["jobs"][0]["id"], timeout_s=20)
            metricz = client.metricz()
            assert metricz["jobs"] == {DONE: 1}
            assert metricz["metrics"]["serve.accepted"] == 1
        finally:
            server.drain_and_stop(5)

    def test_drain_flips_readiness_and_sheds(self, tmp_path):
        server, client = _server(tmp_path)
        _submit_ok(client, _spec_dict(), key="d1")
        status, _ = client.drain()
        assert status == 202
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not server._stopped:
            time.sleep(0.05)
        assert server._stopped
        # everything already submitted finished; nothing was orphaned
        assert server.store.get("j1").state == DONE
        assert server.supervisor.worker_pids() == []

    def test_idle_dispatch_is_event_driven(self, tmp_path):
        """A job arriving at an idle pool is forked on admission, not
        on the supervisor's next timer tick."""
        server, client = _server(tmp_path, pool_size=1)
        try:
            for i in range(8):
                job = _submit_ok(client, _spec_dict(), key=f"idle{i}")
                assert client.wait(job["id"], timeout_s=20,
                                   poll_s=0.005)["state"] == DONE
        finally:
            server.drain_and_stop(5)
        wait_s = server.metrics.histogram("serve.wait_s")
        assert wait_s.count == 8
        assert wait_s.percentile(50) < 0.010

    def test_drain_kills_stragglers_as_interrupted(self, tmp_path):
        server, client = _server(tmp_path, pool_size=1)
        job = _submit_ok(client, _spec_dict(name="sleepy"), key="s1")
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline \
                and not server.supervisor.worker_pids():
            time.sleep(0.02)
        pids = server.supervisor.worker_pids()
        assert pids
        assert server.drain_and_stop(0.3) == 1
        record = server.store.get(job["id"])
        assert record.state == INTERRUPTED
        assert record.error["kind"] == "drain_timeout"
        for pid in pids:                       # no orphaned children
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def _one_shot_server(reply: bytes):
    """A listener that reads one request, answers it with ``reply``
    verbatim and closes; returns (url, thread)."""
    import socket
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn:
                request = b""
                while b"\r\n\r\n" not in request:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    request += chunk
                conn.sendall(reply)
                conn.shutdown(socket.SHUT_WR)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return f"http://127.0.0.1:{listener.getsockname()[1]}", thread


class TestServeClientErrors:
    """Every way the transport can fail reaches callers (``repro serve
    submit/status``) as a ``ReproError``, never a raw exception."""

    @pytest.mark.parametrize("reply", [
        b"SSH-2.0-not-http\r\n",                                 # not HTTP
        b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nhello",  # truncated
    ], ids=["bad_status_line", "incomplete_read"])
    def test_broken_reply_is_serve_unavailable(self, reply):
        url, thread = _one_shot_server(reply)
        with pytest.raises(ServeUnavailable):
            ServeClient(url, timeout_s=10).healthz()
        thread.join(10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("url", ["http://h:abc", "http://h:99999"])
    def test_bad_port_is_a_repro_error(self, url):
        with pytest.raises(ReproError, match="serve url"):
            ServeClient(url)


# ---------------------------------------------------------------------------
# supervision chaos: the acceptance criteria
# ---------------------------------------------------------------------------


class TestSupervisionChaos:
    def _wait_worker(self, server, timeout_s=10.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            pids = server.supervisor.worker_pids()
            if pids:
                return pids[0]
            time.sleep(0.02)
        raise AssertionError("no worker started")

    def test_sigkilled_worker_restarts_exactly_once(self, tmp_path):
        """(a) kill the forked worker mid-job: the supervisor restarts
        the attempt with backoff and exactly one result is journaled."""
        server, client = _server(tmp_path, pool_size=1)
        try:
            job = _submit_ok(client, _spec_dict(name="once-a"),
                             key="chaos-a")
            pid = self._wait_worker(server)
            # Kill only once the attempt has left its marker: a kill that
            # lands between fork and the marker makes the retry take the
            # first-attempt branch and sleep out the wait below.
            marker = tmp_path / "once-a.marker"
            deadline = time.monotonic() + 10
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert marker.exists()
            os.kill(pid, signal.SIGKILL)
            done = client.wait(job["id"], timeout_s=30)
            assert done["state"] == DONE
            assert done["attempts"] == 2          # killed once, retried
            assert done["result"] == _ok_result()
            # exactly-once: a single done record under the key
            assert len(_done_records(server.store.journal_path,
                                     job["id"])) == 1
            status, data, _ = client.submit(_spec_dict(name="once-a"),
                                            key="chaos-a")
            assert status == 200 and data["duplicate"]
            assert server.metrics.counter("serve.retries").value == 1
        finally:
            server.drain_and_stop(5)

    def test_poison_scenario_is_quarantined(self, tmp_path):
        """(b) a scenario that kills its worker every time trips the
        breaker and is quarantined; other jobs complete untouched."""
        server, client = _server(tmp_path, pool_size=2, breaker_deaths=3,
                                 max_attempts=5)
        try:
            poison = _submit_ok(client, _spec_dict(name="poison-x"),
                                key="px")
            good = [_submit_ok(client, _spec_dict(), key=f"g{i}",
                               client=f"c{i}")
                    for i in range(3)]
            record = client.wait(poison["id"], timeout_s=30)
            assert record["state"] == QUARANTINED
            assert record["error"]["kind"] == "quarantined"
            assert record["attempts"] == 3        # breaker_deaths deaths
            for g in good:
                assert client.wait(g["id"], timeout_s=30)["state"] == DONE
            # while the breaker is open, dispatch quarantines instantly
            again = _submit_ok(client, _spec_dict(name="poison-x"),
                               key="px2")
            record = client.wait(again["id"], timeout_s=30)
            assert record["state"] == QUARANTINED
            assert record["attempts"] == 0        # never even forked
            assert "cooldown" in record["error"]["message"]
            deaths = server.metrics.counter("serve.worker_deaths").value
            assert deaths == 3                    # px2 cost zero deaths
        finally:
            server.drain_and_stop(5)

    def test_wedged_worker_is_escalated_then_exhausted(self, tmp_path):
        server, client = _server(tmp_path, pool_size=1, max_attempts=2,
                                 breaker_deaths=10, default_timeout_s=0.3)
        try:
            spec = _spec_dict(name="sleepy-w")
            spec.pop("timeout_s")
            job = _submit_ok(client, spec, key="w1")
            record = client.wait(job["id"], timeout_s=30)
            assert record["state"] == FAILED
            assert record["error"]["kind"] == "retry_exhausted"
            assert "wedged" in record["error"]["message"]
            assert record["attempts"] == 2
            assert server.metrics.counter(
                "serve.worker_wedged").value == 2
        finally:
            server.drain_and_stop(5)

    def test_deterministic_failures_do_not_retry(self, tmp_path):
        server, client = _server(tmp_path)
        try:
            boom = _submit_ok(client, _spec_dict(name="raise-z"),
                              key="e1")
            record = client.wait(boom["id"], timeout_s=30)
            assert record["state"] == FAILED
            assert record["error"]["kind"] == "ValueError"
            assert record["attempts"] == 1        # no retry: reproducible
            bad = _submit_ok(client, _spec_dict(name="violate-z"),
                             key="e2")
            record = client.wait(bad["id"], timeout_s=30)
            assert record["state"] == FAILED
            assert record["error"]["kind"] == "invariant_failed"
            assert "tcp.sack" in record["error"]["message"]
            # healthy-process failures never count toward quarantine
            assert server.metrics.counter(
                "serve.worker_deaths").value == 0
        finally:
            server.drain_and_stop(5)


# ---------------------------------------------------------------------------
# overload: open-loop Poisson arrivals at 2x capacity
# ---------------------------------------------------------------------------


class TestOverload:
    def test_overload_sheds_bounded_and_recovers(self, tmp_path):
        """(c) drive ~2x capacity: bounded queue, 429 + Retry-After on
        every shed, and the accepted jobs all finish (bounded latency).
        """
        max_queue = 4
        server, client = _server(tmp_path, pool_size=1,
                                 max_queue=max_queue, client_cap=100)
        try:
            spec = _spec_dict(name="slow-load")
            # capacity = 1 worker / 0.25s service = 4 jobs/s; drive ~4x
            phase = run_phase(client, spec, rate_per_s=16.0,
                              duration_s=1.0, seed=7, phase="2x",
                              wait_timeout_s=30.0)
            assert phase["offered"] >= 8
            assert phase["accepted"] >= 1
            assert phase["shed"] > 0                        # overload bit
            assert phase["errors"] == 0
            # every shed came with honest back-pressure advice
            assert phase["shed_with_retry_after"] == phase["shed"]
            # the queue never grew past its bound
            assert phase["max_queue_depth"] <= max_queue
            assert server.queue.high_water <= max_queue
            # every accepted job finished within the bounded wait
            assert phase["unfinished_after_wait"] == 0
            assert phase["latency_s"]["count"] == phase["accepted"]
            assert phase["latency_s"]["max"] < 30.0
            shed_counters = [
                v for k, v in server.metrics.snapshot().items()
                if k.startswith("serve.shed.")]
            assert sum(shed_counters) == phase["shed"]
        finally:
            server.drain_and_stop(10)


# ---------------------------------------------------------------------------
# whole-server crash + restart recovery
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_crash_recovers_results_and_requeues(self, tmp_path):
        """(d) SIGKILL the server (simulated in-process: supervision
        frozen, workers killed, no further journal writes): a restart
        on the same data dir serves completed results from the journal
        and re-queues what was caught mid-flight."""
        server, client = _server(tmp_path, pool_size=1)
        finished = _submit_ok(client, _spec_dict(), key="safe")
        assert client.wait(finished["id"], timeout_s=20)["state"] == DONE
        running = _submit_ok(client, _spec_dict(name="sleepy-r"),
                             key="caught-running")
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline \
                and not server.supervisor.worker_pids():
            time.sleep(0.02)
        pids = server.supervisor.worker_pids()
        assert pids
        queued = _submit_ok(client, _spec_dict(name="sleepy-q"),
                            key="caught-queued")
        server.simulate_crash()
        for pid in pids:                       # no orphaned children
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

        # restart on the same data dir with a benign executor
        config = ServeConfig(data_dir=str(tmp_path / "serve"),
                             pool_size=1, retry_base_s=0.02)
        revived = ReproServer(config, executor=lambda s: _ok_result(),
                              fsync=False)
        store = revived.store
        # the completed result survived with its payload
        assert store.get(finished["id"]).state == DONE
        assert store.get(finished["id"]).result == _ok_result()
        # the mid-run job was re-queued with a structured explanation
        caught = store.get(running["id"])
        assert caught.state == QUEUED
        assert caught.error["kind"] == "interrupted_retry"
        assert store.get(queued["id"]).state == QUEUED
        assert revived.metrics.counter(
            "serve.recovered_requeued").value == 2
        # ...and once supervision resumes, everything reaches done
        revived.start()
        client2 = ServeClient(revived.url)
        client2.wait_ready()
        try:
            assert client2.wait(running["id"],
                                timeout_s=20)["state"] == DONE
            assert client2.wait(queued["id"],
                                timeout_s=20)["state"] == DONE
            # idempotency keys survived the crash too
            status, data, _ = client2.submit(_spec_dict(), key="safe")
            assert status == 200 and data["duplicate"]
        finally:
            revived.drain_and_stop(5)

    def test_crash_with_no_attempts_left_marks_interrupted(self,
                                                           tmp_path):
        server, client = _server(tmp_path, pool_size=1, max_attempts=1)
        job = _submit_ok(client, _spec_dict(name="sleepy-i"), key="i1")
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline \
                and not server.supervisor.worker_pids():
            time.sleep(0.02)
        server.simulate_crash()

        config = ServeConfig(data_dir=str(tmp_path / "serve"),
                             pool_size=1, max_attempts=1)
        revived = ReproServer(config, fsync=False)
        record = revived.store.get(job["id"])
        assert record.state == INTERRUPTED
        assert record.error["kind"] == "interrupted"
        assert revived.metrics.counter(
            "serve.recovered_interrupted").value == 1
        revived.store.close()


# ---------------------------------------------------------------------------
# signal-driven shutdown of the serve CLI process (satellite 3)
# ---------------------------------------------------------------------------


class TestServeSignals:
    def test_sigterm_drains_the_cli_server(self, tmp_path):
        """`repro serve run` under SIGTERM: drains, reaps every forked
        worker, exits 0 — no orphans, no partial journal."""
        import subprocess
        import sys
        data = tmp_path / "serve-sig"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(__file__), "..", "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "run",
             "--dir", str(data), "--pool", "1", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            endpoint = data / "serve.json"
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline \
                    and not endpoint.exists():
                time.sleep(0.05)
            assert endpoint.exists(), "server never wrote serve.json"
            url = json.loads(endpoint.read_text())["url"]
            client = ServeClient(url)
            client.wait_ready()
            job = _submit_ok(client, _spec_dict(), key="sig1")
            assert client.wait(job["id"], timeout_s=30)["state"] == DONE
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out.decode()
            assert b"drained and stopped" in out
            # the whole process group is gone: no orphaned workers
            with pytest.raises(ProcessLookupError):
                os.killpg(os.getpgid(proc.pid)
                          if proc.poll() is None else proc.pid, 0)
            # the journal closed cleanly and replays
            store = JobStore(str(data), fsync=False)
            assert store.get(job["id"]).state == DONE
            assert not store.recovered_torn_tail
            store.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
