"""repro.proc: the one supervision primitive, attacked directly.

Every case ends with the same check: each child the case forked is
gone (``os.kill(pid, 0)`` raises ``ProcessLookupError``) — reaped, not
orphaned, no matter how the case ended.
"""

import os
import signal
import threading
import time

import pytest

from repro import proc


@pytest.fixture(autouse=True)
def spawned(monkeypatch):
    """Record every Worker forked during the test; assert all are gone."""
    workers = []

    class Recorded(proc.Worker):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            workers.append(self)

    monkeypatch.setattr(proc, "Worker", Recorded)
    monkeypatch.setattr(proc, "GRACE_S", 1.0)
    yield workers
    for worker in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(worker.pid, 0)


def _echo(conn):
    """Reply to every message until the pipe closes."""
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        conn.send(("done", msg))


def _idle_ready(conn):
    conn.send(("ready",))
    conn.recv()             # idle until the parent writes or goes away


class TestRoundTrips:
    def test_done_round_trip(self):
        worker = proc.Worker(_echo)
        worker.send({"n": 1})
        assert worker.recv(timeout=10) == ("done", {"n": 1})
        worker.send([2, 3])
        assert worker.recv(timeout=10) == ("done", [2, 3])
        assert worker.close() is False      # exited on EOF, no escalation

    def test_error_round_trip(self):
        def boom(conn):
            raise ValueError("deterministic boom")

        worker = proc.Worker(boom, name="probe")
        with pytest.raises(proc.WorkerError) as err:
            worker.recv(timeout=10)
        assert err.value.kind == "ValueError"
        assert "Traceback" in err.value.text
        assert "deterministic boom" in err.value.text
        assert str(err.value).startswith("probe raised ValueError")
        worker.close()

    def test_silent_exit_is_a_death_without_a_signal(self):
        worker = proc.Worker(lambda conn: None)
        with pytest.raises(proc.WorkerDied) as err:
            worker.recv(timeout=10)
        assert err.value.signal is None
        assert err.value.exitcode == 0
        assert "exitcode=0" in str(err.value)
        worker.close()


class TestDeath:
    @pytest.mark.parametrize("signame", ["SIGTERM", "SIGKILL"])
    def test_signalled_idle_child_on_recv(self, signame):
        worker = proc.Worker(_idle_ready, name="idle worker")
        assert worker.recv(timeout=10) == ("ready",)
        os.kill(worker.pid, getattr(signal, signame))
        with pytest.raises(proc.WorkerDied) as err:
            worker.recv(timeout=10)
        assert err.value.signal == signame
        assert err.value.exitcode == -getattr(signal, signame)
        assert f"idle worker died without reporting (killed by {signame})" \
            == str(err.value)
        assert worker.close() is False

    @pytest.mark.parametrize("signame", ["SIGTERM", "SIGKILL"])
    def test_signalled_idle_child_on_send(self, signame):
        worker = proc.Worker(_idle_ready)
        assert worker.recv(timeout=10) == ("ready",)
        os.kill(worker.pid, getattr(signal, signame))
        # More than any pipe buffer holds: the write cannot complete
        # into the buffer, it must see the dead reader.
        with pytest.raises(proc.WorkerDied) as err:
            worker.send(b"x" * (8 << 20))
        assert err.value.signal == signame
        assert worker.close() is False


class TestDeadlines:
    def test_recv_timeout_is_worker_hung(self):
        worker = proc.Worker(lambda conn: time.sleep(60))
        t0 = time.monotonic()
        with pytest.raises(proc.WorkerHung):
            worker.recv(timeout=0.3)
        assert 0.3 <= time.monotonic() - t0 < 3.0
        worker.kill()

    def test_close_escalates_past_an_ignored_sigterm(self):
        def stubborn(conn):
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            conn.send(("ready",))
            time.sleep(60)

        worker = proc.Worker(stubborn)
        assert worker.recv(timeout=10) == ("ready",)
        assert worker.close() is True       # join, SIGTERM ignored, SIGKILL
        assert worker.proc.exitcode == -signal.SIGKILL


class TestWait:
    def test_wake_ends_a_wait_with_no_workers(self):
        wake = proc.Wake()
        threading.Timer(0.1, wake.set).start()
        t0 = time.monotonic()
        assert proc.wait([], timeout=10, wake=wake) == []
        assert time.monotonic() - t0 < 5
        # the fired wake was cleared: the next wait times out
        t0 = time.monotonic()
        assert proc.wait([], timeout=0.1, wake=wake) == []
        assert time.monotonic() - t0 >= 0.1

    def test_wait_returns_the_worker_that_reported(self):
        quiet = proc.Worker(_echo)
        loud = proc.Worker(_echo)
        try:
            loud.send("ping")
            assert proc.wait([quiet, loud], timeout=10) == [loud]
            assert loud.recv() == ("done", "ping")
            assert proc.wait([quiet, loud], timeout=0.05) == []
        finally:
            quiet.close()
            loud.close()

    def test_wait_sees_a_death(self):
        worker = proc.Worker(_idle_ready)
        assert worker.recv(timeout=10) == ("ready",)
        worker.proc.kill()
        assert proc.wait([worker], timeout=10) == [worker]
        with pytest.raises(proc.WorkerDied):
            worker.recv()
        worker.close()

    def test_keyboard_interrupt_mid_wait_leaves_no_children(
            self, spawned, monkeypatch):
        """A real SIGINT lands while the gate runner sleeps in wait():
        the runner's unwind kills and reaps the scenario child."""
        import repro.gate.runner as gr
        from repro.gate import ScenarioSpec
        monkeypatch.setattr(gr, "run_scenario", lambda spec: time.sleep(60))
        slow = ScenarioSpec(name="slow", hosts=4, timeout_s=60.0)
        timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                gr.run_corpus([slow], jobs=1)
        finally:
            timer.cancel()
        assert len(spawned) == 1
