"""Unit tests for Store, WorkQueue, Timer and RngHub."""

import pytest

from repro.sim import (SimulationError, Simulator, Store, Timer,
                       PeriodicTimer, WorkQueue)


@pytest.fixture
def sim():
    return Simulator()


class TestStore:
    def test_put_then_get(self, sim):
        st = Store(sim)
        st.put("x")

        def proc():
            v = yield st.get()
            return v

        assert sim.run_process(proc()) == "x"

    def test_get_blocks_until_put(self, sim):
        st = Store(sim)

        def getter():
            v = yield st.get()
            return (sim.now, v)

        sim.call_later(25, st.put, "late")
        assert sim.run_process(getter()) == (25, "late")

    def test_fifo_order(self, sim):
        st = Store(sim)
        for i in range(5):
            st.put(i)
        got = []

        def proc():
            for _ in range(5):
                got.append((yield st.get()))

        sim.run_process(proc())
        assert got == [0, 1, 2, 3, 4]

    def test_multiple_getters_fifo(self, sim):
        st = Store(sim)
        got = []

        def getter(tag):
            v = yield st.get()
            got.append((tag, v))

        sim.process(getter("a"))
        sim.process(getter("b"))
        sim.call_later(1, st.put, 1)
        sim.call_later(2, st.put, 2)
        sim.run()
        assert got == [("a", 1), ("b", 2)]

    def test_capacity_overflow_raises(self, sim):
        st = Store(sim, capacity=2)
        st.put(1)
        st.put(2)
        assert st.is_full
        assert not st.try_put(3)
        with pytest.raises(SimulationError):
            st.put(3)

    def test_counters(self, sim):
        st = Store(sim)
        st.put(1)
        st.put(2)
        st.get()
        assert st.total_put == 2
        assert st.total_got == 1


class TestWorkQueue:
    def test_serial_execution(self, sim):
        wq = WorkQueue(sim)
        done_times = []
        wq.submit(10, fn=lambda: done_times.append(sim.now))
        wq.submit(5, fn=lambda: done_times.append(sim.now))
        sim.run()
        assert done_times == [10, 15]

    def test_priority_dispatch(self, sim):
        wq = WorkQueue(sim)
        order = []
        # First item starts immediately; the rest queue and sort by priority.
        wq.submit(10, fn=lambda: order.append("first"))
        wq.submit(1, priority=5, fn=lambda: order.append("low"))
        wq.submit(1, priority=0, fn=lambda: order.append("high"))
        sim.run()
        assert order == ["first", "high", "low"]

    def test_done_event_fires(self, sim):
        wq = WorkQueue(sim)

        def proc():
            yield wq.submit(7, category="syscall")
            return sim.now

        assert sim.run_process(proc()) == 7

    def test_busy_accounting(self, sim):
        wq = WorkQueue(sim)
        wq.submit(10, category="copy")
        wq.submit(30, category="checksum")
        sim.run()
        assert wq.busy_time == 40
        assert wq.busy_by_category == {"copy": 10, "checksum": 30}
        assert wq.items_completed == 2

    def test_utilization_window(self, sim):
        wq = WorkQueue(sim)
        wq.submit(25, category="work")
        sim.call_later(100, lambda: None)
        sim.run()
        assert sim.now == 100
        assert wq.utilization() == pytest.approx(0.25)

    def test_reset_stats(self, sim):
        wq = WorkQueue(sim)
        wq.submit(10)
        sim.run()
        wq.reset_stats()
        assert wq.busy_time == 0
        assert wq.utilization() == 0.0

    def test_zero_duration_work(self, sim):
        wq = WorkQueue(sim)
        hits = []
        wq.submit(0, fn=lambda: hits.append(sim.now))
        sim.run()
        assert hits == [0]

    def test_negative_duration_rejected(self, sim):
        wq = WorkQueue(sim)
        with pytest.raises(SimulationError):
            wq.submit(-1)

    def test_queue_depth_fast_path(self, sim):
        # With the idle fast path, the first item is accounted eagerly
        # (busy horizon) and the next is dispatched behind it; only the
        # third waits in the heap.  Completion times are identical.
        wq = WorkQueue(sim)
        wq.submit(10)
        wq.submit(10)
        wq.submit(10)
        assert wq.dispatching
        sim.run()
        assert sim.now == 30
        assert wq.busy_time == 30


class TestTimer:
    def test_fires_once(self, sim):
        hits = []
        t = Timer(sim, lambda: hits.append(sim.now))
        t.start(12)
        sim.run()
        assert hits == [12]
        assert not t.armed
        assert t.fire_count == 1

    def test_cancel(self, sim):
        hits = []
        t = Timer(sim, lambda: hits.append(sim.now))
        t.start(12)
        sim.call_later(5, t.cancel)
        sim.run()
        assert hits == []

    def test_restart_supersedes(self, sim):
        hits = []
        t = Timer(sim, lambda: hits.append(sim.now))
        t.start(10)
        sim.call_later(5, t.start, 10)  # re-arm at t=5 -> fires at 15
        sim.run()
        assert hits == [15]

    def test_start_if_idle(self, sim):
        hits = []
        t = Timer(sim, lambda: hits.append(sim.now))
        t.start(10)
        t.start_if_idle(100)  # ignored; already armed
        sim.run()
        assert hits == [10]

    def test_deadline_and_remaining(self, sim):
        t = Timer(sim, lambda: None)
        t.start(10)
        assert t.deadline == 10
        assert t.remaining == 10
        t.cancel()
        assert t.deadline is None
        assert t.remaining is None

    def test_rearm_from_callback(self, sim):
        hits = []

        def cb():
            hits.append(sim.now)
            if len(hits) < 3:
                t.start(10)

        t = Timer(sim, cb)
        t.start(10)
        sim.run()
        assert hits == [10, 20, 30]

    def test_periodic(self, sim):
        hits = []
        p = PeriodicTimer(sim, 5, lambda: hits.append(sim.now))
        p.start()
        sim.call_later(17, p.stop)
        sim.run()
        assert hits == [5, 10, 15]


class TestRng:
    def test_streams_independent_and_deterministic(self):
        from repro.sim import RngHub
        h1 = RngHub(seed=7)
        h2 = RngHub(seed=7)
        a1 = [h1.stream("loss").random() for _ in range(5)]
        a2 = [h2.stream("loss").random() for _ in range(5)]
        assert a1 == a2
        b = [h1.stream("workload").random() for _ in range(5)]
        assert a1 != b

    def test_same_stream_returned(self):
        from repro.sim import RngHub
        h = RngHub()
        assert h.stream("x") is h.stream("x")
