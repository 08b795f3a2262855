"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Event, SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_call_later_runs_in_time_order(self, sim):
        order = []
        sim.call_later(5, order.append, "b")
        sim.call_later(1, order.append, "a")
        sim.call_later(9, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 9

    def test_ties_broken_in_submission_order(self, sim):
        order = []
        for tag in range(10):
            sim.call_later(3.0, order.append, tag)
        sim.run()
        assert order == list(range(10))

    def test_cancelled_callback_does_not_run(self, sim):
        hits = []
        handle = sim.call_later(2, hits.append, 1)
        handle.cancel()
        sim.run()
        assert hits == []

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_later(-1, lambda: None)

    def test_run_until_stops_clock_exactly(self, sim):
        sim.call_later(100, lambda: None)
        sim.run(until=40)
        assert sim.now == 40

    def test_run_until_with_empty_heap_advances_clock(self, sim):
        sim.run(until=77)
        assert sim.now == 77

    def test_nested_scheduling(self, sim):
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.call_later(3, inner)

        def inner():
            seen.append(("inner", sim.now))

        sim.call_later(2, outer)
        sim.run()
        assert seen == [("outer", 2), ("inner", 5)]

    def test_max_events_budget(self, sim):
        def respawn():
            sim.call_later(1, respawn)

        sim.call_later(1, respawn)
        with pytest.raises(SimulationError):
            sim.run(max_events=50)

    def test_next_live_time_skips_cancelled_handles(self, sim):
        assert sim.next_live_time() == float("inf")
        dead = sim.call_later(2, lambda: None)
        sim.call_later(4, lambda: None)
        dead.cancel()
        assert sim.next_live_time() == 4


class TestEvents:
    def test_succeed_value_delivered(self, sim):
        ev = Event(sim)
        got = []
        ev.callbacks.append(lambda e: got.append(e.value))
        ev.succeed(42)
        sim.run()
        assert got == [42]

    def test_double_trigger_rejected(self, sim):
        ev = Event(sim)
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = Event(sim)
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_unhandled_failure_crashes_run(self, sim):
        ev = Event(sim)
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError):
            sim.run()

    def test_defused_failure_does_not_crash(self, sim):
        ev = Event(sim)
        ev.fail(ValueError("boom"))
        ev.defuse()
        sim.run()

    def test_timeout_value(self, sim):
        results = []

        def proc():
            v = yield sim.timeout(5, value="hello")
            results.append((sim.now, v))

        sim.process(proc())
        sim.run()
        assert results == [(5, "hello")]


class TestProcesses:
    def test_sequential_timeouts(self, sim):
        log = []

        def proc():
            yield sim.timeout(10)
            log.append(sim.now)
            yield sim.timeout(5)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [10, 15]

    def test_process_return_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        assert sim.run_process(proc()) == "done"

    def test_process_waits_on_event(self, sim):
        ev = Event(sim)
        log = []

        def waiter():
            val = yield ev
            log.append((sim.now, val))

        sim.process(waiter())
        sim.call_later(30, ev.succeed, "sig")
        sim.run()
        assert log == [(30, "sig")]

    def test_two_processes_interleave(self, sim):
        log = []

        def ticker(tag, period):
            for _ in range(3):
                yield sim.timeout(period)
                log.append((tag, sim.now))

        sim.process(ticker("a", 2))
        sim.process(ticker("b", 3))
        sim.run()
        # At t=6 both fire; b's timeout was scheduled earlier (at t=3) so it
        # wins the tie-break.
        assert log == [("a", 2), ("b", 3), ("a", 4), ("b", 6), ("a", 6), ("b", 9)]

    def test_process_exception_propagates(self, sim):
        def bad():
            yield sim.timeout(1)
            raise RuntimeError("kaput")

        sim.process(bad())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_failed_event_raises_inside_process(self, sim):
        ev = Event(sim)
        caught = []

        def proc():
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(proc())
        sim.call_later(2, lambda: ev.fail(ValueError("inner")))
        sim.run()
        assert caught == ["inner"]

    def test_wait_on_already_processed_event(self, sim):
        ev = Event(sim)
        ev.succeed("early")
        log = []

        def proc():
            yield sim.timeout(10)
            v = yield ev  # processed long ago
            log.append((sim.now, v))

        sim.process(proc())
        sim.run()
        assert log == [(10, "early")]

    def test_yielding_non_event_raises_in_process(self, sim):
        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_process_is_event(self, sim):
        def child():
            yield sim.timeout(7)
            return "child-val"

        log = []

        def parent():
            v = yield sim.process(child())
            log.append((sim.now, v))

        sim.process(parent())
        sim.run()
        assert log == [(7, "child-val")]

    def test_run_process_helper_raises_process_error(self, sim):
        def bad():
            yield sim.timeout(1)
            raise KeyError("x")

        with pytest.raises(KeyError):
            sim.run_process(bad())


class TestConditions:
    def test_any_of(self, sim):
        log = []

        def proc():
            t1 = sim.timeout(5, value="fast")
            t2 = sim.timeout(50, value="slow")
            done = yield sim.any_of([t1, t2])
            log.append((sim.now, list(done.values())))

        sim.process(proc())
        sim.run()
        assert log[0][0] == 5
        assert log[0][1] == ["fast"]


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def build_and_run():
            s = Simulator()
            log = []

            def proc(tag):
                for i in range(5):
                    yield s.timeout(1.5 * (tag + 1))
                    log.append((tag, s.now, i))

            for t in range(4):
                s.process(proc(t))
            s.run()
            return log

        assert build_and_run() == build_and_run()


class TestConditionFailures:
    def test_any_of_propagates_first_failure(self, sim):
        bad = Event(sim)
        slow = sim.timeout(50)
        caught = []

        def proc():
            try:
                yield sim.any_of([slow, bad])
            except ValueError:
                caught.append(sim.now)

        sim.process(proc())
        sim.call_later(5, lambda: bad.fail(ValueError("x")))
        sim.run()
        assert caught == [5]

    def test_any_of_with_pre_processed_child(self, sim):
        early = Event(sim)
        early.succeed("pre")

        def proc():
            yield sim.timeout(3)
            done = yield sim.any_of([early, sim.timeout(100)])
            return list(done.values())

        assert sim.run_process(proc(), until=50) == ["pre"]


class TestRunProcessEdges:
    def test_run_process_unfinished_raises(self, sim):
        def forever():
            while True:
                yield sim.timeout(10)

        with pytest.raises(SimulationError):
            sim.run_process(forever(), until=35)

    def test_cross_simulator_event_rejected(self, sim):
        other = Simulator()
        foreign = Event(other)

        def proc():
            yield foreign

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_deep_process_chain(self, sim):
        def leaf(n):
            yield sim.timeout(1)
            return n * 2

        def mid(n):
            v = yield sim.process(leaf(n))
            return v + 1

        def top():
            total = 0
            for i in range(5):
                total += yield sim.process(mid(i))
            return total

        # sum of (2i + 1) for i in 0..4 = 25
        assert sim.run_process(top()) == 25


class TestCallAsOf:
    def test_schedules_from_the_past_instant_exactly(self, sim):
        # 0.1 + 0.7 is not (0.1 + 0.2) + 0.5 in floating point: replaying
        # the timeout as of 0.3 lands on the float the original would have.
        fired = []
        sim.run(until=0.1 + 0.2 + 0.4)
        ev = sim.call_as_of(0.1 + 0.2, sim.timeout, 0.5)
        ev.callbacks.append(lambda _ev: fired.append(sim.now))
        assert sim.now == 0.1 + 0.2 + 0.4        # clock restored
        sim.run()
        assert fired == [(0.1 + 0.2) + 0.5]

    def test_future_instant_is_refused_and_errors_restore_the_clock(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.call_as_of(6.0, sim.timeout, 1.0)

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            sim.call_as_of(2.0, boom)
        assert sim.now == 5.0

    def test_run_until_settles_parked_waiters(self, sim):
        class Waiter:
            settled_at = None

            def settle(self):
                del sim.parked[self]
                self.settled_at = sim.now
                sim.call_later(0.0, fired.append, sim.now)

        fired = []
        waiter = Waiter()
        sim.parked[waiter] = None
        sim.run()                       # no horizon: nothing to settle for
        assert waiter.settled_at is None
        sim.run(until=7.0)
        assert waiter.settled_at == 7.0 and fired == [7.0] and not sim.parked
