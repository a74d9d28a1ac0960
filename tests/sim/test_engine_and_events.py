"""Unit tests for the discrete-event kernel: events, timeouts, conditions, engine."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.events import AllOf, AnyOf, Event, SimulationError, Timeout


class TestEventLifecycle:
    def test_pending_event_rejects_value_access(self):
        sim = Simulator()
        event = sim.event()
        assert not event.triggered
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_succeed_sets_value_and_runs_callbacks(self):
        sim = Simulator()
        event = sim.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.succeed("payload")
        sim.run()
        assert seen == ["payload"]
        assert event.ok and event.processed

    def test_double_trigger_is_an_error(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("late"))

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")


class TestTimeouts:
    def test_timeout_fires_at_delay(self):
        sim = Simulator()
        fired_at = []
        timeout = sim.timeout(5.0, value="done")
        timeout.callbacks.append(lambda ev: fired_at.append((sim.now, ev.value)))
        sim.run()
        assert fired_at == [(5.0, "done")]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    @pytest.mark.parametrize("delay", ["x", None, True])
    def test_non_numeric_delay_rejected(self, delay):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.timeout(delay)
        assert sim.peek() == float("inf")  # nothing reached the calendar

    def test_default_names_are_built_when_asked_for(self):
        sim = Simulator()
        assert sim.timeout(1.0).name == "Timeout(1.0)"
        assert sim.timeout(2, name="tick").name == "tick"
        assert sim.event().name == "Event"
        assert sim.event(name="grant").name == "grant"
        pair = [sim.timeout(1.0), sim.timeout(2.0)]
        assert sim.all_of(pair).name == "AllOf(2)"
        assert sim.any_of(iter(pair)).name == "AnyOf(2)"
        assert sim.all_of(pair, name="both").name == "both"
        assert "Timeout(1.0)" in repr(pair[0])

    def test_timeouts_cannot_be_triggered_manually(self):
        sim = Simulator()
        timeout = sim.timeout(1.0)
        with pytest.raises(SimulationError):
            timeout.succeed()

    def test_timeouts_fire_in_time_order(self):
        sim = Simulator()
        order = []
        for delay in (3.0, 1.0, 2.0):
            sim.timeout(delay).callbacks.append(
                lambda ev, d=delay: order.append(d)
            )
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_equal_times_preserve_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.timeout(1.0).callbacks.append(lambda ev, l=label: order.append(l))
        sim.run()
        assert order == ["a", "b", "c"]


class TestConditions:
    def test_all_of_waits_for_every_child(self):
        sim = Simulator()
        children = [sim.timeout(1.0, value=1), sim.timeout(3.0, value=3)]
        condition = sim.all_of(children)
        done = []
        condition.callbacks.append(lambda ev: done.append(sim.now))
        sim.run()
        assert done == [3.0]
        assert set(condition.value.values()) == {1, 3}

    def test_any_of_fires_on_first_child(self):
        sim = Simulator()
        children = [sim.timeout(1.0, value="fast"), sim.timeout(3.0, value="slow")]
        condition = sim.any_of(children)
        done = []
        condition.callbacks.append(lambda ev: done.append((sim.now, list(ev.value.values()))))
        sim.run()
        assert done == [(1.0, ["fast"])]

    def test_empty_all_of_is_immediately_triggered(self):
        sim = Simulator()
        condition = sim.all_of([])
        assert condition.triggered
        assert condition.value == {}

    def test_all_of_fails_when_child_fails(self):
        sim = Simulator()
        good = sim.timeout(1.0)
        bad = sim.event()
        condition = sim.all_of([good, bad])
        bad.fail(RuntimeError("boom"))
        sim.run()
        assert condition.triggered and not condition.ok
        assert isinstance(condition.value, RuntimeError)


class TestEngine:
    def test_now_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_run_until_stops_the_clock(self):
        sim = Simulator()
        sim.timeout(100.0)
        stopped = sim.run(until=10.0)
        assert stopped == 10.0
        assert sim.now == 10.0

    def test_run_until_a_past_time_does_not_move_the_clock_backwards(self):
        sim = Simulator()
        sim.timeout(100.0)
        sim.run(until=6.0)
        stopped = sim.run(until=2.0)
        assert stopped == 6.0
        assert sim.now == 6.0
        # The pending event is still where it was, and time still advances.
        assert sim.peek() == 100.0
        assert sim.run(until=7.5) == 7.5

    def test_run_max_events_limits_processing(self):
        sim = Simulator()
        for _ in range(10):
            sim.timeout(1.0)
        sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_step_on_empty_queue_is_an_error(self):
        with pytest.raises(SimulationError):
            Simulator().step()

    def test_call_after_runs_callback_at_time(self):
        sim = Simulator()
        seen = []
        sim.call_after(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_call_at_rejects_past_times(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_peek_reports_next_event_time(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(4.0)
        assert sim.peek() == 4.0

    def test_deterministic_given_seed(self):
        def trace(seed):
            sim = Simulator(seed=seed)
            values = [sim.rng.uniform("latency", 0, 1) for _ in range(5)]
            return values

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)
