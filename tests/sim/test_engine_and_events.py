"""Unit tests for the discrete-event kernel: events, timeouts, conditions, engine."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.events import AllOf, AnyOf, Event, SimulationError, Timeout
from repro.sim.process import Process, ProcessState, _Bounce


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


#: The fields every event has, whichever constructor built it.
EVENT_FIELDS = ("_name", "_triggered", "_processed", "_ok", "_value")


def fields_of(event, *extra):
    """Every field of *event* by name, read the way the kernel reads them."""
    return {name: getattr(event, name) for name in EVENT_FIELDS + extra}


class TestConstructorsBuildWholeEvents:
    """Each constructor, one frame or chained, leaves every field set.

    A table per class: every field, ``name`` and ``repr`` while pending, once
    triggered and once processed.
    """

    def test_event(self):
        sim = Simulator()
        event = Event(sim)
        assert event.sim is sim and event.callbacks == []
        assert fields_of(event) == {
            "_name": None, "_triggered": False, "_processed": False,
            "_ok": None, "_value": None,
        }
        assert (event.name, repr(event)) == ("Event", "<Event 'Event' pending>")
        event.succeed("v")
        assert fields_of(event) == {
            "_name": None, "_triggered": True, "_processed": False,
            "_ok": True, "_value": "v",
        }
        assert repr(event) == "<Event 'Event' triggered>"
        sim.run()
        assert fields_of(event) == {
            "_name": None, "_triggered": True, "_processed": True,
            "_ok": True, "_value": "v",
        }
        assert repr(event) == "<Event 'Event' processed>"
        named = sim.event(name="grant")
        assert (named._name, named.name) == ("grant", "grant")
        assert repr(named) == "<Event 'grant' pending>"

    def test_events_share_no_state(self):
        sim = Simulator()
        first, second = Event(sim), Event(sim)
        assert first.callbacks is not second.callbacks
        first.succeed(1)
        first.callbacks.append(print)
        assert fields_of(second)["_triggered"] is False and second.callbacks == []
        assert not Event(sim)._triggered  # nothing leaked to the class

    def test_timeout(self):
        sim = Simulator()
        timeout = sim.timeout(1.5, value="v")
        assert timeout.sim is sim and timeout.callbacks == []
        assert fields_of(timeout, "delay") == {
            "_name": None, "_triggered": False, "_processed": False,
            "_ok": None, "_value": "v", "delay": 1.5,
        }
        assert timeout.name == "Timeout(1.5)"
        assert repr(timeout) == "<Timeout 'Timeout(1.5)' pending>"
        assert sim._queue == [(1.5, 0, timeout)] and sim._sequence == 1
        sim.run()
        assert fields_of(timeout, "delay") == {
            "_name": None, "_triggered": True, "_processed": True,
            "_ok": True, "_value": "v", "delay": 1.5,
        }
        assert repr(timeout) == "<Timeout 'Timeout(1.5)' processed>"
        labelled = Timeout(sim, 2, None, "tick")
        assert (labelled._name, labelled.name, labelled._value) == ("tick", "tick", None)
        assert sim._queue == [(3.5, 1, labelled)]

    def test_bounce(self):
        sim = Simulator()
        gate, fired = sim.event(), sim.event()
        seen = []

        def body():
            seen.append((yield gate))

        process = sim.process(body(), name="rank-2")
        sim.step()  # the start event: the process parks on the gate
        fired.succeed("v")
        bounce = _Bounce(process, fired)
        assert bounce.sim is sim and bounce.callbacks == [process._resume]
        assert fields_of(bounce, "_process") == {
            "_name": None, "_triggered": True, "_processed": False,
            "_ok": True, "_value": "v", "_process": process,
        }
        assert sim._queue[-1] == (0.0, 2, bounce) and sim._sequence == 3
        assert bounce.name == "rank-2:bounce"
        assert repr(bounce) == "<_Bounce 'rank-2:bounce' triggered>"
        sim.run()
        assert fields_of(bounce, "_process") == {
            "_name": None, "_triggered": True, "_processed": True,
            "_ok": True, "_value": "v", "_process": process,
        }
        assert repr(bounce) == "<_Bounce 'rank-2:bounce' processed>"
        assert seen == ["v"]  # the bounce resumed the process with its outcome

    @pytest.mark.parametrize("condition_type", [AllOf, AnyOf])
    def test_conditions(self, condition_type):
        sim = Simulator()
        children = [sim.timeout(1.0, value="a"), sim.timeout(1.0, value="b")]
        condition = condition_type(sim, iter(children))
        label = f"{condition_type.__name__}(2)"
        assert condition.sim is sim and condition.callbacks == []
        assert fields_of(condition, "events", "_pending") == {
            "_name": None, "_triggered": False, "_processed": False,
            "_ok": None, "_value": None, "events": children, "_pending": 2,
        }
        assert condition.name == label
        assert repr(condition) == f"<{condition_type.__name__} {label!r} pending>"
        sim.run()
        values = dict(zip(children, "ab"))
        if condition_type is AnyOf:
            del values[children[1]]
        assert fields_of(condition, "events") == {
            "_name": None, "_triggered": True, "_processed": True,
            "_ok": True, "_value": values, "events": children,
        }
        assert repr(condition) == f"<{condition_type.__name__} {label!r} processed>"
        assert condition_type(sim, [], name="none")._name == "none"

    def test_process(self):
        sim = Simulator()

        def body():
            yield sim.timeout(1.0)
            return "done"

        generator = body()
        process = Process(sim, generator)
        assert process.sim is sim and process.callbacks == []
        assert fields_of(process, "_generator", "_state", "_waiting_on") == {
            "_name": "process", "_triggered": False, "_processed": False,
            "_ok": None, "_value": None, "_generator": generator,
            "_state": ProcessState.CREATED, "_waiting_on": None,
        }
        assert (process.name, repr(process)) == ("process", "<Process 'process' created>")
        start = sim._queue[0][2]
        assert (start.name, start._triggered, start.callbacks) == (
            "process:start", True, [process._resume],
        )
        sim.step()
        assert process._state is ProcessState.WAITING
        assert process._waiting_on is sim._queue[0][2]
        assert repr(process) == "<Process 'process' waiting>"
        sim.run()
        assert fields_of(process, "_state", "_waiting_on") == {
            "_name": "process", "_triggered": True, "_processed": True,
            "_ok": True, "_value": "done",
            "_state": ProcessState.FINISHED, "_waiting_on": None,
        }
        assert repr(process) == "<Process 'process' finished>"
        assert sim.process(body(), name="rank-3").name == "rank-3"

    def test_a_process_parks_on_a_pending_event_and_bounces_off_a_fired_one(self):
        sim = Simulator()
        pending, fired = sim.event(), sim.event()
        fired.succeed("early")
        seen = []

        def body():
            seen.append((yield pending))
            seen.append((yield fired))

        process = sim.process(body())
        sim.step()  # fired's own (empty) step
        sim.step()  # the start event: the process runs up to its first yield
        assert process._state is ProcessState.WAITING and process._waiting_on is pending
        assert pending.callbacks == [process._resume]
        pending.succeed("late")
        sim.step()  # pending fires: the process runs on and meets a fired event
        assert process._waiting_on is fired
        bounce = sim._queue[0][2]
        assert type(bounce) is _Bounce and bounce._triggered
        sim.run()
        assert seen == ["late", "early"] and process._state is ProcessState.FINISHED

    def test_a_process_that_yields_no_event_fails(self):
        sim = Simulator()

        def body():
            yield 3

        process = sim.process(body(), name="rank-0")
        with pytest.raises(SimulationError, match="processes must yield Event objects"):
            sim.run()
        assert not process.ok


class TestDelayGuard:
    """``Simulator.timeout`` admits a delay from outside: same errors as ever."""

    @pytest.mark.parametrize(
        "delay, error, text",
        [
            (-1, ValueError, "delay must be non-negative, got -1"),
            (-0.5, ValueError, "delay must be non-negative, got -0.5"),
            (True, TypeError, "delay must be a number, got bool"),
            ("1", TypeError, "delay must be int or float, got str: '1'"),
            (None, TypeError, "delay must be int or float, got NoneType: None"),
        ],
    )
    def test_bad_delays_raise_what_they_always_raised(self, delay, error, text):
        sim = Simulator()
        with pytest.raises(error) as caught:
            sim.timeout(delay)
        assert str(caught.value) == text
        assert sim._queue == [] and sim._sequence == 0

    def test_a_nan_delay_or_time_never_reaches_the_calendar(self):
        # Admitted, a NaN timeout fired before a 1.0 one and set ``now`` to NaN.
        sim = Simulator()
        nan = float("nan")
        for schedule in (sim.timeout, lambda d: sim.call_after(d, lambda: None)):
            with pytest.raises(ValueError, match="delay must be non-negative, got nan"):
                schedule(nan)
        with pytest.raises(SimulationError, match="cannot schedule callback at nan"):
            sim.call_at(nan, lambda: None)
        sim.timeout(1.0)
        assert sim.run() == 1.0 and sim.events_processed == 1

    def test_delays_that_are_not_exact_floats_are_still_admitted(self):
        sim = Simulator()
        for delay in (2, 0, 0.0, np.float64(1.5)):
            sim.timeout(delay)
        assert [time for time, _seq, _event in sorted(sim._queue)] == [0, 0.0, 1.5, 2]
