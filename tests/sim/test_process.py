"""Unit tests for generator-based simulated processes."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.events import Interrupt, SimulationError
from repro.sim.process import Process, ProcessState


class TestProcessExecution:
    def test_process_advances_through_timeouts(self):
        sim = Simulator()
        milestones = []

        def program():
            milestones.append(("start", sim.now))
            yield sim.timeout(2.0)
            milestones.append(("middle", sim.now))
            yield sim.timeout(3.0)
            milestones.append(("end", sim.now))
            return "finished"

        proc = sim.process(program())
        sim.run()
        assert milestones == [("start", 0.0), ("middle", 2.0), ("end", 5.0)]
        assert proc.state is ProcessState.FINISHED
        assert proc.value == "finished"

    def test_process_receives_event_values(self):
        sim = Simulator()
        received = []

        def program():
            value = yield sim.timeout(1.0, value="hello")
            received.append(value)

        sim.process(program())
        sim.run()
        assert received == ["hello"]

    def test_yield_from_composes_generators(self):
        sim = Simulator()
        log = []

        def inner():
            yield sim.timeout(1.0)
            return 21

        def outer():
            value = yield from inner()
            log.append(value * 2)

        sim.process(outer())
        sim.run()
        assert log == [42]

    def test_process_is_waitable_event(self):
        sim = Simulator()
        order = []

        def worker():
            yield sim.timeout(4.0)
            order.append("worker done")
            return "result"

        def waiter(worker_proc):
            value = yield worker_proc
            order.append(f"waiter saw {value}")

        worker_proc = sim.process(worker())
        sim.process(waiter(worker_proc))
        sim.run()
        assert order == ["worker done", "waiter saw result"]

    def test_an_already_fired_event_resumes_on_a_later_step_of_the_same_instant(self):
        sim = Simulator()
        fired = sim.event()
        fired.succeed("early")
        seen = []

        def program():
            yield sim.timeout(1.0)
            seen.append((yield fired))
            seen.append(sim.now)

        sim.process(program(), name="rank-2")
        sim.run(max_events=3)  # `fired` itself, the start hop, the timeout
        assert seen == []
        # What waits on the calendar is the hop back into the process,
        # labelled when somebody looks at it.
        (_, _, bounce), = sim._queue
        assert bounce.name == "rank-2:bounce" and "rank-2:bounce" in repr(bounce)
        sim.run()
        assert seen == ["early", 1.0]

    def test_an_already_fired_event_hands_its_value_through_the_bounce(self):
        sim = Simulator()
        fired = sim.event()
        fired.succeed({"payload": 7})
        seen = []

        def program():
            seen.append((yield fired))
            seen.append((yield fired))  # and again, once it is processed too

        proc = sim.process(program())
        sim.run()
        assert seen == [fired.value, fired.value] and seen[0] is fired.value
        assert proc.state is ProcessState.FINISHED

    def test_an_already_failed_event_throws_its_exception_through_the_bounce(self):
        sim = Simulator()
        failed = sim.event()
        error = RuntimeError("failed before anyone waited")
        failed.fail(error)
        caught = []

        def program():
            try:
                yield failed
            except RuntimeError as exc:
                caught.append(exc)
            yield failed  # uncaught this time: the process fails with it

        proc = sim.process(program(), name="rank-1")
        with pytest.raises(SimulationError, match="rank-1") as info:
            sim.run()
        assert caught == [error] and info.value.__cause__ is error
        assert proc.state is ProcessState.FAILED and proc.value is error

    def test_two_processes_interleave_by_time(self):
        sim = Simulator()
        order = []

        def make(name, delay):
            def program():
                for step in range(3):
                    yield sim.timeout(delay)
                    order.append((name, sim.now))
            return program

        sim.process(make("fast", 1.0)())
        sim.process(make("slow", 2.5)())
        sim.run()
        assert order == [
            ("fast", 1.0), ("fast", 2.0), ("slow", 2.5),
            ("fast", 3.0), ("slow", 5.0), ("slow", 7.5),
        ]


class TestProcessErrors:
    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            Process(sim, lambda: None)  # type: ignore[arg-type]

    def test_yielding_non_event_fails_process(self):
        sim = Simulator()

        def program():
            yield "not an event"

        proc = sim.process(program())
        with pytest.raises(SimulationError):
            sim.run()
        assert proc.state is ProcessState.FAILED

    def test_exception_in_process_surfaces_from_run(self):
        sim = Simulator()

        def program():
            yield sim.timeout(1.0)
            raise ValueError("application bug")

        sim.process(program(), name="buggy")
        with pytest.raises(SimulationError, match="buggy"):
            sim.run()
        assert len(sim.failures) == 1

    def test_run_can_suppress_process_errors(self):
        sim = Simulator()

        def program():
            yield sim.timeout(1.0)
            raise ValueError("bug")

        sim.process(program())
        sim.run(raise_process_errors=False)
        assert len(sim.failures) == 1

    def test_failed_event_propagates_into_generator(self):
        sim = Simulator()
        caught = []

        def program():
            bad = sim.event()
            sim.call_after(1.0, lambda: bad.fail(RuntimeError("remote failure")))
            try:
                yield bad
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(program())
        sim.run()
        assert caught == ["remote failure"]


class TestInterrupt:
    def test_interrupt_wakes_waiting_process(self):
        sim = Simulator()
        outcome = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
                outcome.append("slept fully")
            except Interrupt as interrupt:
                outcome.append(("interrupted", interrupt.cause, sim.now))

        proc = sim.process(sleeper())
        sim.call_after(3.0, lambda: proc.interrupt("wake up"))
        sim.run()
        assert outcome == [("interrupted", "wake up", 3.0)]

    def test_an_interrupt_detaches_the_pending_event(self):
        sim = Simulator()
        seen = []

        def sleeper():
            try:
                yield sim.timeout(5.0, value="first")
            except Interrupt as interrupt:
                seen.append(("interrupted", interrupt.cause, sim.now))
            seen.append(((yield sim.timeout(10.0, value="second")), sim.now))

        proc = sim.process(sleeper())
        sim.call_at(1.0, lambda: proc.interrupt("now"))
        sim.run()
        # The first timeout still fires at 5.0, but wakes nobody.
        assert seen == [("interrupted", "now", 1.0), ("second", 11.0)]
        assert proc.state is ProcessState.FINISHED

    def test_an_interrupt_detaches_the_pending_bounce(self):
        sim = Simulator()
        fired = sim.event()
        fired.succeed("stale")
        seen = []

        def sleeper():
            yield sim.timeout(1.0)
            # Yielded at the instant of the interrupt, after its wake-up was
            # queued: the process parks on a bounce the wake-up overtakes.
            try:
                seen.append((yield fired))
            except Interrupt as interrupt:
                seen.append(("interrupted", interrupt.cause, sim.now))
            seen.append(((yield sim.timeout(10.0, value="second")), sim.now))

        proc = sim.process(sleeper())
        sim.call_at(1.0, lambda: proc.interrupt("now"))
        sim.run()
        assert seen == [("interrupted", "now", 1.0), ("second", 11.0)]
        assert proc.state is ProcessState.FINISHED

    def test_interrupting_finished_process_is_error(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1.0)

        proc = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_all_finished_reports_status(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1.0)

        sim.process(quick())
        assert not sim.all_finished()
        sim.run()
        assert sim.all_finished()
