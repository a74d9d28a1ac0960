"""The event calendar as a state machine.

The model is the calendar the engine documents: pending entries ordered by
``(time, insertion index)``.  Every entry the machine schedules carries an
observer, so the order the engine actually ran things in is compared with the
model's after every rule — time never decreases, ties run in insertion order,
``events_processed`` counts every entry — together with the naming and
error behaviour the kernel promises (default names, ``Timeout.succeed``
raising, a failed process surfacing through ``run()``).
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.sim import SimulationError, Simulator

#: Few distinct delays, so same-time ties are the common case.
delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])


class Boom(Exception):
    pass


class CalendarMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        # -- the model --
        self.now = 0.0
        self.calendar = []      # pending (time, insertion index)
        self.entries = {}       # insertion index -> (label, what firing it schedules)
        self.expected = []      # (time, label) in the order the model fires them
        self.inserted = {}      # label -> insertion index
        self.failures = 0       # processes that died with an error
        # -- what the engine did --
        self.fired = []         # (time, label) in the order the engine ran them
        self.untriggered = []
        self.labels = 0

    # -- helpers -----------------------------------------------------------------

    def label(self):
        """A fresh name for one calendar entry, known before it is scheduled."""
        self.labels += 1
        return self.labels

    def observe(self, event, label):
        """Have the engine report when it runs *event*'s callbacks."""
        event.callbacks.append(lambda _ev: self.fired.append((self.sim.now, label)))
        return label

    def push(self, time, label, effect=None):
        """The model's heap push: entries leave in (time, insertion index) order."""
        index = self.inserted[label] = len(self.inserted)
        self.calendar.append((time, index))
        self.entries[index] = (label, effect)

    def pop(self):
        time, index = entry = min(self.calendar)
        self.calendar.remove(entry)
        self.now = time
        label, effect = self.entries.pop(index)
        self.expected.append((time, label))
        if effect is not None:
            effect()

    # -- scheduling rules -----------------------------------------------------------

    @rule(delay=delays, named=st.booleans())
    def schedule_timeout(self, delay, named):
        timeout = self.sim.timeout(delay, name="tick" if named else None)
        assert timeout.name == ("tick" if named else f"Timeout({delay})")
        assert timeout.delay == delay and not timeout.triggered
        with pytest.raises(SimulationError):
            timeout.succeed()
        with pytest.raises(SimulationError):
            timeout.fail(Boom())
        self.push(self.now + delay, self.observe(timeout, self.label()))

    @rule()
    def create_event(self):
        event = self.sim.event()
        assert event.name == "Event" and not event.triggered
        self.untriggered.append(event)

    @precondition(lambda self: self.untriggered)
    @rule(data=st.data(), fail=st.booleans())
    def trigger_event(self, data, fail):
        event = self.untriggered.pop(
            data.draw(st.integers(0, len(self.untriggered) - 1))
        )
        self.push(self.now, self.observe(event, self.label()))
        if fail:
            event.fail(Boom())
            assert not event.ok
        else:
            event.succeed("v")
            assert event.ok and event.value == "v"
        with pytest.raises(SimulationError):
            event.succeed()

    @rule(first=delays, second=delays)
    def schedule_all_of(self, first, second):
        children = [self.sim.timeout(first), self.sim.timeout(second)]
        condition = self.sim.all_of(children)
        assert condition.name == "AllOf(2)"
        fires = self.observe(condition, self.label())
        remaining = [2]

        def child_fired():
            remaining[0] -= 1
            if remaining[0] == 0:
                self.push(self.now, fires)

        for child, delay in zip(children, (first, second)):
            self.push(self.now + delay, self.observe(child, self.label()), child_fired)

    @rule(delay=delays, fails=st.booleans())
    def spawn_process(self, delay, fails):
        """A process that waits once, then returns or raises."""
        start, wait, end = self.label(), self.label(), self.label()

        def body():
            self.fired.append((self.sim.now, start))
            yield self.sim.timeout(delay)
            self.fired.append((self.sim.now, wait))
            if fails:
                raise Boom()
            return "done"

        def started():
            self.push(self.now + delay, wait, waited)

        def waited():
            self.failures += fails
            self.push(self.now, end)

        process = self.sim.process(body(), name="worker")
        assert process.name == "worker" and process.is_alive
        self.observe(process, end)
        self.push(self.now, start, started)

    @rule(fails=st.booleans())
    def spawn_bouncing_process(self, fails):
        """A process that yields an event which has already fired.

        It resumes through a bounce — one more calendar entry, at the time
        it yielded — with that event's value or exception.
        """
        fired = self.sim.event()
        outcome = Boom() if fails else "v"
        start, bounce, end = self.label(), self.label(), self.label()

        def body():
            self.fired.append((self.sim.now, start))
            try:
                value = yield fired
            except Boom as exc:
                value = exc
            self.fired.append((self.sim.now, bounce))
            assert value is outcome
            return "done"

        self.push(self.now, self.observe(fired, self.label()))
        if fails:
            fired.fail(outcome)
        else:
            fired.succeed(outcome)
        process = self.sim.process(body(), name="bouncer")
        self.observe(process, end)
        self.push(
            self.now, start,
            lambda: self.push(self.now, bounce, lambda: self.push(self.now, end)),
        )

    # -- execution rules --------------------------------------------------------------

    @precondition(lambda self: self.calendar)
    @rule()
    def step(self):
        self.sim.step()
        self.pop()

    @precondition(lambda self: not self.calendar)
    @rule()
    def step_on_an_empty_calendar(self):
        with pytest.raises(SimulationError):
            self.sim.step()

    @rule(offset=st.one_of(delays, delays.map(lambda delay: -delay)))
    def run_until(self, offset):
        """*until* on either side of ``now``: a past one runs and moves nothing."""
        until = self.now + offset
        stopped = self.sim.run(until=until, raise_process_errors=False)
        while self.calendar:
            if min(self.calendar)[0] > until:
                self.now = max(self.now, until)
                break
            self.pop()
        assert stopped == self.now

    @rule(budget=st.integers(0, 6))
    def run_max_events(self, budget):
        self.sim.run(max_events=budget, raise_process_errors=False)
        for _ in range(budget):
            if not self.calendar:
                break
            self.pop()

    @rule()
    def run_to_completion(self):
        self.sim.run(raise_process_errors=False)
        while self.calendar:
            self.pop()
        assert self.sim.peek() == float("inf")

    # -- invariants ---------------------------------------------------------------------

    @invariant()
    def engine_ran_what_the_model_ran(self):
        assert self.fired == self.expected
        assert self.sim.now == self.now
        assert self.sim.events_processed == len(self.expected)

    @invariant()
    def time_never_decreases_and_ties_keep_insertion_order(self):
        order = [(time, self.inserted[label]) for time, label in self.fired]
        assert order == sorted(order)

    @invariant()
    def next_event_time_matches(self):
        expected = min(self.calendar)[0] if self.calendar else float("inf")
        assert self.sim.peek() == expected

    @invariant()
    def a_failed_process_surfaces_through_run(self):
        assert len(self.sim.failures) == self.failures
        if self.failures:
            with pytest.raises(SimulationError, match="worker"):
                self.sim.run(max_events=0)
        else:
            assert self.sim.run(max_events=0) == self.now


TestCalendarStateMachine = CalendarMachine.TestCase
# The example count is the active profile's: Hypothesis' default (100) in
# tier-1, 500 under ``--hypothesis-profile=nightly`` (``tests/conftest.py``).
TestCalendarStateMachine.settings = settings(stateful_step_count=40, deadline=None)
