"""What one campaign schedule pays besides its own events, as exact counts.

A fuzz campaign runs hundreds of short schedules, so whatever a schedule
redoes although its inputs never change is paid hundreds of times
(``docs/explore.md``, "What a schedule costs").  This file pins four counts
of one pattern's first two schedules, exactly as
:meth:`~repro.explore.runner.Explorer.explore_fuzzed` runs them at seed 0 —
the uncontrolled baseline, then ``ScheduleFuzzer(seed=1)`` — driven under
``sys.setprofile``.  The counts repeat exactly for a seed, so the ceiling
carries no slack for noise: it is the finished change's own reading, and only
a deliberate addition to a schedule's fixed cost should ever move it.

Readings on ``unsynchronized-counter`` (62 events, 48 decisions in the
second schedule: 39 ``latency``, 9 ``tie``).  "Before" is the commit before
the row's ceiling was last set: (a) and (b) against a controller asked at
every step and streams derived per runtime; (c) against a knob hook run at
build, a copied ``DetectorConfig`` and a knob resolver that fell back to it
(538 before that, against a counter object per key of every counter family,
a snapshot sorted per run and a fabric whose world size was read through the
topology's property for every NIC built; 545 before that, against a sixth
knob and the RNR retry settings checked at construction); (d) against decisions built as
records at once, ties gathered off the heap whatever their size, and the
offline detectors keyed by ``GlobalAddress``:

============================================================  ========  ==========
count (the second schedule unless said)                          before    ceiling
============================================================  ========  ==========
(a) ``pick_next`` calls / steps whose successor is due at
    the same time                                               62 / 12   12 / 12
(b) stream seed sequences derived, first / second schedule        5 / 5     5 / 0
(c) Python calls ``run_schedule`` makes outside
    ``Simulator.run``                                                507       497
(d) Python calls into ``repro/explore/`` inside
    ``Simulator.run``                                                213       108
============================================================  ========  ==========

(c) reads 493 with ``REPRO_DETECTOR_EPOCHS`` unset, 494 with it ``on`` (one
more ``os.environ`` frame decodes the variable's value) and 497 with it
``off`` (CI's slow-path leg: ``with_epoch_mode`` also builds the detector's
config, by ``dataclasses.replace``, in the knob's mode); the ceiling is the
largest reading.  It was 506 / 507 while the runtime copied the caller's
``DetectorConfig`` and ran a knob hook at build, and 509 (510) while the
detector kept its own clock-traffic counters, a knob hook steered them and a
settings check guarded the option that switched them.  It counts what a schedule's fixed part
enters — building the runtime (a latency model asking its stream for the
live block list, ``RandomStreams.uniform_block``, is one call of it),
collecting its result, the offline detectors, the fingerprint — not its
events.  (d) is what the controller costs per
choice point: the strategy's ``choose`` (48), ``on_message_latency`` (39),
``pick_next`` (12) and the tie's ``_decide`` (9); it was 213 when every
decision built its record, every latency went through ``_decide`` and every
tie through ``_delivery_channel``.  To re-read the counts: ``PYTHONPATH=src
python -m tests.explore.test_schedule_budget``.
"""

import gc
import os
import sys

import repro.explore
from repro.explore.controller import PassthroughStrategy, ScheduleController
from repro.explore.fuzzer import ScheduleFuzzer
from repro.explore.runner import run_schedule
from repro.sim import rng
from repro.sim.engine import Simulator
from repro.workloads.racy_patterns import pattern_corpus

PATTERN = "unsynchronized-counter"

#: The finished change's readings of (c) and (d) (see the table above).
CALLS_OUTSIDE_THE_RUN_CEILING = 497
EXPLORE_CALLS_IN_THE_RUN_CEILING = 108


class _ScheduleCounter:
    """Counts what the table above names while one schedule runs."""

    def __init__(self) -> None:
        self.steps = 0
        self.tied_steps = 0
        self.pick_next_calls = 0
        self.derivations = 0
        self.calls_outside_the_run = 0
        #: Calls into ``repro/explore/`` inside ``Simulator.run``: (d).
        self.explore_calls_in_the_run = 0
        self._explore_dir = os.path.dirname(repro.explore.__file__) + os.sep
        self._run_code = Simulator.run.__code__
        self._step_code = Simulator.step.__code__
        self._pick_next_code = ScheduleController.pick_next.__code__
        self._derive_code = rng._derive.__code__
        #: Depth of Python frames below the running ``Simulator.run`` (0 =
        #: outside it).  ``run`` is not re-entrant, so one integer does.
        self._depth = 0

    def __call__(self, frame, event, _arg) -> None:
        if event == "call":
            code = frame.f_code
            if code is self._derive_code:
                self.derivations += 1
            if self._depth:
                self._depth += 1
                if code.co_filename.startswith(self._explore_dir):
                    self.explore_calls_in_the_run += 1
                if code is self._step_code:
                    self.steps += 1
                    # Before ``step`` pops the earliest entry: is another one
                    # due at the same time?  In a heap, one of the root's
                    # children is, if any entry is.
                    queue = frame.f_locals["self"]._queue
                    self.tied_steps += any(
                        entry[0] == queue[0][0] for entry in queue[1:3]
                    )
                elif code is self._pick_next_code:
                    self.pick_next_calls += 1
            elif code is self._run_code:
                self._depth = 1
            else:
                self.calls_outside_the_run += 1
        elif event == "return" and self._depth:
            self._depth -= 1


def _count(pattern, strategy):
    counter = _ScheduleCounter()
    # No collector pass inside: it could run a finalizer left by another test.
    gc.collect()
    gc.disable()
    sys.setprofile(counter)
    try:
        outcome = run_schedule(pattern.build, 0, strategy)
    finally:
        sys.setprofile(None)
        gc.enable()
    return counter, outcome


def _readings():
    """The pattern's first two schedules, the stream memo emptied first."""
    (pattern,) = [p for p in pattern_corpus() if p.name == PATTERN]
    rng._derive_once.cache_clear()
    first = _count(pattern, PassthroughStrategy())
    second = _count(pattern, ScheduleFuzzer(seed=1))
    return first, second


class TestScheduleBudget:
    @classmethod
    def setup_class(cls):
        (cls.first, _), (cls.counter, cls.outcome) = _readings()

    def test_the_schedule_is_the_one_the_readings_were_taken_on(self):
        assert self.counter.steps == self.outcome.events_processed == 62
        assert len(self.outcome.decisions) == 48

    def test_the_controller_is_asked_only_at_a_tie(self):
        assert self.counter.pick_next_calls == self.counter.tied_steps > 0

    def test_a_patterns_second_schedule_derives_no_stream(self):
        assert self.first.derivations == 5  # net.latency + one per rank
        assert self.counter.derivations == 0

    def test_few_calls_outside_the_run(self):
        assert self.counter.calls_outside_the_run <= CALLS_OUTSIDE_THE_RUN_CEILING

    def test_few_calls_into_the_controller_inside_the_run(self):
        assert self.counter.explore_calls_in_the_run <= EXPLORE_CALLS_IN_THE_RUN_CEILING


if __name__ == "__main__":  # print the readings
    for label, (counter, outcome) in zip(("first", "second"), _readings()):
        print(
            label,
            {name: value for name, value in vars(counter).items() if not name.startswith("_")},
            "events", outcome.events_processed,
            "decisions", len(outcome.decisions),
        )
