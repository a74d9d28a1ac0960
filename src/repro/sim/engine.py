"""The discrete-event simulation engine.

:class:`Simulator` owns the event calendar (a binary heap keyed on
``(time, sequence)``) and the simulated clock.  Components schedule
:class:`~repro.sim.events.Event` objects; the engine pops them in time order
and runs their callbacks.  Ties are broken by insertion order so that a run is
a pure function of the seed and the program — a property the tests rely on.

A :dfn:`schedule controller` (see :mod:`repro.explore.controller`) may be
installed with :meth:`Simulator.install_controller` *before* the run starts.
The controller then owns the engine's one scheduling choice point — which of
several events ready at the same simulated time runs first — and, through the
network layer's latency hook, every message-delivery timing choice.  With no
controller installed the engine behaves exactly as before (insertion-order
ties), so ordinary runs pay a single attribute check per step.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from repro.obs.observability import Observability
from repro.sim.events import AllOf, AnyOf, Event, SimulationError, Timeout
from repro.sim.process import _ENDED, Process
from repro.sim.rng import RandomStreams
from repro.util.logging import SimLogger
from repro.util.validation import require_non_negative


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for all random streams used by attached components (latency
        models, workload generators).  Two simulators with the same seed and
        the same program produce byte-identical traces.
    logger:
        Optional :class:`~repro.util.logging.SimLogger`; a fresh one is
        created when omitted.
    """

    def __init__(self, seed: Optional[int] = 0, logger: Optional[SimLogger] = None) -> None:
        self._now: float = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        self._processes: List[Process] = []
        self._failures: List[Tuple[Process, BaseException]] = []
        self._events_processed = 0
        #: Optional schedule controller owning nondeterministic choice points
        #: (see :meth:`install_controller`); ``None`` means default behaviour.
        self.controller = None
        #: ``(process name, awaited event name)`` for every process alive
        #: when :meth:`run` last returned.
        self.blocked: Tuple[Tuple[str, Optional[str]], ...] = ()
        self.rng = RandomStreams(seed)
        # Note: an empty SimLogger is falsy (len == 0), so test for None explicitly.
        self.logger = logger if logger is not None else SimLogger()
        # The logger may outlive the simulator (a caller can pass its own)
        # and must not keep it alive through its clock — nor may the clock
        # close a simulator -> logger -> simulator cycle.
        this = weakref.ref(self)
        self.logger.bind_clock(lambda: getattr(this(), "_now", 0.0))
        #: The observability bundle (metrics registry, span tracer, detection
        #: profiler) every attached component records into.  Always present;
        #: metrics collection is unconditional, span tracing is opt-in.
        self.obs = Observability()

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events whose callbacks have been executed so far."""
        return self._events_processed

    # -- event construction --------------------------------------------------

    def event(self, name: Optional[str] = None) -> Event:
        """Create a pending event owned by this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: Optional[str] = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        # The public entry admits *delay* from outside, so it checks it —
        # inline for the exact-float common case, in full for the rest.
        if not (type(delay) is float and delay >= 0.0):
            require_non_negative(delay, "delay")
        return Timeout(self, delay, value, name)

    def all_of(self, events: Sequence[Event], name: Optional[str] = None) -> AllOf:
        """Create an event that fires when all of *events* have fired."""
        return AllOf(self, events, name=name)

    def any_of(self, events: Sequence[Event], name: Optional[str] = None) -> AnyOf:
        """Create an event that fires when any of *events* has fired."""
        return AnyOf(self, events, name=name)

    def process(self, generator: Generator[Event, Any, Any], name: Optional[str] = None) -> Process:
        """Register *generator* as a simulated process and start it at ``now``."""
        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    def call_at(self, time: float, callback: Callable[[], None], name: Optional[str] = None) -> Event:
        """Run *callback* (a plain callable) at absolute simulated *time*."""
        if not time >= self._now:  # also refuses a NaN time
            raise SimulationError(
                f"cannot schedule callback at {time}: now={self._now}"
            )
        event = Event(self, name=name or "call_at")
        event.callbacks.append(lambda _ev: callback())
        self._push(time, event)
        event._triggered = True
        event._ok = True
        return event

    def call_after(self, delay: float, callback: Callable[[], None], name: Optional[str] = None) -> Event:
        """Run *callback* after *delay* time units."""
        require_non_negative(delay, "delay")
        return self.call_at(self._now + delay, callback, name=name)

    # -- schedule control ------------------------------------------------------

    def install_controller(self, controller: Any) -> None:
        """Install a schedule controller owning this run's choice points.

        The *controller* must provide the whole protocol of
        :class:`~repro.explore.controller.ScheduleController`:
        ``pick_next(first, queue)`` and its four ``on_*`` entry points.
        :meth:`step` pops the earliest ``(time, sequence, event)`` entry
        itself and calls ``pick_next`` only at a tie — when the live heap's
        next entry is due at the same time — with the popped entry as
        *first*; it must return one entry of the tie and leave every other
        one on the heap.  ``net``, ``verbs`` and ``runtime`` call the
        ``on_*`` entry points whenever a controller is installed, without
        probing for the method first.  At most one controller per simulator,
        installed before any event is processed — a schedule is only
        replayable when every choice point was controlled from the start.
        """
        if self.controller is not None:
            raise SimulationError("a schedule controller is already installed")
        if self._events_processed:
            raise SimulationError(
                "install_controller() must be called before the run starts "
                f"({self._events_processed} events already processed)"
            )
        self.controller = controller

    # -- scheduling internals ------------------------------------------------

    def _push(self, time: float, event: Event) -> None:
        heapq.heappush(self._queue, (time, self._sequence, event))
        self._sequence += 1

    def _record_process_failure(self, process: Process, exc: BaseException) -> None:
        self._failures.append((process, exc))

    # -- execution -----------------------------------------------------------

    def peek(self) -> float:
        """Return the time of the next scheduled event, or ``inf`` if idle."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process exactly one event from the calendar."""
        queue = self._queue
        if not queue:
            raise SimulationError("step() called on an empty event queue")
        time, seq, event = heapq.heappop(queue)
        if self.controller is not None and queue and queue[0][0] == time:
            # A tie: the one choice point the engine owns.
            time, seq, event = self.controller.pick_next((time, seq, event), queue)
        if time < self._now:
            raise SimulationError(
                f"event calendar corrupted: popped t={time} < now={self._now}"
            )
        self._now = time
        if not event._triggered:
            # Only a Timeout sits on the calendar untriggered: its delay elapsed.
            event._triggered = event._ok = True
        callbacks, event.callbacks = event.callbacks, []
        event._processed = True
        for callback in callbacks:
            callback(event)
        self._events_processed += 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        raise_process_errors: bool = True,
    ) -> float:
        """Run until the calendar is empty, *until* is reached, or *max_events*.

        Returns the simulated time at which the run stopped; an *until*
        earlier than ``now`` processes nothing and leaves the clock where it
        is (simulated time never moves backwards).  If any process
        raised an unhandled exception and *raise_process_errors* is true, the
        first such exception is re-raised after the loop stops (so an error in
        rank 3's program fails the test that launched it).
        """
        processed = 0
        queue, step = self._queue, self.step
        while queue:
            if until is not None and queue[0][0] > until:
                if until > self._now:  # an *until* already in the past moves nothing
                    self._now = until
                break
            if max_events is not None and processed >= max_events:
                break
            step()
            processed += 1
        # Every process still alive, with the event it waits on (after a
        # drained calendar nothing can wake it).  Read from the fields behind
        # ``is_alive`` / ``waiting_on`` in this frame, so the report costs no
        # frame (tests/sim/test_frame_budget.py counts them).
        blocked = []
        for process in self._processes:
            if process._state not in _ENDED:
                blocked.append((process.name, getattr(process._waiting_on, "name", None)))
        self.blocked = tuple(blocked)
        if raise_process_errors and self._failures:
            process, exc = self._failures[0]
            raise SimulationError(
                f"process {process.name!r} failed at t={self._now}: {exc!r}"
            ) from exc
        return self._now

    # -- inspection ----------------------------------------------------------

    @property
    def processes(self) -> List[Process]:
        """All processes ever registered with :meth:`process`."""
        return list(self._processes)

    @property
    def failures(self) -> List[Tuple[Process, BaseException]]:
        """(process, exception) pairs for processes that died with an error."""
        return list(self._failures)

    def all_finished(self) -> bool:
        """True when every registered process has run to completion."""
        return all(not p.is_alive for p in self._processes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now} queued={len(self._queue)} "
            f"processes={len(self._processes)}>"
        )
