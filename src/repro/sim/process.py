"""Generator-based simulated processes.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  When the yielded event triggers, the simulator resumes the generator
with the event's value (or throws the event's exception into it).  This is the
classic SimPy execution model; it lets user programs in
:mod:`repro.runtime.program` express one-sided memory operations as ordinary
sequential code (``value = yield from api.get(x)``).

A process is itself an :class:`Event`: it triggers when the generator returns,
with the generator's return value, so other processes can wait on it (used by
the runtime's barrier/join machinery).
"""

from __future__ import annotations

import enum
import weakref
from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event, Interrupt, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process."""

    CREATED = "created"
    RUNNING = "running"
    WAITING = "waiting"
    FINISHED = "finished"
    FAILED = "failed"


#: The two states a process never leaves.
_ENDED = (ProcessState.FINISHED, ProcessState.FAILED)

#: The two states every resumption stores, read off the class once: on
#: Python 3.11 an ``Enum`` member read goes through ``EnumType.__getattr__``'s
#: lookup hook, about ten times the cost of reading a global.
_RUNNING = ProcessState.RUNNING
_WAITING = ProcessState.WAITING


class _Bounce(Event):
    """The hop that resumes a process which yielded an already-fired event.

    It carries that event's outcome and the process's ``_resume`` as its one
    callback, so the step that pops it resumes the process itself — no
    closure, no frame in between.  One is made for every uncontended lock
    grant, so its label is built when somebody asks for it.
    """

    _triggered = True

    def __init__(self, process: "Process", fired: Event) -> None:
        # One frame: the event's fields and the calendar push (as in
        # ``Timeout.__init__``); the rest is Event's class-level defaults.
        sim = process._sim()
        self.sim = sim
        self.callbacks = [process._resume]
        self._process = process
        self._ok = fired._ok
        self._value = fired._value
        heappush(sim._queue, (sim._now, sim._sequence, self))
        sim._sequence += 1

    def _default_name(self) -> str:
        return f"{self._process.name}:bounce"


class Process(Event):
    """Wraps a generator and steps it through the event loop.

    Parameters
    ----------
    sim:
        Owning simulator.
    generator:
        A generator yielding :class:`Event` instances.
    name:
        Human-readable name (e.g. ``"rank-3"``).
    """

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name or "process")
        self._generator = generator
        self._state = ProcessState.CREATED
        self._waiting_on: Optional[Event] = None
        # Kick off the process at the current simulated time.
        start = Event(sim, name=f"{self.name}:start")
        start.callbacks.append(self._resume)
        start.succeed(None)

    # -- inspection ----------------------------------------------------------

    @property
    def sim(self) -> "Simulator":
        """The owning simulator, held weakly: it lists its processes, and a
        strong reference back would leave every finished run to the cyclic
        collector.  Whatever steps a process is driven by that simulator."""
        return self._sim()

    @sim.setter
    def sim(self, sim: "Simulator") -> None:
        self._sim = weakref.ref(sim)

    @property
    def state(self) -> ProcessState:
        """Current lifecycle state."""
        return self._state

    @property
    def waiting_on(self) -> Optional[Event]:
        """The event this process is currently blocked on, if any."""
        return self._waiting_on

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished or failed."""
        return self._state not in _ENDED

    # -- control -------------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait point.

        Interrupting a finished process is an error; interrupting a process
        that is not currently waiting is deferred until it next yields.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        wakeup = Event(self.sim, name=f"{self.name}:interrupt")
        wakeup.callbacks.append(self._interrupted)
        wakeup.fail(Interrupt(cause))

    def _interrupted(self, wakeup: Event) -> None:
        """Resume with the failed *wakeup*, its :class:`Interrupt` thrown in.

        Whatever the process was parked on must not wake it a second time:
        its ``_resume`` comes off that event's callbacks, or — when that
        event had already fired — off the bounce still on the calendar.
        """
        waiting = self._waiting_on
        if waiting is not None:
            resume = self._resume
            if resume in waiting.callbacks:
                waiting.callbacks.remove(resume)
            else:
                for _, _, event in self._sim()._queue:
                    if type(event) is _Bounce and resume in event.callbacks:
                        event.callbacks.remove(resume)
                        break
        self._resume(wakeup)

    # -- stepping ------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event* (already fired)."""
        if self._state in _ENDED:
            return
        self._waiting_on = None
        self._state = _RUNNING
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via the event
            self._fail(exc)
            return
        if not isinstance(target, Event):
            self._fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
                )
            )
            return
        # Parked, in this frame: on a pending event as its callback; on an
        # already-fired one through a bounce that carries its outcome and
        # resumes on the next step at the same time.
        self._state = _WAITING
        self._waiting_on = target
        if target._triggered:
            _Bounce(self, target)
        else:
            target.callbacks.append(self._resume)

    def _finish(self, value: Any) -> None:
        self._state = ProcessState.FINISHED
        self._waiting_on = None
        if not self._triggered:
            self.succeed(value)

    def _fail(self, exc: BaseException) -> None:
        self._state = ProcessState.FAILED
        self._waiting_on = None
        self.sim._record_process_failure(self, exc)
        if not self._triggered:
            self.fail(exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {self._state.value}>"
