"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot future: it is *pending* until the simulator
(or another component) triggers it with :meth:`Event.succeed` or
:meth:`Event.fail`, at which point every registered callback runs at the
current simulated time.  Processes (see :mod:`repro.sim.process`) are
generators that ``yield`` events and are resumed when the event fires.

Composite events (:class:`AllOf`, :class:`AnyOf`) are provided because the
NIC model waits for e.g. "lock granted AND payload delivered".
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.engine import Simulator


class SimulationError(RuntimeError):
    """Raised when the simulation kernel is used incorrectly."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    The ``cause`` attribute carries an arbitrary, caller-supplied payload
    explaining why the interrupt happened.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    name:
        Optional human-readable label used in ``repr`` and error messages.
    """

    # What a pending event has not set yet, as class-level defaults: a
    # constructor stores ``sim``, a fresh ``callbacks`` list and its own
    # fields, and nothing else — which is what lets every subclass build its
    # event in one frame instead of chaining here.  (Not ``__slots__``:
    # measured time-neutral, and slots cannot carry defaults.)
    _name: Optional[str] = None
    _triggered = False
    _processed = False
    _ok: Optional[bool] = None
    _value: Any = None

    def __init__(self, sim: "Simulator", name: Optional[str] = None) -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._name = name

    # -- state ---------------------------------------------------------------

    @property
    def name(self) -> str:
        """The label given at construction, or the default one.

        The default is built when asked for, not per event: an untraced run
        creates thousands of events whose names nobody reads.
        """
        return self._name or self._default_name()

    def _default_name(self) -> str:
        return self.__class__.__name__

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the simulator has run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self._triggered:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed`, or the exception from :meth:`fail`."""
        if not self._triggered:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ----------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event as successful and schedule its callbacks now."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        # The calendar push, in this frame (as in ``Simulator._push``).
        sim = self.sim
        heappush(sim._queue, (sim._now, sim._sequence, self))
        sim._sequence += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event as failed; waiting processes receive *exception*."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() expects an exception, got {exception!r}")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.sim._push(self.sim._now, self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{self.__class__.__name__} {self.name!r} {state}>"


class Timeout(Event):
    """An event that fires automatically after a fixed simulated delay.

    Built by :meth:`Simulator.timeout`, which validates *delay*; the
    simulator triggers it when it pops it off the calendar.
    """

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: Any = None,
        name: Optional[str] = None,
    ) -> None:
        # One frame per delivery: the event's own fields and the calendar
        # push, neither chained to ``Event.__init__`` nor to ``_push``.
        self.sim = sim
        self.callbacks = []
        self._name = name
        self.delay = delay
        self._value = value
        heappush(sim._queue, (sim._now + delay, sim._sequence, self))
        sim._sequence += 1

    def _default_name(self) -> str:
        return f"Timeout({self.delay})"

    def succeed(self, value: Any = None) -> "Event":  # noqa: D102
        raise SimulationError("Timeout events are triggered by the simulator only")

    def fail(self, exception: BaseException) -> "Event":  # noqa: D102
        raise SimulationError("Timeout events are triggered by the simulator only")


class _Condition(Event):
    """Common machinery for :class:`AllOf` / :class:`AnyOf`."""

    def __init__(self, sim: "Simulator", events: Sequence[Event], name: Optional[str] = None) -> None:
        super().__init__(sim, name)
        self.events: List[Event] = list(events)
        if not self.events:
            # An empty condition is immediately satisfied.
            self.succeed({})
            return
        self._pending = len(self.events)
        for event in self.events:
            if event.triggered:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _default_name(self) -> str:
        return f"{self.__class__.__name__}({len(self.events)})"

    def _collect_values(self) -> dict:
        return {e: e.value for e in self.events if e.triggered and e.ok}


class AllOf(_Condition):
    """Fires when *all* child events have fired.

    The value is a dict mapping each child event to its value.  If any child
    fails, the condition fails with that child's exception.
    """

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect_values())


class AnyOf(_Condition):
    """Fires when *any* child event has fired (with that child's outcome)."""

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed({event: event.value})
        else:
            self.fail(event.value)
