"""The schedule controller: every nondeterministic choice point, owned.

A :class:`ScheduleController` is installed on a
:class:`~repro.sim.engine.Simulator` before the run starts
(:meth:`~repro.sim.engine.Simulator.install_controller`).  From then on it
sits at every place where a run's interleaving is decided — five kinds of
choice point (:data:`~repro.explore.decisions.DECISION_SHAPES` is the table,
``docs/explore.md`` says who calls what), each reached through one entry
point: :meth:`~ScheduleController.pick_next`, with which the engine's
:meth:`~repro.sim.engine.Simulator.step` resolves same-time ties, and one
``on_*`` method per other kind for ``net``, ``verbs`` and ``runtime``.  The
entry points differ only in how they name the point (its key, formatted
there in one go) and whether the caller wants the choice alone or on top of
its own value; the mechanism — ask, check, log — is
:meth:`ScheduleController._decide`.

Every resolution is appended to a :class:`~repro.explore.decisions.DecisionLog`,
and what the resolution *is* comes from a pluggable
:class:`ScheduleStrategy` — passthrough (baseline schedule), fuzzing
(:class:`~repro.explore.fuzzer.ScheduleFuzzer`), systematic prefix search
(:class:`~repro.explore.systematic.SystematicStrategy`) or replay of a
recorded log (:class:`ReplayStrategy`).  Because the simulation is a pure
function of (seed, decisions), recording and replaying the log reproduces a
schedule exactly — the property the minimizer and the campaign determinism
guarantees rest on.

One safety rule lives here rather than in any strategy: two deliveries on
the same channel are never reordered by the tie hook.  The channel layer
guarantees FIFO per (source, destination) pair — UD datagrams included — and
the detectors rely on it; the controller therefore only offers the strategy
the *earliest* pending delivery of each channel as a candidate.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, List, Optional, Tuple

from repro.explore.decisions import (
    DECISION_KINDS,
    DECISION_SHAPES,
    Choice,
    DecisionLog,
)
from repro.net.message import Message, MessageKind
from repro.sim.events import Timeout


class ReplayDivergence(RuntimeError):
    """A replayed decision log does not match the run it is applied to."""


#: The message kinds :func:`is_reorderable` admits: data and lock traffic.
_REORDERABLE = frozenset(
    [kind for kind in MessageKind if kind.is_data or kind.is_lock]
)


def is_reorderable(message: Message) -> bool:
    """Whether delaying *message* can change which access wins a conflict.

    Data messages carry the accesses themselves; **lock** messages decide
    the order in which the target NIC serializes conflicting accesses (a
    LOCK_REQUEST that arrives later acquires later — that *is* the
    interleaving choice for most races).  Detection and other control
    traffic rides inside an operation that already holds the cell lock, so
    delaying it only shifts absolute times, never the conflict order.
    """
    return message.kind in _REORDERABLE


class ScheduleStrategy:
    """Decides choice points; the base class always picks the default.

    A strategy is one method.  :meth:`choose` is asked once per choice point
    with the point's *kind* (a key of
    :data:`~repro.explore.decisions.DECISION_SHAPES`, which says what the
    answer must look like) and its *key*; an index kind also states *bound*,
    the number of options (the answer is in ``range(bound)``), and
    ``latency`` / ``drop`` pass the *message* being decided.
    """

    def choose(
        self,
        kind: str,
        key: str,
        bound: Optional[int] = None,
        message: Optional[Message] = None,
    ) -> Choice:
        """The choice at this point: ``0``, every kind's uncontrolled default."""
        return 0

    def describe(self) -> str:
        """One-line description used in exploration reports."""
        return self.__class__.__name__


class PassthroughStrategy(ScheduleStrategy):
    """The uncontrolled schedule, but with every choice point logged.

    Running a program under a passthrough controller produces the same
    execution as running it bare — plus the decision log that makes the
    schedule replayable and gives the systematic searcher its branch points.
    """

    def describe(self) -> str:
        return "passthrough"


class ReplayStrategy(ScheduleStrategy):
    """Replays a recorded (possibly truncated or sparsified) decision log.

    Choice points are consumed in order.  A ``None`` entry — and every
    choice point past the end of the log — resolves to the default, which is
    exactly what the channel/engine would have done uncontrolled.  In strict
    mode (the default) a kind/key mismatch, or a recorded index the run has
    no option for, raises :class:`ReplayDivergence`: the log belongs to a
    different program, seed or code version.  Non-strict replay takes the
    default there instead.
    """

    def __init__(self, log: DecisionLog, strict: bool = True) -> None:
        self._entries = log.entries
        self._position = 0
        self.strict = strict

    @property
    def consumed(self) -> int:
        """Choice points consumed so far."""
        return self._position

    def choose(
        self,
        kind: str,
        key: str,
        bound: Optional[int] = None,
        message: Optional[Message] = None,
    ) -> Choice:
        if self._position >= len(self._entries):
            return 0
        entry = self._entries[self._position]
        self._position += 1
        if entry is None:
            return 0
        if entry.kind != kind or entry.key != key:
            if self.strict:
                raise ReplayDivergence(
                    f"decision log diverged at position {self._position - 1}: "
                    f"log has {entry.kind}:{entry.key}, run reached {kind}:{key}"
                )
            return 0
        if bound is not None and entry.choice >= bound:
            if self.strict:
                raise ReplayDivergence(
                    f"decision log diverged at {key}: recorded {kind} index "
                    f"{entry.choice} but the run has only {bound} options"
                )
            return 0
        return entry.choice

    def describe(self) -> str:
        return f"replay({len(self._entries)} decisions)"


#: The type a choice of each kind is logged in (``DECISION_SHAPES``' rule).
_STORED_TYPE = {
    kind: float if shape == "delay" else int for kind, shape in DECISION_SHAPES.items()
}


def _refuse(kind: str, key: str, choice: object, bound: Optional[int]) -> None:
    """Raise the error for a *choice* outside the shape of *kind* (or *bound*)."""
    options = "" if bound is None else f" below {bound}"
    raise ValueError(
        f"strategy chose {choice!r} at {key}: "
        f"a {DECISION_SHAPES[kind]} is a finite number >= 0{options}"
    )


#: Cap on how many same-time calendar entries are offered to the tie hook at
#: once (the rest simply run on a later step).  Bounds the branching factor
#: without losing any event.
MAX_TIES = 8


class ScheduleController:
    """Owns a run's choice points; records every resolution by *strategy*."""

    def __init__(self, strategy: ScheduleStrategy) -> None:
        self.strategy = strategy
        self.log = DecisionLog()
        self._record = self.log._rows.append
        #: Per kind, the next choice point's number (the ``#n`` of its key).
        self._next_number = {kind: itertools.count().__next__ for kind in DECISION_KINDS}

    def _decide(
        self,
        kind: str,
        key: str,
        bound: Optional[int] = None,
        message: Optional[Message] = None,
    ) -> Choice:
        """Resolve one choice point of *kind*; every logged decision is made here.

        Asks the strategy, refuses an answer the kind's shape does not allow
        — negative, infinite or NaN (a log holding one could not be read
        back, :func:`~repro.explore.decisions.check_choice`), or an index
        outside ``range(bound)`` — and logs it in the shape's stored type.
        *key* is the point's identity, ``kind`` + subject + ``#n``, formatted
        by the entry point in one go with ``n`` from ``_next_number``.
        (:meth:`on_message_latency`, a schedule's most frequent point, does
        the same in its own frame.)
        """
        choice = self.strategy.choose(kind, key, bound, message)
        if not 0 <= choice < math.inf or (bound is not None and choice >= bound):
            _refuse(kind, key, choice, bound)
        choice = _STORED_TYPE[kind](choice)
        self._record((kind, key, choice))
        return choice

    # The entry points.  What each kind's choice means and why it is worth
    # owning is in :mod:`repro.explore.decisions`, not repeated here.

    def on_message_latency(
        self, message: Message, source: int, destination: int, model_flight: float
    ) -> float:
        """One message's controlled flight time (``Channel.transmit``).

        Stretching only: per-channel FIFO is preserved by the channel's
        clamp, and additive delays already reach every cross-channel
        arrival order.
        """
        key = f"latency:{source}->{destination}#{self._next_number['latency']()}"
        choice = self.strategy.choose("latency", key, None, message)
        if not 0 <= choice < math.inf:
            _refuse("latency", key, choice, None)
        choice = float(choice)
        self._record(("latency", key, choice))
        return model_flight + choice

    def on_credit_grant(self, receiver: int, sender: int) -> float:
        """Extra delay before a credit grant wakes *sender* (``CreditGate``)."""
        key = f"credit:{receiver}->{sender}#{self._next_number['credit']()}"
        return self._decide("credit", key)

    def on_barrier_release(self, generation: int, remaining: int) -> int:
        """Which of *remaining* barrier waiters is released next (0: arrival order).

        Called once per pick while more than one waiter remains, so a full
        fan-out of *n* ranks produces ``n - 1`` decisions.
        """
        key = f"barrier:g{generation}#{self._next_number['barrier']()}"
        return self._decide("barrier", key, remaining)

    def on_datagram_fate(
        self, message: Message, source: int, destination: int
    ) -> int:
        """One UD datagram's fate: 0 deliver, 1 drop, 2 deliver and duplicate.

        A dropped datagram is re-sent with a fresh sequence number and a
        freshly encoded clock frame; a duplicate is
        a second, later arrival the receiver must absorb idempotently.
        """
        key = f"drop:{source}->{destination}#{self._next_number['drop']()}"
        return self._decide("drop", key, 3, message)

    # -- same-time scheduling (called by Simulator.step) --------------------------------

    def pick_next(
        self, first: Tuple[float, int, Any], queue: List[Tuple[float, int, Any]]
    ) -> Tuple[float, int, Any]:
        """The calendar entry to process next, at a tie.

        :meth:`~repro.sim.engine.Simulator.step` calls this only when the
        entry it popped, *first*, has a successor on *queue* due at the same
        time.  Gathers the ready set (the entries tied at that time, up to
        :data:`MAX_TIES`), restricts it to *eligible* entries — everything
        except later-posted deliveries on a channel that already has an
        earlier delivery in the set, so per-channel FIFO survives any
        choice — lets the strategy pick among those, and pushes the rest
        back.

        Most ties have two entries: *first* and the heap's root, neither of
        whose children is due at the tie time (no later entry is, then).
        Such a tie is decided in place — the same eligibility, the same
        decision — and only a choice of the root touches the heap, which
        then swaps it for *first*.  The pop order is the gathering one's,
        since every entry's ``(time, seq)`` is unique.
        """
        top_time = first[0]
        size = len(queue)
        if (size < 2 or queue[1][0] != top_time) and (size < 3 or queue[2][0] != top_time):
            event, root_event = first[2], queue[0][2]
            if type(event) is type(root_event) is Timeout:
                message, root_message = event._value, root_event._value
                if (
                    type(message) is type(root_message) is Message
                    and message.source == root_message.source
                    and message.destination == root_message.destination
                ):
                    return first  # two deliveries on one channel: FIFO, no choice
            key = f"tie#{self._next_number['tie']()}"
            if self._decide("tie", key, 2):
                return heapq.heapreplace(queue, first)
            return first

        ready: List[Tuple[float, int, Any]] = [first]
        while queue and queue[0][0] == top_time and len(ready) < MAX_TIES:
            ready.append(heapq.heappop(queue))

        seen_channels = set()
        eligible_positions: List[int] = []
        for position, (_, _, event) in enumerate(ready):
            if type(event) is Timeout and type(event._value) is Message:
                message = event._value
                channel = (message.source, message.destination)
                if channel in seen_channels:
                    continue  # a later delivery on an already-represented channel
                seen_channels.add(channel)
            eligible_positions.append(position)

        if len(eligible_positions) > 1:
            key = f"tie#{self._next_number['tie']()}"
            index = self._decide("tie", key, len(eligible_positions))
            chosen_position = eligible_positions[index]
        else:
            chosen_position = eligible_positions[0]

        chosen = ready[chosen_position]
        for position, entry in enumerate(ready):
            if position != chosen_position:
                heapq.heappush(queue, entry)
        return chosen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ScheduleController {self.strategy.describe()} "
            f"decisions={len(self.log)}>"
        )
