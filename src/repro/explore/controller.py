"""The schedule controller: every nondeterministic choice point, owned.

A :class:`ScheduleController` is installed on a
:class:`~repro.sim.engine.Simulator` before the run starts
(:meth:`~repro.sim.engine.Simulator.install_controller`).  From then on it
sits at every place where a run's interleaving is decided — nine kinds of
choice point (:data:`~repro.explore.decisions.DECISION_SHAPES` is the table,
``docs/explore.md`` says who calls what), each reached through one entry
point: :meth:`~ScheduleController.pick_next`, with which the engine's
:meth:`~repro.sim.engine.Simulator.step` resolves same-time ties, and one
``on_*`` method per other kind for ``net``, ``verbs`` and ``runtime``.  The
entry points differ only in how they name the point and whether the caller
wants the choice alone or on top of its own value; the mechanism — number,
key, ask, check, log — is :meth:`ScheduleController._decide`.

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
the same ordered channel are never reordered by the tie hook.  The channel
layer guarantees FIFO per (source, destination) pair and the detectors rely
on it; the controller therefore only offers the strategy the *earliest*
pending delivery of each channel as a candidate.  UD datagrams
(``message.ud_seq is not None``) are exempt — an unreliable channel makes
no ordering promise, so same-time datagram deliveries are freely
reorderable ties.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

from repro.explore.decisions import (
    DECISION_KINDS,
    DECISION_SHAPES,
    Choice,
    Decision,
    DecisionLog,
)
from repro.net.message import Message, MessageKind
from repro.sim.events import Timeout


class ReplayDivergence(RuntimeError):
    """A replayed decision log does not match the run it is applied to."""


def is_reorderable(message: Message) -> bool:
    """Whether delaying *message* can change which access wins a conflict.

    Data messages carry the accesses themselves; **lock** messages decide
    the order in which the target NIC serializes conflicting accesses (a
    LOCK_REQUEST that arrives later acquires later — that *is* the
    interleaving choice for most races).  Detection and other control
    traffic rides inside an operation that already holds the cell lock, so
    delaying it only shifts absolute times, never the conflict order.
    """
    return message.kind.is_data or message.kind.is_lock


class ScheduleStrategy:
    """Decides choice points; the base class always picks the default.

    A strategy is one method.  :meth:`choose` is asked once per choice point
    with the point's *kind* (a key of
    :data:`~repro.explore.decisions.DECISION_SHAPES`, which says what the
    answer must look like) and its *key*; an index kind also states *bound*,
    the number of options (the answer is in ``range(bound)``), and
    ``latency`` / ``drop`` / ``reorder`` pass the *message* being decided.
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


#: Cap on how many same-time calendar entries are offered to the tie hook at
#: once (the rest simply run on a later step).  Bounds the branching factor
#: without losing any event.
MAX_TIES = 8


class ScheduleController:
    """Owns a run's choice points; records every resolution by *strategy*."""

    def __init__(self, strategy: ScheduleStrategy) -> None:
        self.strategy = strategy
        self.log = DecisionLog()
        self._met = dict.fromkeys(DECISION_KINDS, 0)

    def _decide(
        self,
        kind: str,
        subject: str,
        bound: Optional[int] = None,
        message: Optional[Message] = None,
    ) -> Choice:
        """Resolve one choice point of *kind*; every logged decision is made here.

        Numbers the point within its kind, builds its key (``kind`` +
        *subject* + ``#n``), asks the strategy, refuses an answer the kind's
        shape does not allow — negative, or an index outside
        ``range(bound)`` — and logs it in the shape's stored type.
        """
        number = self._met[kind]
        self._met[kind] = number + 1
        key = f"{kind}{subject}#{number}"
        choice = self.strategy.choose(kind, key, bound, message)
        shape = DECISION_SHAPES[kind]
        if choice < 0 or (bound is not None and choice >= bound):
            options = "" if bound is None else f" below {bound}"
            raise ValueError(
                f"strategy chose {choice!r} at {key}: "
                f"a {shape} is a non-negative number{options}"
            )
        choice = float(choice) if shape == "delay" else int(choice)
        self.log.append(Decision._build(kind, key, choice))
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
        return model_flight + self._decide(
            "latency", f":{source}->{destination}", None, message
        )

    def on_rnr_backoff(
        self, origin: int, destination: int, attempt: int, base_backoff: float
    ) -> float:
        """One RNR retry's controlled backoff (``NIC.send_payload``).

        *attempt* is the 1-based retransmission count of the failing SEND.
        Stretched, never shrunk: additive delays already reach every
        retransmission/repost order the timing model can express.
        """
        return base_backoff + self._decide("rnr", f":{origin}->{destination}")

    def on_credit_grant(self, receiver: int, sender: int) -> float:
        """Extra delay before a credit grant wakes *sender* (``CreditGate``)."""
        return self._decide("credit", f":{receiver}->{sender}")

    def on_cq_timer(self, rank: int, base_usec: float) -> float:
        """One armed CQ moderation timer's controlled delay (stretched only)."""
        return base_usec + self._decide("cq_timer", f":P{rank}")

    def on_clock_resync(
        self, source: int, destination: int, since_resync: int, period: int
    ) -> int:
        """Sparse messages to defer a due adaptive resync by (0: resync now)."""
        return self._decide("resync", f":{source}->{destination}")

    def on_barrier_release(self, generation: int, remaining: int) -> int:
        """Which of *remaining* barrier waiters is released next (0: arrival order).

        Called once per pick while more than one waiter remains, so a full
        fan-out of *n* ranks produces ``n - 1`` decisions.
        """
        return self._decide("barrier", f":g{generation}", remaining)

    def on_datagram_fate(
        self, message: Message, source: int, destination: int
    ) -> int:
        """One UD datagram's fate: 0 deliver, 1 drop, 2 deliver and duplicate.

        A dropped datagram is re-sent with a fresh sequence number and a
        freshly encoded clock frame (the RNR re-ride idiom); a duplicate is
        a second, later arrival the receiver must absorb idempotently.
        """
        return self._decide("drop", f":{source}->{destination}", 3, message)

    def on_datagram_delay(
        self, message: Message, source: int, destination: int
    ) -> float:
        """One UD datagram's extra flight time (``Channel.transmit(ordered=False)``).

        Applied without the FIFO clamp ``on_message_latency``'s result gets,
        which is how sparse clock frames arrive stale and exercise the
        resync path.
        """
        return self._decide("reorder", f":{source}->{destination}", None, message)

    # -- same-time scheduling (called by Simulator.step) --------------------------------

    @staticmethod
    def _delivery_channel(event: Any) -> Optional[Tuple[int, int]]:
        """The (source, destination) pair of a delivery timeout, else ``None``.

        UD datagrams report no channel: the unreliable service level makes
        no FIFO promise, so their same-time deliveries stay eligible ties.
        """
        if isinstance(event, Timeout) and isinstance(event._value, Message):
            message = event._value
            if message.ud_seq is not None or message.kind in (
                MessageKind.UD_RESYNC_REQUEST,
                MessageKind.UD_RESYNC_FULL,
            ):
                return None
            return (message.source, message.destination)
        return None

    def pick_next(self, queue: List[Tuple[float, int, Any]]):
        """Pop and return the calendar entry to process next.

        Gathers the ready set (entries tied at the earliest time, up to
        :data:`MAX_TIES`), restricts it to *eligible* entries — everything
        except later-posted deliveries on a channel that already has an
        earlier delivery in the set, so per-channel FIFO survives any
        choice — and lets the strategy pick among those.
        """
        first = heapq.heappop(queue)
        top_time = first[0]
        if not queue or queue[0][0] != top_time:
            return first  # nothing else is ready at this time: no choice to make
        ready: List[Tuple[float, int, Any]] = [first]
        while queue and queue[0][0] == top_time and len(ready) < MAX_TIES:
            ready.append(heapq.heappop(queue))
        if len(ready) == 1:
            return first

        seen_channels = set()
        eligible_positions: List[int] = []
        for position, (_, _, event) in enumerate(ready):
            channel = self._delivery_channel(event)
            if channel is not None:
                if channel in seen_channels:
                    continue  # a later delivery on an already-represented channel
                seen_channels.add(channel)
            eligible_positions.append(position)

        if len(eligible_positions) > 1:
            index = self._decide("tie", "", len(eligible_positions))
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
