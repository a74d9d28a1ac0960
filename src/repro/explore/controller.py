"""The schedule controller: every nondeterministic choice point, owned.

A :class:`ScheduleController` is installed on a
:class:`~repro.sim.engine.Simulator` before the run starts
(:meth:`~repro.sim.engine.Simulator.install_controller`).  From then on it
sits at the two places where a run's interleaving is decided:

* **message delivery timing** — :meth:`on_message_latency` is called by
  :class:`~repro.net.channel.Channel` for every transmitted message with the
  latency model's draw; the controller may stretch it (delivery reordering
  across channels; per-channel FIFO is preserved by the channel's clamp);
* **same-time scheduling** — :meth:`pick_next` is called by the engine's
  :meth:`~repro.sim.engine.Simulator.step` and chooses which of several
  events ready at the same simulated time runs first (process scheduling);
* **RNR retry timing** — :meth:`on_rnr_backoff` is called by
  :meth:`~repro.net.nic.NIC.send_payload` before every RNR retransmission
  with the configured backoff; the controller may stretch it, which decides
  how a storm of retransmissions interleaves with the receiver's reposts.

The adaptive control plane adds four more owned choice points: **credit
grant timing** (:meth:`on_credit_grant`, credit-based flow control's wake-up
of a stalled sender), **CQ moderation timer expiry** (:meth:`on_cq_timer`,
the ``(cq_count, cq_usec)`` protocol's armed timer), **adaptive clock-wire
resync deferral** (:meth:`on_clock_resync`) and **barrier fan-out order**
(:meth:`on_barrier_release`, the last previously-uncontrolled ordering).

The UD transport adds the final two: **datagram fate**
(:meth:`on_datagram_fate` — deliver, drop, or deliver-plus-duplicate; the
``drop`` decision kind) and **datagram delay** (:meth:`on_datagram_delay` —
extra flight time applied by :class:`~repro.net.ud_transport.UdChannel`
*without* a FIFO clamp; the ``reorder`` decision kind).

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

from repro.explore.decisions import Decision, DecisionLog
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

    ``choose_latency`` returns ``(extra_delay, alternatives)`` — the delay
    added on top of the latency model's draw, and how many alternatives a
    systematic searcher would consider at this point.  ``choose_tie``
    returns ``(index, alternatives)`` into the eligible ready entries.
    """

    def choose_latency(
        self, key: str, message: Message, model_flight: float
    ) -> Tuple[float, int]:
        """Extra delivery delay for *message* (default: none)."""
        return 0.0, 1

    def choose_tie(self, key: str, eligible: int) -> Tuple[int, int]:
        """Index of the same-time event to run first (default: first)."""
        return 0, eligible

    def choose_rnr(
        self, key: str, attempt: int, base_backoff: float
    ) -> Tuple[float, int]:
        """Extra delay added to one RNR retry backoff (default: none)."""
        return 0.0, 1

    def choose_credit(
        self, key: str, receiver: int, sender: int
    ) -> Tuple[float, int]:
        """Extra delay before a credit grant wakes a stalled sender."""
        return 0.0, 1

    def choose_cq_timer(self, key: str, base_usec: float) -> Tuple[float, int]:
        """Extra delay added to one armed CQ moderation timer."""
        return 0.0, 1

    def choose_resync(
        self, key: str, since_resync: int, period: int
    ) -> Tuple[int, int]:
        """Messages to defer a due adaptive clock-wire resync by."""
        return 0, 1

    def choose_barrier(self, key: str, remaining: int) -> Tuple[int, int]:
        """Index of the barrier waiter released next (default: arrival order)."""
        return 0, remaining

    def choose_datagram_fate(
        self, key: str, message: Message, source: int, destination: int
    ) -> Tuple[int, int]:
        """Fate of one UD datagram: 0 deliver, 1 drop, 2 duplicate."""
        return 0, 1

    def choose_datagram_delay(
        self, key: str, message: Message, source: int, destination: int
    ) -> Tuple[float, int]:
        """Extra unclamped flight time for one UD datagram (default: none)."""
        return 0.0, 1

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
    mode (the default) a kind/key mismatch raises :class:`ReplayDivergence`:
    the log belongs to a different program, seed or code version.
    """

    def __init__(self, log: DecisionLog, strict: bool = True) -> None:
        self._entries = log.entries
        self._position = 0
        self.strict = strict

    @property
    def consumed(self) -> int:
        """Choice points consumed so far."""
        return self._position

    def _next(self, kind: str, key: str) -> Optional[Decision]:
        if self._position >= len(self._entries):
            return None
        entry = self._entries[self._position]
        self._position += 1
        if entry is None:
            return None
        if entry.kind != kind or entry.key != key:
            if self.strict:
                raise ReplayDivergence(
                    f"decision log diverged at position {self._position - 1}: "
                    f"log has {entry.kind}:{entry.key}, run reached {kind}:{key}"
                )
            return None
        return entry

    def choose_latency(
        self, key: str, message: Message, model_flight: float
    ) -> Tuple[float, int]:
        entry = self._next("latency", key)
        return (float(entry.choice), 1) if entry is not None else (0.0, 1)

    def choose_tie(self, key: str, eligible: int) -> Tuple[int, int]:
        entry = self._next("tie", key)
        if entry is None:
            return 0, eligible
        index = int(entry.choice)
        if index >= eligible:
            if self.strict:
                raise ReplayDivergence(
                    f"decision log diverged at {key}: recorded tie index "
                    f"{index} but only {eligible} events are eligible"
                )
            return 0, eligible
        return index, eligible

    def choose_rnr(
        self, key: str, attempt: int, base_backoff: float
    ) -> Tuple[float, int]:
        entry = self._next("rnr", key)
        return (float(entry.choice), 1) if entry is not None else (0.0, 1)

    def choose_credit(
        self, key: str, receiver: int, sender: int
    ) -> Tuple[float, int]:
        entry = self._next("credit", key)
        return (float(entry.choice), 1) if entry is not None else (0.0, 1)

    def choose_cq_timer(self, key: str, base_usec: float) -> Tuple[float, int]:
        entry = self._next("cq_timer", key)
        return (float(entry.choice), 1) if entry is not None else (0.0, 1)

    def choose_resync(
        self, key: str, since_resync: int, period: int
    ) -> Tuple[int, int]:
        entry = self._next("resync", key)
        return (int(entry.choice), 1) if entry is not None else (0, 1)

    def choose_barrier(self, key: str, remaining: int) -> Tuple[int, int]:
        entry = self._next("barrier", key)
        if entry is None:
            return 0, remaining
        index = int(entry.choice)
        if index >= remaining:
            if self.strict:
                raise ReplayDivergence(
                    f"decision log diverged at {key}: recorded barrier index "
                    f"{index} but only {remaining} waiters remain"
                )
            return 0, remaining
        return index, remaining

    def choose_datagram_fate(
        self, key: str, message: Message, source: int, destination: int
    ) -> Tuple[int, int]:
        entry = self._next("drop", key)
        return (int(entry.choice), 1) if entry is not None else (0, 1)

    def choose_datagram_delay(
        self, key: str, message: Message, source: int, destination: int
    ) -> Tuple[float, int]:
        entry = self._next("reorder", key)
        return (float(entry.choice), 1) if entry is not None else (0.0, 1)

    def describe(self) -> str:
        return f"replay({len(self._entries)} decisions)"


class ScheduleController:
    """Owns a run's choice points; records every resolution.

    Parameters
    ----------
    strategy:
        The :class:`ScheduleStrategy` resolving each choice point.
    max_ties:
        Cap on how many same-time calendar entries are offered to the tie
        hook at once (the rest simply run on a later step).  Bounds the
        branching factor without losing any event.
    """

    def __init__(self, strategy: ScheduleStrategy, max_ties: int = 8) -> None:
        if max_ties < 1:
            raise ValueError(f"max_ties must be at least 1, got {max_ties}")
        self.strategy = strategy
        self.max_ties = max_ties
        self.log = DecisionLog()
        self._latency_index = 0
        self._tie_index = 0
        self._rnr_index = 0
        self._credit_index = 0
        self._cq_timer_index = 0
        self._resync_index = 0
        self._barrier_index = 0
        self._drop_index = 0
        self._reorder_index = 0

    # -- delivery timing (called by Channel.transmit) ---------------------------------

    def on_message_latency(
        self, message: Message, source: int, destination: int, model_flight: float
    ) -> float:
        """Resolve one message's flight time; returns the controlled value."""
        key = f"latency:{source}->{destination}#{self._latency_index}"
        self._latency_index += 1
        extra, alternatives = self.strategy.choose_latency(key, message, model_flight)
        if extra < 0:
            raise ValueError(f"strategy produced a negative delay at {key}: {extra}")
        self.log.append(Decision._build("latency", key, float(extra), alternatives))
        return model_flight + extra

    # -- RNR retry timing (called by NIC.send_payload) ----------------------------------

    def on_rnr_backoff(
        self, origin: int, destination: int, attempt: int, base_backoff: float
    ) -> float:
        """Resolve one RNR retry backoff; returns the controlled delay.

        *attempt* is the 1-based retransmission count of the failing SEND.
        The strategy may stretch the configured backoff (never shrink —
        additive delays already reach every retransmission/repost order the
        timing model can express).
        """
        key = f"rnr:{origin}->{destination}#{self._rnr_index}"
        self._rnr_index += 1
        extra, alternatives = self.strategy.choose_rnr(key, attempt, base_backoff)
        if extra < 0:
            raise ValueError(f"strategy produced a negative RNR delay at {key}: {extra}")
        self.log.append(Decision._build("rnr", key, float(extra), alternatives))
        return base_backoff + extra

    # -- credit grant timing (called by CreditGate.on_posted) ---------------------------

    def on_credit_grant(self, receiver: int, sender: int) -> float:
        """Resolve one credit grant's wake-up delay; returns the extra delay.

        Called when a receive post grants a credit to a sender stalled under
        credit-based flow control.  Stretching the grant decides which of
        several stalled senders claims a contested buffer first — the
        credit-mode analogue of stretching an RNR backoff.
        """
        key = f"credit:{receiver}->{sender}#{self._credit_index}"
        self._credit_index += 1
        extra, alternatives = self.strategy.choose_credit(key, receiver, sender)
        if extra < 0:
            raise ValueError(
                f"strategy produced a negative credit delay at {key}: {extra}"
            )
        self.log.append(Decision._build("credit", key, float(extra), alternatives))
        return extra

    # -- CQ moderation timer expiry (called by CqModerationTimer.arm) -------------------

    def on_cq_timer(self, rank: int, base_usec: float) -> float:
        """Resolve one armed CQ moderation timer; returns the controlled delay.

        The strategy may stretch the configured ``cq_usec`` (never shrink) —
        timer-expiry boundaries against arriving completions are exactly
        where lost-wakeup bugs live, so they are explorable choice points.
        """
        key = f"cq_timer:P{rank}#{self._cq_timer_index}"
        self._cq_timer_index += 1
        extra, alternatives = self.strategy.choose_cq_timer(key, base_usec)
        if extra < 0:
            raise ValueError(
                f"strategy produced a negative CQ timer delay at {key}: {extra}"
            )
        self.log.append(Decision._build("cq_timer", key, float(extra), alternatives))
        return base_usec + extra

    # -- adaptive clock-wire resync (called by ClockWireEncoder) ------------------------

    def on_clock_resync(
        self, source: int, destination: int, since_resync: int, period: int
    ) -> int:
        """Resolve one due adaptive resync; returns the deferral in messages.

        ``0`` resyncs now (the default); ``k`` sends ``k`` more sparse
        frames before the cadence re-arms.  Sparse frames always decode to
        the exact clock, so deferral perturbs only byte accounting — it is
        logged so adaptive runs stay replayable byte for byte.
        """
        key = f"resync:{source}->{destination}#{self._resync_index}"
        self._resync_index += 1
        defer, alternatives = self.strategy.choose_resync(key, since_resync, period)
        if defer < 0:
            raise ValueError(
                f"strategy produced a negative resync deferral at {key}: {defer}"
            )
        self.log.append(Decision._build("resync", key, int(defer), alternatives))
        return defer

    # -- barrier fan-out order (called by Barrier._open) --------------------------------

    def on_barrier_release(self, generation: int, remaining: int) -> int:
        """Pick which of *remaining* barrier waiters is released next.

        Called once per pick while more than one waiter remains, so a full
        fan-out of *n* ranks produces ``n - 1`` decisions.  Index ``0`` (the
        default) releases in arrival order — the uncontrolled behaviour.
        """
        key = f"barrier:g{generation}#{self._barrier_index}"
        self._barrier_index += 1
        index, alternatives = self.strategy.choose_barrier(key, remaining)
        if not (0 <= index < remaining):
            raise ValueError(
                f"strategy picked barrier index {index} of {remaining} at {key}"
            )
        self.log.append(Decision._build("barrier", key, int(index), alternatives))
        return index

    # -- UD datagram fate (called by Fabric.send_datagram) ------------------------------

    def on_datagram_fate(
        self, message: Message, source: int, destination: int
    ) -> int:
        """Resolve one UD datagram's fate: 0 deliver, 1 drop, 2 duplicate.

        A drop arms the sender's retransmission timer (the datagram is
        re-sent with a fresh sequence number and a freshly encoded clock
        frame — the RNR re-ride idiom); a duplicate schedules a second,
        later arrival of the same stamped datagram, which the receiver must
        absorb idempotently.
        """
        key = f"drop:{source}->{destination}#{self._drop_index}"
        self._drop_index += 1
        fate, alternatives = self.strategy.choose_datagram_fate(
            key, message, source, destination
        )
        if fate not in (0, 1, 2):
            raise ValueError(f"strategy picked datagram fate {fate} at {key}")
        self.log.append(Decision._build("drop", key, int(fate), alternatives))
        return fate

    # -- UD datagram delay (called by UdChannel.transmit) -------------------------------

    def on_datagram_delay(
        self, message: Message, source: int, destination: int
    ) -> float:
        """Resolve one UD datagram's extra flight time (no FIFO clamp).

        Unlike ``on_message_latency``, the UD channel applies the result
        without clamping to the channel's previous delivery time — a
        stretched datagram genuinely overtakes nothing and is overtaken by
        everything, which is how sparse clock frames arrive stale and
        exercise the resync path.
        """
        key = f"reorder:{source}->{destination}#{self._reorder_index}"
        self._reorder_index += 1
        extra, alternatives = self.strategy.choose_datagram_delay(
            key, message, source, destination
        )
        if extra < 0:
            raise ValueError(
                f"strategy produced a negative datagram delay at {key}: {extra}"
            )
        self.log.append(Decision._build("reorder", key, float(extra), alternatives))
        return extra

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
        ``max_ties``), restricts it to *eligible* entries — everything
        except later-posted deliveries on a channel that already has an
        earlier delivery in the set, so per-channel FIFO survives any
        choice — and lets the strategy pick among those.
        """
        first = heapq.heappop(queue)
        top_time = first[0]
        if not queue or queue[0][0] != top_time:
            return first  # nothing else is ready at this time: no choice to make
        ready: List[Tuple[float, int, Any]] = [first]
        while queue and queue[0][0] == top_time and len(ready) < self.max_ties:
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
            key = f"tie#{self._tie_index}"
            self._tie_index += 1
            index, _ = self.strategy.choose_tie(key, len(eligible_positions))
            if not (0 <= index < len(eligible_positions)):
                raise ValueError(
                    f"strategy picked tie index {index} of "
                    f"{len(eligible_positions)} at {key}"
                )
            self.log.append(
                Decision._build("tie", key, int(index), len(eligible_positions))
            )
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
