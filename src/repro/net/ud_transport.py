"""The unreliable-datagram (UD) service level.

RC — everything this simulation modelled before — is the reliable connected
transport: per-pair FIFO delivery, no loss.  The lockstep ``clock_wire``
codecs lean on exactly that promise (a sparse frame is a patch against *the
previous frame on the channel*); that assumption was the wire formats'
standing limit.  This module models the transport a planet-scale
deployment would actually run on: **unreliable datagrams** that the fabric
may drop, duplicate or reorder, with no FIFO clamp.

The moving parts:

* :class:`UdChannel` — a :class:`~repro.net.channel.Channel` that makes no
  ordering promise.  Delivery timing is a ``reorder`` decision
  (:meth:`ScheduleController.on_datagram_delay`) applied *without* the FIFO
  clamp; a delivery that genuinely overtakes an earlier one is counted, not
  corrected.  Drops and duplicates are ``drop`` decisions resolved by
  :meth:`Fabric.send_datagram` before the channel is even asked.

* :class:`UdEndpoint` — per-NIC datagram state.  The transmit side assigns
  each clock-carrying datagram a per-destination sequence number and files
  the exact clock it carried (the resync history); the receive side tracks,
  per source, the highest sequence its wire view has absorbed and decides
  each arriving frame's verdict: ``"exact"`` (stampable as-is), ``"gap"``
  (a sparse frame whose predecessor never arrived), ``"stale"`` (a sparse
  frame from before the current view — a reorder across a resync boundary)
  or ``"duplicate"`` (already absorbed; idempotent).

* :exc:`UdDeliveryExceeded` — a datagram (or its resync subprotocol) burnt
  the whole retransmission budget; surfaces as a failed work completion in
  the verbs layer, the UD twin of RNR-retry exhaustion.

Soundness contract: the detector always stamps the *in-process* carried
clock, and the UD machinery decides whether the receiver's wire view could
have reconstructed it — absorbing it directly when it could, running the
charged receiver-driven resync round trip (which fetches the exact
historical full frame for that sequence, never the sender's *current*
clock) when it could not.  A stale clock is therefore never stamped and no
false happens-before edge is ever introduced, whatever the fabric drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.net.channel import Channel, ChannelStats
from repro.net.message import Message, MessageKind
from repro.sim.events import Event
from repro.util.validation import require_non_negative

#: The service levels a runtime/NIC can be configured with.
TRANSPORT_MODES = ("rc", "ud")

#: Delivery-event names, one constant per kind instead of a format per datagram.
_UD_DELIVER = {kind: f"ud-deliver:{kind.value}" for kind in MessageKind}


def validate_transport(mode: str) -> str:
    """Return *mode* if it names a transport, else raise ``ValueError``."""
    if mode not in TRANSPORT_MODES:
        raise ValueError(
            f"transport must be one of {TRANSPORT_MODES}, got {mode!r}"
        )
    return mode


class UdDeliveryExceeded(RuntimeError):
    """A UD datagram exhausted its retransmission budget.

    The UD analogue of :class:`~repro.net.nic.RnrRetryExceeded`: the verbs
    layer reports it as a failed work completion
    (``CompletionStatus.UD_DELIVERY_EXCEEDED``) instead of letting it
    propagate out of the queue pair.
    """


@dataclass
class UdChannelStats(ChannelStats):
    """Per-UD-channel accounting on top of the base channel counters."""

    #: Datagrams the fabric dropped on this channel (each one armed the
    #: sender's retransmission timer).
    dropped: int = 0
    #: Datagrams delivered twice.
    duplicated: int = 0
    #: Deliveries that genuinely overtook an earlier send — the events the
    #: RC channel's FIFO clamp would have corrected (and counted as
    #: ``reordering_clamps``).
    reordered: int = 0


class UdChannel(Channel):
    """An unordered, unreliable channel from one rank to another."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stats = UdChannelStats()

    def transmit(self, message: Message) -> Tuple[Event, Message]:
        """Send *message* unreliably; returns ``(delivery_event, stamped)``.

        Differences from the RC channel: delivery timing is the ``reorder``
        decision kind (extra delay on the model's draw, owned by
        :meth:`ScheduleController.on_datagram_delay`), and there is **no
        FIFO clamp** — a datagram that would arrive before its predecessor
        simply does, which is what lets sparse clock frames arrive stale.
        """
        now = self._sim.now
        flight = self._latency_model.latency(message, hops=self._hops)
        require_non_negative(flight, "latency")
        controller = self._sim.controller
        if controller is not None:
            flight += controller.on_datagram_delay(
                message, self.source, self.destination
            )
        start = now
        if self._bandwidth is not None:
            start = max(now, self._next_free)
            transmission = message.total_bytes / self._bandwidth
            self._next_free = start + transmission
            flight += (start - now) + transmission
        deliver_at = now + flight
        if deliver_at < self._last_delivery:
            self.stats.reordered += 1
        else:
            self._last_delivery = deliver_at
        stamped = message.stamped(now, deliver_at)
        self.stats.messages += 1
        self.stats.bytes += stamped.total_bytes
        self.stats.total_latency += deliver_at - now
        event = self._sim.timeout(
            deliver_at - now, value=stamped, name=_UD_DELIVER[stamped.kind]
        )
        return event, stamped

    def drop(
        self, message: Message, retransmit_timeout: float
    ) -> Tuple[Event, Message]:
        """Lose *message*; returns ``(retransmit_timer_event, stamped)``.

        The datagram's bytes left the sender (it is accounted like any
        transmission) but no delivery event exists; the returned event is
        the sender's retransmission timer.
        """
        require_non_negative(retransmit_timeout, "retransmit_timeout")
        now = self._sim.now
        stamped = message.stamped(now, now + retransmit_timeout)
        self.stats.messages += 1
        self.stats.bytes += stamped.total_bytes
        self.stats.dropped += 1
        event = self._sim.timeout(
            retransmit_timeout,
            value=stamped,
            name=f"ud-drop:{stamped.kind.value}",
        )
        return event, stamped

    def duplicate(self, stamped: Message) -> Event:
        """Schedule a second arrival of an already-transmitted datagram.

        The copy reuses the original's flight time, so it lands one flight
        after the primary delivery — deterministically, with no extra
        latency-model draw, which keeps replays byte-identical.
        """
        self.stats.duplicated += 1
        flight = max(0.0, stamped.deliver_time - stamped.send_time)
        delay = (stamped.deliver_time - self._sim.now) + flight
        return self._sim.timeout(
            max(0.0, delay),
            value=stamped,
            name=f"ud-duplicate:{stamped.kind.value}",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<UdChannel P{self.source}->P{self.destination} "
            f"messages={self.stats.messages} dropped={self.stats.dropped}>"
        )


class UdEndpoint:
    """Per-NIC UD datagram state: tx sequences + history, rx view.

    Transmit side (keyed by destination rank): a monotonically increasing
    1-based sequence number per destination, and the **resync history** —
    the exact frozen clock each sequence number carried.  A resync reply
    serves the *historical* clock for the requested sequence, never the
    sender's current one: answering with a newer clock would add
    happens-before edges the receiver never observed and silently mask
    races.

    Receive side (keyed by source rank): ``view_seq``, the sequence the
    receiver's reconstructed wire view corresponds to, plus the set of
    absorbed sequences (for idempotent duplicate handling).  A sparse frame
    is appliable exactly when it is the view's direct successor; a full
    frame is always appliable.
    """

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._next_seq: Dict[int, int] = {}
        self._history: Dict[int, Dict[int, Optional[tuple]]] = {}
        self._view_seq: Dict[int, int] = {}
        self._absorbed: Dict[int, Set[int]] = {}

    # -- transmit side -------------------------------------------------------------

    def assign_seq(self, destination: int, clock_entries: Optional[tuple]) -> int:
        """Sequence the next datagram to *destination*; file its clock."""
        seq = self._next_seq.get(destination, 0) + 1
        self._next_seq[destination] = seq
        self._history.setdefault(destination, {})[seq] = (
            None if clock_entries is None else tuple(clock_entries)
        )
        return seq

    def historical_clock(self, destination: int, seq: int) -> Optional[tuple]:
        """The exact clock datagram *seq* to *destination* carried."""
        return self._history.get(destination, {}).get(seq)

    # -- receive side --------------------------------------------------------------

    def view_seq(self, source: int) -> int:
        """The sequence this receiver's wire view of *source* sits at."""
        return self._view_seq.get(source, 0)

    def absorb(self, source: int, seq: int, frame: Optional[str]) -> str:
        """Admit one arriving datagram's clock frame into the wire view.

        Returns the verdict: ``"exact"`` (absorbed — a full frame, a
        frame-less datagram, or the in-order next sparse frame),
        ``"duplicate"`` (this sequence was already absorbed; idempotent
        no-op), ``"gap"`` (a sparse frame whose predecessor is missing) or
        ``"stale"`` (a sparse frame from before the current view).  The
        caller must run the resync subprotocol for ``"gap"``/``"stale"``
        and then call :meth:`mark_resynced`.
        """
        seen = self._absorbed.setdefault(source, set())
        if seq in seen:
            return "duplicate"
        view = self._view_seq.get(source, 0)
        if frame == "sparse" and seq != view + 1:
            return "stale" if seq <= view else "gap"
        seen.add(seq)
        self._view_seq[source] = max(view, seq)
        return "exact"

    def mark_resynced(self, source: int, seq: int) -> None:
        """Record that a resync round trip recovered sequence *seq*.

        The view only ever advances: recovering a stale sequence (reorder
        across a resync boundary) must not rewind the in-order view later
        sparse frames patch against.
        """
        self._absorbed.setdefault(source, set()).add(seq)
        self._view_seq[source] = max(self._view_seq.get(source, 0), seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sent = sum(self._next_seq.values())
        return f"<UdEndpoint P{self.rank} sent={sent}>"
