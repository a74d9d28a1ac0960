"""Point-to-point channels.

RDMA fabrics deliver messages between a given pair of endpoints in order
(per queue pair); the simulation preserves that property: even when the
latency model draws a shorter flight time for a later message, its delivery is
clamped to be no earlier than the previous message on the same ordered pair.
This mirrors the paper's model of "communication channels that interconnect"
the processors (Section III-C) and keeps per-channel causality intact.

Unreliable datagrams (:mod:`repro.net.ud_transport`) share the pair's one
channel and its FIFO clamp; what sets them apart is only that the fabric may
lose one (:meth:`~Channel.drop`) or deliver it twice
(:meth:`~Channel.duplicate`).
"""

from __future__ import annotations

from typing import Tuple

from repro.net.latency import LatencyModel
from repro.net.message import Message, MessageKind
from repro.sim.engine import Simulator
from repro.sim.events import Event, Timeout
from repro.util.validation import require_non_negative


#: Delivery-event names, one constant per kind instead of a format per message.
_DELIVER = {kind: f"deliver:{kind.value}" for kind in MessageKind}


class Channel:
    """A FIFO channel from one rank to another."""

    def __init__(
        self,
        sim: Simulator,
        source: int,
        destination: int,
        latency_model: LatencyModel,
        hops: int = 1,
    ) -> None:
        self._sim = sim
        self.source = source
        self.destination = destination
        self._latency_model = latency_model
        # Checked here once; the latency models trust the hop count they get.
        require_non_negative(hops, "hops")
        self._hops = max(1, hops) if source != destination else 0
        self._last_delivery = 0.0

    @property
    def hops(self) -> int:
        """Hop count used to scale latency."""
        return self._hops

    def transmit(
        self, message: Message, _owned: bool = False
    ) -> Tuple[Event, Message]:
        """Send *message*; returns ``(delivery_event, stamped_message)``.

        The event fires at the computed delivery time with the stamped message
        (send/deliver times filled in) as its value.  The stamped message is a
        copy, so one *message* may be transmitted any number of times;
        ``_owned`` is the fabric's promise that it built *message* for this
        one transmission, which is then stamped in place.
        """
        sim = self._sim
        now = sim._now
        flight = self._latency_model.latency(message, hops=self._hops)
        # A flight is checked where it enters: inline when it is the exact
        # non-negative float every model here returns, in full otherwise.
        if not (type(flight) is float and flight >= 0.0):
            require_non_negative(flight, "latency")
        controller = sim.controller
        if controller is not None:
            # The schedule controller owns delivery timing: it sees the
            # model's draw and may stretch it (a logged, replayable decision).
            # The FIFO clamp below still applies, so per-channel ordering is
            # preserved in every controlled schedule.
            flight = controller.on_message_latency(
                message, self.source, self.destination, flight
            )
            if not (type(flight) is float and flight >= 0.0):
                require_non_negative(flight, "controlled latency")
        deliver_at = now + flight
        if deliver_at >= self._last_delivery:
            self._last_delivery = deliver_at
        else:
            # Preserve FIFO order on the pair.
            deliver_at = self._last_delivery
        if _owned:
            fields = message.__dict__
            fields["send_time"] = now
            fields["deliver_time"] = deliver_at
            stamped = message
        else:
            stamped = message.stamped(now, deliver_at)
        # The delay needs no second check: ``deliver_at >= now`` by the sum
        # of non-negative terms and the clamp above.  It stays the difference
        # (the calendar then holds ``now + (deliver_at - now)``, as ever).
        return Timeout(sim, deliver_at - now, stamped, _DELIVER[stamped.kind]), stamped

    def drop(
        self, message: Message, retransmit_timeout: float
    ) -> Tuple[Event, Message]:
        """Lose *message*; returns ``(retransmit_timer_event, stamped)``.

        The datagram's bytes left the sender (the fabric accounts it like
        any transmission) but no delivery event exists; the returned event is
        the sender's retransmission timer.
        """
        require_non_negative(retransmit_timeout, "retransmit_timeout")
        now = self._sim.now
        stamped = message.stamped(now, now + retransmit_timeout)
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
        flight = max(0.0, stamped.deliver_time - stamped.send_time)
        delay = (stamped.deliver_time - self._sim.now) + flight
        return self._sim.timeout(
            max(0.0, delay),
            value=stamped,
            name=f"ud-duplicate:{stamped.kind.value}",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel P{self.source}->P{self.destination} hops={self._hops}>"
