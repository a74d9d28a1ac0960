"""FIFO point-to-point channels.

RDMA fabrics deliver messages between a given pair of endpoints in order
(per queue pair); the simulation preserves that property: even when the
latency model draws a shorter flight time for a later message, its delivery is
clamped to be no earlier than the previous message on the same ordered pair.
This mirrors the paper's model of "communication channels that interconnect"
the processors (Section III-C) and keeps per-channel causality intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.latency import LatencyModel
from repro.net.message import Message, MessageKind
from repro.sim.engine import Simulator
from repro.sim.events import Event, Timeout
from repro.util.validation import require_non_negative


#: Delivery-event names, one constant per kind instead of a format per message.
_DELIVER = {kind: f"deliver:{kind.value}" for kind in MessageKind}


@dataclass
class ChannelStats:
    """Per-channel accounting."""

    messages: int = 0
    bytes: int = 0
    total_latency: float = 0.0
    reordering_clamps: int = 0

    @property
    def mean_latency(self) -> float:
        """Average observed flight time."""
        return self.total_latency / self.messages if self.messages else 0.0


class Channel:
    """An ordered, reliable channel from one rank to another."""

    def __init__(
        self,
        sim: Simulator,
        source: int,
        destination: int,
        latency_model: LatencyModel,
        hops: int = 1,
        bandwidth_bytes_per_time: Optional[float] = None,
    ) -> None:
        self._sim = sim
        self.source = source
        self.destination = destination
        self._latency_model = latency_model
        # Checked here once; the latency models trust the hop count they get.
        require_non_negative(hops, "hops")
        self._hops = max(1, hops) if source != destination else 0
        self._bandwidth = bandwidth_bytes_per_time
        if bandwidth_bytes_per_time is not None:
            require_non_negative(bandwidth_bytes_per_time, "bandwidth_bytes_per_time")
            if bandwidth_bytes_per_time == 0:
                raise ValueError("bandwidth must be positive or None")
        self._last_delivery = 0.0
        self._next_free = 0.0  # link serialization when bandwidth is modelled
        self.stats = ChannelStats()

    @property
    def hops(self) -> int:
        """Hop count used to scale latency."""
        return self._hops

    def transmit(self, message: Message, _owned: bool = False) -> Tuple[Event, Message]:
        """Send *message*; returns ``(delivery_event, stamped_message)``.

        The event fires at the computed delivery time with the stamped message
        (send/deliver times filled in) as its value.  The stamped message is a
        copy, so one *message* may be transmitted any number of times;
        ``_owned`` is the fabric's promise that it built *message* for this
        one transmission, which is then stamped in place.
        """
        sim, stats = self._sim, self.stats
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
        start = now
        if self._bandwidth is not None:
            # The link serializes messages: a message cannot start transmission
            # before the previous one's bytes have left the wire.
            start = max(now, self._next_free)
            transmission = message.total_bytes / self._bandwidth
            self._next_free = start + transmission
            flight += (start - now) + transmission
        deliver_at = now + flight
        if deliver_at < self._last_delivery:
            # Preserve FIFO order on the pair.
            deliver_at = self._last_delivery
            stats.reordering_clamps += 1
        self._last_delivery = deliver_at
        stamped = message.stamped(now, deliver_at, in_place=_owned)
        stats.messages += 1
        stats.bytes += stamped.total_bytes
        stats.total_latency += deliver_at - now
        # The delay needs no second check: ``deliver_at >= now`` by the sum
        # of non-negative terms and the clamp above.  It stays the difference
        # (the calendar then holds ``now + (deliver_at - now)``, as ever).
        return Timeout(sim, deliver_at - now, stamped, _DELIVER[stamped.kind]), stamped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Channel P{self.source}->P{self.destination} hops={self._hops} "
            f"messages={self.stats.messages}>"
        )
