"""The interconnect fabric: routing, channels and global accounting.

The fabric owns one :class:`~repro.net.channel.Channel` per ordered pair of
ranks (created lazily), stamps message ids, and keeps the global counters the
overhead experiments read: data messages vs lock messages vs detection
messages, and bytes for each category.  It is deliberately passive — NICs call
:meth:`Fabric.send` and yield the returned event; the fabric never invokes
application code.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, Tuple

from repro.net.channel import Channel
from repro.net.latency import LatencyModel
from repro.net.message import HEADER_BYTES, Message, MessageKind
from repro.net.topology import Topology
from repro.net.ud_transport import UD_RETRANSMIT_TIMEOUT
from repro.obs.metrics import MetricsRegistry, define_family
from repro.obs.observability import Observability
from repro.sim.engine import Simulator
from repro.sim.events import Event, Timeout

#: The traffic categories FabricStats splits counts by.
_CATEGORIES = ("data", "lock", "detection", "other")

#: Each kind's category, read once off the ``MessageKind`` predicates.
_CATEGORY_OF = {
    kind: "data" if kind.is_data
    else "lock" if kind.is_lock
    else "detection" if kind.is_detection
    else "other"
    for kind in MessageKind
}

#: The registry keys of FabricStats' counter family: messages per category,
#: bytes per category, messages per kind.
_FAMILY = define_family(
    (name, ((label, value),))
    for name, label, values in (
        ("fabric.messages", "category", _CATEGORIES),
        ("fabric.bytes", "category", _CATEGORIES),
        ("fabric.messages_by_kind", "kind", [kind.value for kind in MessageKind]),
    )
    for value in values
)

#: Where each block of the family starts in a FabricStats row.
_MESSAGES, _BYTES, _BY_KIND = 0, len(_CATEGORIES), 2 * len(_CATEGORIES)

#: kind -> the row indices one message of that kind increments: the
#: fabric's one accounting rule.  ``Fabric.send`` and ``send_datagram`` book
#: a message in their own frame — its category's messages by one, its
#: category's bytes by ``total_bytes``, its kind's messages by one.
_INDICES = {
    kind: (
        _MESSAGES + _CATEGORIES.index(category),
        _BYTES + _CATEGORIES.index(category),
        _BY_KIND + position,
    )
    for position, (kind, category) in enumerate(_CATEGORY_OF.items())
}


def _stat(index: int) -> property:
    """A read-only FabricStats field: one slot of its row."""
    return property(lambda self: self._row[index])


#: Loopback delivery-event names, one constant per kind.
_LOCAL = {kind: f"local:{kind.value}" for kind in MessageKind}


class FabricStats:
    """Message/byte counters split by traffic category.

    A *view* over the metrics registry: the numbers live in the row of the
    ``fabric.messages{category=...}`` / ``fabric.bytes{category=...}`` /
    ``fabric.messages_by_kind{kind=...}`` counter family, and the historical
    attribute surface (``data_messages``, ``detection_bytes``, ...) reads
    straight through to it — one source of truth whichever spelling a caller
    uses.  Constructed without a registry (tests, ad-hoc accounting) it owns
    a private row.
    """

    __slots__ = ("_row",)

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._row = (
            [0] * len(_FAMILY) if registry is None else registry.counter_family(_FAMILY)
        )

    # -- the historical attribute surface ------------------------------------------

    data_messages = _stat(_MESSAGES + _CATEGORIES.index("data"))
    lock_messages = _stat(_MESSAGES + _CATEGORIES.index("lock"))
    detection_messages = _stat(_MESSAGES + _CATEGORIES.index("detection"))
    other_messages = _stat(_MESSAGES + _CATEGORIES.index("other"))
    data_bytes = _stat(_BYTES + _CATEGORIES.index("data"))
    lock_bytes = _stat(_BYTES + _CATEGORIES.index("lock"))
    detection_bytes = _stat(_BYTES + _CATEGORIES.index("detection"))
    other_bytes = _stat(_BYTES + _CATEGORIES.index("other"))

    @property
    def total_messages(self) -> int:
        """All messages that crossed the fabric."""
        return sum(self._row[_MESSAGES:_BYTES])

    @property
    def total_bytes(self) -> int:
        """All bytes that crossed the fabric."""
        return sum(self._row[_BYTES:_BY_KIND])

    def message_count_for_kind(self, kind: MessageKind) -> int:
        """Messages sent with exactly *kind* (finer than the categories)."""
        return self._row[_INDICES[kind][2]]

    def reset(self) -> None:
        """Zero every counter in place (the row's identity survives)."""
        self._row[:] = [0] * len(self._row)

    def as_dict(self) -> Dict[str, int]:
        """Flat dictionary used by the reporting helpers."""
        return {
            "data_messages": self.data_messages,
            "lock_messages": self.lock_messages,
            "detection_messages": self.detection_messages,
            "other_messages": self.other_messages,
            "total_messages": self.total_messages,
            "data_bytes": self.data_bytes,
            "lock_bytes": self.lock_bytes,
            "detection_bytes": self.detection_bytes,
            "other_bytes": self.other_bytes,
            "total_bytes": self.total_bytes,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FabricStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FabricStats(messages={self.total_messages}, "
            f"bytes={self.total_bytes})"
        )


class Fabric:
    """Routes messages between ranks over a topology with a latency model."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        latency_model: LatencyModel,
    ) -> None:
        self._sim = sim
        self._topology = topology
        #: Fixed by the topology once; read here without its property frame.
        self._world_size = topology.world_size
        self._latency_model = latency_model
        self._channels: Dict[Tuple[int, int], Channel] = {}
        self._next_id = itertools.count().__next__  # message ids, 0-based
        self.stats = FabricStats(registry=Observability.of(sim).metrics)

    # -- wiring ----------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The physical topology in use."""
        return self._topology

    @property
    def world_size(self) -> int:
        """Number of ranks on the fabric."""
        return self._world_size

    @property
    def latency_model(self) -> LatencyModel:
        """The latency model applied to every message."""
        return self._latency_model

    def channel(self, source: int, destination: int) -> Channel:
        """Return (creating lazily) the pair's one channel."""
        channel = self._channels.get((source, destination))
        if channel is None or type(source) is not int or type(destination) is not int:
            channel = self._open(source, destination)
        return channel

    def _open(self, source: int, destination: int) -> Channel:
        """Validate the pair, then return (building on a miss) its channel.

        The lookups skip this for a cached pair — it was range-checked
        when its channel was built — unless an argument is not an exact
        ``int``: keys that merely hash alike (``True``, ``1.0``, NumPy ints)
        must not alias a valid pair, so they come here for their ``TypeError``.
        :meth:`Topology.hops` is the pair's one check.
        """
        hops = self._topology.hops(source, destination)
        key = (source, destination)
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = Channel(
                self._sim, source, destination, self._latency_model, hops=hops
            )
        return channel

    # -- sending -----------------------------------------------------------------

    def send(
        self,
        kind: MessageKind,
        source: int,
        destination: int,
        payload: Any = None,
        payload_bytes: int = 8,
        operation_tag: Optional[str] = None,
        carried_clock: Optional[tuple] = None,
        clock_wire_bytes: int = 0,
    ) -> Tuple[Event, Message]:
        """Send one message; returns ``(delivery_event, stamped_message)``.

        Self-messages (``source == destination``) are delivered after zero
        simulated time, stamped ``(now, now)``, but still pass through the
        accounting — a local access to one's own public memory does not cross
        the wire, so callers should avoid sending them; the NIC short-circuits
        that case.  *carried_clock* is the piggybacked vector clock, stamped
        by the clock-transport layer in ``"piggyback"`` mode;
        *clock_wire_bytes* is its exact share of *payload_bytes* under the
        active ``clock_wire`` format.
        """
        # Frame budget: one message is three ``net`` frames — this one,
        # ``Channel.transmit`` and the latency model — and its accounting is
        # booked here.  So the message is filled here — the object
        # ``Message(**fields)`` builds, without the frozen ``__init__``'s
        # guarded assignments; the names are trusted — holding only the
        # fields that differ from their class default (the others read it),
        # and stamped for loopback (a channel restamps a remote one).  The
        # pair's channel is looked up first (what :meth:`channel` does; a miss
        # or a non-``int`` rank still goes through :meth:`_open` for its
        # checks, and a loopback pair is checked every time), so a rejected
        # pair draws no message id.
        if source == destination:
            self._topology.hops(source, destination)  # the pair's checks
            channel = None
        else:
            channel = self._channels.get((source, destination))
            if channel is None or type(source) is not int or type(destination) is not int:
                channel = self._open(source, destination)
        sim = self._sim
        now = sim._now
        message = object.__new__(Message)
        fields = message.__dict__
        fields.update({
            "message_id": self._next_id(),
            "kind": kind,
            "source": source,
            "destination": destination,
            "payload_bytes": payload_bytes,
            "send_time": now,
            "deliver_time": now,
            "operation_tag": operation_tag,
        })
        if payload is not None:
            fields["payload"] = payload
        if carried_clock is not None:
            fields["carried_clock"] = carried_clock
        if clock_wire_bytes:
            fields["clock_wire_bytes"] = clock_wire_bytes
        if channel is None:
            event = Timeout(sim, 0.0, message, _LOCAL[kind])
        else:
            # Built here and shared with nobody: stamped in place, not copied.
            event, message = channel.transmit(message, _owned=True)
        messages, byte_count, by_kind = _INDICES[kind]
        row = self.stats._row
        row[messages] += 1
        row[byte_count] += HEADER_BYTES + (payload_bytes if payload_bytes > 0 else 0)
        row[by_kind] += 1
        return event, message

    def send_datagram(
        self,
        kind: MessageKind,
        source: int,
        destination: int,
        payload: Any = None,
        payload_bytes: int = 8,
        operation_tag: Optional[str] = None,
        carried_clock: Optional[tuple] = None,
        clock_wire_bytes: int = 0,
        ud_seq: Optional[int] = None,
        ud_frame: Optional[str] = None,
    ) -> Tuple[Event, Message, str, Optional[Event]]:
        """Send one UD datagram; returns ``(event, stamped, fate, dup_event)``.

        The datagram's fate is a logged/replayable ``drop`` decision
        resolved by the installed schedule controller (no controller means
        every datagram delivers):

        * ``"deliver"`` — *event* is the delivery event (fired with the
          stamped message), exactly like :meth:`send`;
        * ``"drop"`` — the bytes left the sender and are accounted, but no
          delivery exists; *event* is the sender's retransmission timer,
          firing after :data:`~repro.net.ud_transport.UD_RETRANSMIT_TIMEOUT`;
        * ``"duplicate"`` — delivered, **and** *dup_event* fires a second
          arrival of the same stamped datagram one flight later.

        A delivered datagram crosses the pair's one channel like any message
        of :meth:`send` (FIFO clamp and controlled latency included).
        Self-datagrams never drop: loopback does not cross the fabric, and
        is stamped ``(now, now)`` like a self-message of :meth:`send`.  As
        there, the pair is checked before the datagram draws its id.
        """
        if source == destination:
            self._topology.hops(source, destination)  # the pair's checks
            channel = None
        else:
            channel = self.channel(source, destination)
        now = self._sim.now
        message = Message(
            self._next_id(), kind, source, destination, payload, payload_bytes,
            send_time=now, deliver_time=now,
            operation_tag=operation_tag, carried_clock=carried_clock,
            clock_wire_bytes=clock_wire_bytes, ud_seq=ud_seq, ud_frame=ud_frame,
        )
        duplicate = None
        if channel is None:
            event = self._sim.timeout(0.0, value=message, name=_LOCAL[kind])
            fate = "deliver"
        else:
            controller = self._sim.controller
            fate_code = 0
            if controller is not None:
                fate_code = controller.on_datagram_fate(message, source, destination)
            if fate_code == 1:
                event, message = channel.drop(message, UD_RETRANSMIT_TIMEOUT)
                fate = "drop"
            else:
                event, message = channel.transmit(message, _owned=True)
                fate = "deliver"
                if fate_code == 2:
                    fate = "duplicate"
                    duplicate = channel.duplicate(message)
        # Booked as :meth:`send` books it; a dropped datagram's bytes left too.
        messages, byte_count, by_kind = _INDICES[kind]
        row = self.stats._row
        row[messages] += 1
        row[byte_count] += message.total_bytes
        row[by_kind] += 1
        return event, message, fate, duplicate

    # -- accounting ----------------------------------------------------------------

    def message_count(self, kind: Optional[MessageKind] = None) -> int:
        """Total messages sent, optionally restricted to one kind."""
        if kind is None:
            return self.stats.total_messages
        return self.stats.message_count_for_kind(kind)

    def channels(self) -> Dict[Tuple[int, int], Channel]:
        """All channels created so far."""
        return dict(self._channels)

    def reset_stats(self) -> None:
        """Zero the counters (channels and ids are preserved)."""
        self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Fabric {self._topology.name} latency={self._latency_model.describe()} "
            f"messages={self.stats.total_messages}>"
        )
