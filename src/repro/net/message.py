"""Typed network messages.

Each remote operation decomposes into one or more messages, exactly as the
paper describes (Section III-B): a ``put`` sends one PUT_DATA message; a
``get`` sends a GET_REQUEST and receives a GET_REPLY.  Lock management and
clock maintenance generate additional *control* messages, which are accounted
separately so that the overhead benchmarks can report "extra messages due to
detection" without conflating them with the data traffic the application would
generate anyway.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


class MessageKind(enum.Enum):
    """The role a message plays in a remote operation."""

    PUT_DATA = "put_data"          # the single message of a put (paper, Fig. 2)
    GET_REQUEST = "get_request"    # first message of a get
    GET_REPLY = "get_reply"        # second message of a get (carries the data)
    ATOMIC_REQUEST = "atomic_request"  # one-sided atomic: opcode + operands
    ATOMIC_REPLY = "atomic_reply"      # one-sided atomic: the prior value
    SEND_REQUEST = "send_request"  # two-sided SEND: the gathered payload, matched
    #                                against a posted receive at the target
    LOCK_REQUEST = "lock_request"  # NIC lock acquisition
    LOCK_GRANT = "lock_grant"
    UNLOCK = "unlock"
    CLOCK_FETCH = "clock_fetch"    # detection: read a remote datum clock (Alg. 5)
    CLOCK_UPDATE = "clock_update"  # detection: write back a merged clock (Alg. 5)
    UD_RESYNC_REQUEST = "ud_resync_request"  # UD: receiver asks for a full frame
    #                                          after a sequence gap
    UD_RESYNC_FULL = "ud_resync_full"        # UD: sender answers with the tagged
    #                                          full clock frame for that sequence
    NOTIFY = "notify"              # runtime-level notification (barrier, join)

    # ``Enum.__hash__`` is a Python function, entered for every
    # ``dict[MessageKind]`` lookup on the per-message path.  Members are
    # singletons (also through a pickle) and compare by identity, so the C
    # identity hash is the same relation; nothing orders or persists hashes.
    __hash__ = object.__hash__

    @property
    def is_data(self) -> bool:
        """True for the messages that move application data (Fig. 2 count)."""
        return self in (
            MessageKind.PUT_DATA,
            MessageKind.GET_REQUEST,
            MessageKind.GET_REPLY,
            MessageKind.ATOMIC_REQUEST,
            MessageKind.ATOMIC_REPLY,
            MessageKind.SEND_REQUEST,
        )

    @property
    def is_detection(self) -> bool:
        """True for messages that exist only because detection is enabled."""
        return self in (
            MessageKind.CLOCK_FETCH,
            MessageKind.CLOCK_UPDATE,
            MessageKind.UD_RESYNC_REQUEST,
            MessageKind.UD_RESYNC_FULL,
        )

    @property
    def is_lock(self) -> bool:
        """True for lock-management traffic."""
        return self in (MessageKind.LOCK_REQUEST, MessageKind.LOCK_GRANT, MessageKind.UNLOCK)


#: Default payload size, in bytes, of one memory cell's value.
DEFAULT_CELL_BYTES = 8
#: Size of a message header (addresses, opcodes) in bytes.
HEADER_BYTES = 32


@dataclass(frozen=True)
class Message:
    """One message on the interconnect.

    Attributes
    ----------
    message_id:
        Unique id assigned by the fabric.
    kind:
        Role of the message (see :class:`MessageKind`).
    source / destination:
        Origin and target ranks.
    payload:
        Arbitrary payload (a value, a clock, a lock token...).
    payload_bytes:
        Modelled size of the payload, used by bandwidth-aware latency models
        and the byte counters.
    send_time / deliver_time:
        Simulated times at which the message left the source NIC and reached
        the destination NIC.
    operation_tag:
        Identifier of the high-level operation (put/get) this message belongs
        to, for trace correlation.
    carried_clock:
        The vector clock piggybacked on this message, as a frozen tuple —
        set only under the ``"piggyback"`` clock transport, where the causal
        clock rides on the data/atomic message itself instead of a dedicated
        CLOCK_FETCH/CLOCK_UPDATE round trip.  ``payload_bytes`` already
        includes its wire size when present.
    clock_wire_bytes:
        The clock rider's exact share of ``payload_bytes``, as sized by the
        active ``clock_wire`` format (full vector, or a delta/truncated
        sparse frame against the channel's last-acknowledged view).  Zero
        when no clock rides this message.
    ud_seq:
        Under the ``"ud"`` transport, the per-(source, destination) sequence
        number of this datagram (1-based).  ``None`` on RC messages and on
        out-of-band UD traffic (resync requests/replies).
    ud_frame:
        ``"full"`` or ``"sparse"`` — whether the datagram's clock rider is a
        self-contained full frame or a sequence-dependent sparse frame
        (``None`` when no frame rides).  Receivers use it to decide whether
        a gapped datagram needs a resync before its clock can be trusted.
    """

    message_id: int
    kind: MessageKind
    source: int
    destination: int
    payload: Any = None
    payload_bytes: int = DEFAULT_CELL_BYTES
    send_time: float = 0.0
    deliver_time: float = 0.0
    operation_tag: Optional[str] = None
    carried_clock: Optional[tuple] = None
    clock_wire_bytes: int = 0
    ud_seq: Optional[int] = None
    ud_frame: Optional[str] = None

    @property
    def total_bytes(self) -> int:
        """Header plus payload size."""
        payload_bytes = self.payload_bytes
        return HEADER_BYTES + (payload_bytes if payload_bytes > 0 else 0)

    @property
    def latency(self) -> float:
        """Flight time of the message."""
        return self.deliver_time - self.send_time

    def stamped(self, send_time: float, deliver_time: float) -> "Message":
        """A copy of this message with its flight times filled in.

        The one copying stamp of the channels (a transmission of a message
        the fabric did not build for it, and the UD drop path): the fields
        travel as a whole, so a new one cannot be left behind, and a
        ``Message`` stays immutable to whoever holds it.  A message the
        fabric has just built and handed to nobody is stamped in place by
        :meth:`~repro.net.channel.Channel.transmit` instead.
        """
        message = object.__new__(type(self))
        fields = message.__dict__
        fields.update(self.__dict__)
        fields["send_time"] = send_time
        fields["deliver_time"] = deliver_time
        return message

    def __str__(self) -> str:
        return (
            f"{self.kind.value} #{self.message_id} P{self.source}->P{self.destination} "
            f"({self.total_bytes}B, t={self.send_time:g}->{self.deliver_time:g})"
        )
