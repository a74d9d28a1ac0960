"""The clock-transport layer: how causal clocks travel with verbs traffic.

The paper's Algorithm 5 moves clocks with an explicit CLOCK_FETCH /
CLOCK_UPDATE round trip per instrumented remote access; Section V-B alludes
to an optimized implementation in which the clocks ride on the data messages
themselves.  This module makes that choice a first-class, per-run policy
shared by *every* verbs path — one-sided puts/gets/atomics and two-sided
SEND/RECV alike — instead of a per-call-site accident:

``"roundtrip"`` (the paper's literal Algorithm 5, the default)
    Every instrumented remote access charges one CLOCK_FETCH + CLOCK_UPDATE
    pair on the fabric; an access to the rank's own memory sends nothing.

``"piggyback"`` (the optimized implementation)
    No clock message ever crosses the fabric on its own.  Data messages grow
    by one vector clock (``world_size * BYTES_PER_ENTRY`` bytes, stamped
    into :attr:`~repro.net.message.Message.carried_clock` so the payload is
    inspectable), and the per-queue-pair drain *batches* the origin-side
    clock joins: each completion carries the join of every datum clock the
    drain has serviced so far on that queue pair, so a burst of posts
    retired together costs one clock merge per drain — not one per access.
    Batching is sound because requests on one queue pair complete in order
    (the RC guarantee): retiring a later completion proves every earlier
    operation on that queue pair has taken effect.

The two modes share the same post-time snapshots, the same carried-clock
detector checks and the same retirement joins, and differ in what traffic
the fabric sees and how many joins the origin performs.  Fewer messages
means different timing, so the two modes may run different executions of a
timing-dependent program: uncontrolled, ``stencil-no-barriers`` flags
``halo2`` only under piggyback.  Each execution is judged by the same check,
which ``tests/detectors/test_knob_promise.py`` holds online against
post-mortem replay.  The benchmarks (``benchmarks/bench_clock_transport.py``)
pin down the strictly-fewer-messages claim.

Orthogonal to *how* clocks travel is *what they cost on the wire* — the
``clock_wire`` knob.  A full vector clock is ``world_size × 8`` bytes, which
makes the piggyback transport linear in world size per data message.  The
wire-format layer (:class:`ClockWireEncoder` / :class:`ClockWireDecoder`)
compresses each directed channel's clock stream:

``"full"`` (the default)
    Every rider is the whole vector, ``world_size × BYTES_PER_ENTRY`` bytes —
    byte-identical to the pre-compression accounting.

``"delta"``
    Each rider encodes only the components that changed since the last clock
    sent on this ``(source, destination)`` channel, as ``(rank, increment)``
    pairs — the receiver reconstructs by applying the increments to its
    last-acknowledged view.  The channel's first clock, and any clock whose
    sparse encoding would not actually be smaller, travels as a tagged
    *full* frame instead (Singhal and Kshemkalyani's differential
    technique over FIFO channels).

``"truncated"``
    Like delta, but each changed component travels as its absolute value
    (``(rank, value)`` pairs) — simpler to apply, slightly larger entries,
    same full-frame rule.

All three formats decode to the *exact* clock — the transport round-trips
every frame through the decoder and verifies it against the frozen snapshot
before stamping, so a compressed run reports exactly the races of its
``"full"`` twin (property-tested in ``tests/net/test_clock_wire.py``; the
knob promise's P4).  The exception is a lossy UD fabric under piggyback: a
dropped sparse frame costs a resync round trip, which moves timing.  Both
ends of a channel's codec state advance in lockstep at send time, which is
sound here because the per-queue-pair RC transport delivers in order.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import add
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Sequence, Tuple

from repro.net.message import MessageKind
from repro.obs.metrics import MetricsRegistry, family_keys
from repro.obs.observability import Observability

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.clocks import VectorClock
    from repro.net.nic import NIC

#: Legal values of the ``clock_transport`` knob.
CLOCK_TRANSPORT_MODES = ("roundtrip", "piggyback")

#: Legal values of the ``clock_wire`` knob.
CLOCK_WIRE_FORMATS = ("full", "delta", "truncated")

#: Bytes per full vector-clock entry on the wire, and per entry of a clock
#: held in storage (``repro.analysis.overhead``).
BYTES_PER_ENTRY = 8
#: One-byte frame tag discriminating sparse frames from full frames.  The
#: plain ``"full"`` format is untagged (the legacy wire layout), so choosing
#: ``clock_wire="full"`` is byte-identical to the pre-compression accounting.
WIRE_TAG_BYTES = 1
#: One-byte changed-entry count in a sparse frame.
WIRE_COUNT_BYTES = 1
#: The most changed entries one sparse frame can count; a clock with more
#: travels as a full frame.
MAX_SPARSE_ENTRIES = 2 ** (8 * WIRE_COUNT_BYTES) - 1
#: Bytes naming the rank of one sparse entry.
WIRE_RANK_BYTES = 2
#: Bytes for one delta increment (small by construction: the change since
#: the previous message on the same channel).
WIRE_DELTA_BYTES = 4


def validate_clock_transport(mode: str) -> str:
    """Return *mode* if legal, raise ``ValueError`` otherwise."""
    if mode not in CLOCK_TRANSPORT_MODES:
        raise ValueError(
            f"clock_transport must be one of {CLOCK_TRANSPORT_MODES}, got {mode!r}"
        )
    return mode


def validate_clock_wire(wire_format: str) -> str:
    """Return *wire_format* if legal, raise ``ValueError`` otherwise."""
    if wire_format not in CLOCK_WIRE_FORMATS:
        raise ValueError(
            f"clock_wire must be one of {CLOCK_WIRE_FORMATS}, got {wire_format!r}"
        )
    return wire_format


@dataclass(frozen=True)
class ClockWireFrame:
    """One encoded clock as it would travel on a directed channel.

    ``entries`` is the absolute clock for full frames and a tuple of
    ``(rank, increment)`` (delta) or ``(rank, value)`` (truncated) pairs for
    sparse frames.  ``wire_bytes`` is the modelled wire size, already
    including tag and count headers.
    """

    wire_format: str
    full: bool
    entries: Tuple
    wire_bytes: int


class ClockWireEncoder:
    """Sender half of one directed channel's clock compression.

    Tracks the last clock sent on the channel; :meth:`encode` emits either a
    sparse frame covering the components that changed since then, or a
    tagged full frame — on the channel's first message, and whenever the
    sparse frame would not pay (it would cost at least a full one, or its
    changed-entry count would not fit the :data:`WIRE_COUNT_BYTES` count).
    No other frame is full: both halves advance in lockstep, so a periodic
    full frame would leave the same state behind as the sparse one and only
    cost more.
    """

    def __init__(self, world_size: int, wire_format: str) -> None:
        if world_size <= 0:
            raise ValueError(f"world_size must be positive, got {world_size}")
        self.world_size = world_size
        self.wire_format = validate_clock_wire(wire_format)
        self._last_sent: Optional[List[int]] = None

    def _full_frame(self, clock: Tuple[int, ...], tagged: bool) -> ClockWireFrame:
        return ClockWireFrame(
            self.wire_format,
            True,
            clock,
            (WIRE_TAG_BYTES if tagged else 0) + self.world_size * BYTES_PER_ENTRY,
        )

    def encode(self, clock) -> ClockWireFrame:
        """Encode one clock (any int sequence of length ``world_size``).

        The entries are normalised to a tuple of Python ints first, so a
        list, a NumPy array or a tuple of NumPy integers all encode alike;
        ``map(int, ...)`` enters no Python frame, so the transport's rider,
        already frozen to Python ints, costs one C-level pass here.
        """
        entries = tuple(map(int, clock))
        if len(entries) != self.world_size:
            raise ValueError(
                f"clock has {len(entries)} entries, channel covers "
                f"{self.world_size} ranks"
            )
        if self.wire_format == "full":
            # The legacy untagged layout.
            return self._full_frame(entries, tagged=False)
        last_sent, self._last_sent = self._last_sent, list(entries)
        if last_sent is not None:
            changed = [
                (rank, value - last_sent[rank])
                if self.wire_format == "delta"
                else (rank, value)
                for rank, value in enumerate(entries)
                if value != last_sent[rank]
            ]
            entry_cost = WIRE_RANK_BYTES + (
                WIRE_DELTA_BYTES if self.wire_format == "delta" else BYTES_PER_ENTRY
            )
            sparse_bytes = (
                WIRE_TAG_BYTES + WIRE_COUNT_BYTES + len(changed) * entry_cost
            )
            full_bytes = WIRE_TAG_BYTES + self.world_size * BYTES_PER_ENTRY
            if len(changed) <= MAX_SPARSE_ENTRIES and sparse_bytes < full_bytes:
                return ClockWireFrame(
                    self.wire_format, False, tuple(changed), sparse_bytes
                )
        # First contact, or the sparse frame would not pay.
        return self._full_frame(entries, tagged=True)


class ClockWireDecoder:
    """Receiver half of one directed channel's clock compression.

    Reconstructs the exact clock from the frame stream: full frames replace
    the channel view, sparse frames patch it.  A sparse frame before any
    full frame is a protocol violation (the encoder always opens with a
    full frame) and raises.
    """

    def __init__(self, world_size: int, wire_format: str) -> None:
        self.world_size = world_size
        self.wire_format = validate_clock_wire(wire_format)
        self._view: Optional[List[int]] = None

    def decode(self, frame: ClockWireFrame) -> Tuple[int, ...]:
        """Apply one frame; returns the reconstructed absolute clock."""
        if frame.wire_format != self.wire_format:
            raise ValueError(
                f"frame format {frame.wire_format!r} on a "
                f"{self.wire_format!r} channel"
            )
        if frame.full:
            self._view = list(frame.entries)
        elif self._view is None:
            raise ValueError(
                "sparse clock frame received before any full frame"
            )
        else:
            for rank, value in frame.entries:
                if self.wire_format == "delta":
                    self._view[rank] += value
                else:
                    self._view[rank] = value
        return tuple(self._view)


#: The clock-transport accounting fields, in reporting order.  Field
#: semantics (docstrings live on :class:`ClockTransportStats`):
#: ``round_trips`` — CLOCK_FETCH/CLOCK_UPDATE pairs charged on the fabric;
#: ``piggybacked_messages``/``piggybacked_bytes`` — data messages carrying a
#: clock rider and the rider bytes; ``joins_performed``/``joins_elided`` —
#: origin-side retirement joins done vs skipped thanks to batching;
#: ``wire_frames_full``/``wire_frames_sparse`` — full vs compressed clock
#: frames; ``wire_bytes_saved`` — bytes the wire format saved vs full
#: clocks; ``completion_events``/``completions_coalesced`` — CQEs delivered
#: and completions that shared one; ``completion_clock_bytes`` — clock bytes
#: riding on completion events.
#: The ``ud_*`` family accounts the unreliable transport:
#: ``ud_datagrams`` — sequenced datagrams sent (retransmissions included);
#: ``ud_dropped`` — datagrams the fabric lost; ``ud_retransmits`` —
#: re-sends after a drop timer; ``ud_duplicates`` — spurious second
#: arrivals absorbed idempotently; ``ud_resyncs`` — receiver-driven resync
#: round trips completed; ``ud_resync_requests`` — UD_RESYNC_REQUEST
#: messages issued (re-requests after a lost request/reply included).
CLOCK_TRANSPORT_FIELDS = (
    "round_trips",
    "piggybacked_messages",
    "piggybacked_bytes",
    "joins_performed",
    "joins_elided",
    "wire_frames_full",
    "wire_frames_sparse",
    "wire_bytes_saved",
    "completion_events",
    "completions_coalesced",
    "completion_clock_bytes",
    "ud_datagrams",
    "ud_dropped",
    "ud_retransmits",
    "ud_duplicates",
    "ud_resyncs",
    "ud_resync_requests",
)

#: The fields' counter names, in field order.
_COUNTER_NAMES = tuple(f"clock_transport.{name}" for name in CLOCK_TRANSPORT_FIELDS)

#: Each field's index into ``ClockTransportStats._row``.  Every write in
#: the package increments ``stats._row[INDEX]`` in place (the transport
#: here, the UD datagram path in :mod:`repro.net.nic`); the views are the
#: read API and enter a Python frame per access.
ROUND_TRIPS = CLOCK_TRANSPORT_FIELDS.index("round_trips")
PIGGYBACKED_MESSAGES = CLOCK_TRANSPORT_FIELDS.index("piggybacked_messages")
PIGGYBACKED_BYTES = CLOCK_TRANSPORT_FIELDS.index("piggybacked_bytes")
JOINS_PERFORMED = CLOCK_TRANSPORT_FIELDS.index("joins_performed")
JOINS_ELIDED = CLOCK_TRANSPORT_FIELDS.index("joins_elided")
WIRE_FRAMES_FULL = CLOCK_TRANSPORT_FIELDS.index("wire_frames_full")
WIRE_FRAMES_SPARSE = CLOCK_TRANSPORT_FIELDS.index("wire_frames_sparse")
WIRE_BYTES_SAVED = CLOCK_TRANSPORT_FIELDS.index("wire_bytes_saved")
COMPLETION_EVENTS = CLOCK_TRANSPORT_FIELDS.index("completion_events")
COMPLETIONS_COALESCED = CLOCK_TRANSPORT_FIELDS.index("completions_coalesced")
COMPLETION_CLOCK_BYTES = CLOCK_TRANSPORT_FIELDS.index("completion_clock_bytes")
UD_DATAGRAMS = CLOCK_TRANSPORT_FIELDS.index("ud_datagrams")
UD_DROPPED = CLOCK_TRANSPORT_FIELDS.index("ud_dropped")
UD_RETRANSMITS = CLOCK_TRANSPORT_FIELDS.index("ud_retransmits")
UD_DUPLICATES = CLOCK_TRANSPORT_FIELDS.index("ud_duplicates")
UD_RESYNCS = CLOCK_TRANSPORT_FIELDS.index("ud_resyncs")
UD_RESYNC_REQUESTS = CLOCK_TRANSPORT_FIELDS.index("ud_resync_requests")


def _transport_field(name: str) -> property:
    """A field of :class:`ClockTransportStats`: one slot of its row.

    Each field is a getter/setter pair over the slot: the read API, which a
    bare total (or a test) may also write through (``total.round_trips +=
    1``).  The package's own tallies increment the slot by index instead
    (:data:`ROUND_TRIPS`, ...).
    """
    index = CLOCK_TRANSPORT_FIELDS.index(name)

    def getter(self: "ClockTransportStats") -> int:
        return self._row[index]

    def setter(self: "ClockTransportStats", value: int) -> None:
        self._row[index] = value

    return property(getter, setter, doc=f"Registry-backed ``{name}`` count.")


class ClockTransportStats:
    """Per-rank accounting of how clocks moved during one run.

    A *view* over the metrics registry: every field is a slot of the
    ``clock_transport.<field>`` counter family's row (labelled
    ``rank=<rank>`` when owned by a NIC's transport), so
    ``RunResult.metrics`` and this object can never disagree.  Constructed
    bare — e.g. for whole-machine totals built with :meth:`merge` — it owns
    a private row.
    """

    __slots__ = ("_row",)

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        rank: Optional[int] = None,
    ) -> None:
        #: One count per field, in :data:`CLOCK_TRANSPORT_FIELDS` order.
        if registry is None:
            self._row = [0] * len(CLOCK_TRANSPORT_FIELDS)
        else:
            labels = {} if rank is None else {"rank": rank}
            self._row = registry.counter_family(family_keys(_COUNTER_NAMES, **labels))

    round_trips = _transport_field("round_trips")
    piggybacked_messages = _transport_field("piggybacked_messages")
    piggybacked_bytes = _transport_field("piggybacked_bytes")
    joins_performed = _transport_field("joins_performed")
    joins_elided = _transport_field("joins_elided")
    wire_frames_full = _transport_field("wire_frames_full")
    wire_frames_sparse = _transport_field("wire_frames_sparse")
    wire_bytes_saved = _transport_field("wire_bytes_saved")
    completion_events = _transport_field("completion_events")
    completions_coalesced = _transport_field("completions_coalesced")
    completion_clock_bytes = _transport_field("completion_clock_bytes")
    ud_datagrams = _transport_field("ud_datagrams")
    ud_dropped = _transport_field("ud_dropped")
    ud_retransmits = _transport_field("ud_retransmits")
    ud_duplicates = _transport_field("ud_duplicates")
    ud_resyncs = _transport_field("ud_resyncs")
    ud_resync_requests = _transport_field("ud_resync_requests")

    def merge(self, other: "ClockTransportStats") -> "ClockTransportStats":
        """Accumulate *other* into this record (whole-machine totals)."""
        self._row[:] = map(add, self._row, other._row)
        return self

    def as_dict(self) -> Dict[str, int]:
        """Flat dictionary for reports and the benchmark JSON."""
        return dict(zip(CLOCK_TRANSPORT_FIELDS, self._row))

    @staticmethod
    def summed(views: Sequence["ClockTransportStats"]) -> Dict[str, int]:
        """:meth:`as_dict` of *views* merged, without building the merged record."""
        rows = [view._row for view in views]
        return dict(zip(CLOCK_TRANSPORT_FIELDS, map(sum, zip(*rows))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClockTransportStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {k: v for k, v in self.as_dict().items() if v}
        return f"ClockTransportStats({nonzero})"


class ClockTransport:
    """One rank's clock-movement policy, consulted by NIC and verbs layers.

    The mode and wire format are read from the owning NIC's config (the
    runtime's frozen ``RuntimeConfig``) on every decision — that is what lets
    ``DSMRuntime.set_knob("clock_transport", mode)`` switch an already-built
    runtime before it runs (the campaign runner's configure hook).  The
    runtime validated them when it stored them, so they are read unchecked.
    """

    def __init__(self, nic: "NIC") -> None:
        # Held weakly: the NIC owns its transport, and a strong reference
        # back would leave every finished run to the cyclic collector.
        self._owner = weakref.ref(nic)
        self.stats = ClockTransportStats(
            registry=Observability.of(nic._sim).metrics, rank=nic.rank
        )
        #: Per-destination codec state for clocks *this rank sends*: both
        #: halves advance in lockstep at send time (sound under the RC
        #: in-order delivery of each queue pair's channel).
        self._encoders: Dict[int, ClockWireEncoder] = {}
        self._decoders: Dict[int, ClockWireDecoder] = {}

    @property
    def piggyback(self) -> bool:
        """True when clocks ride on the data messages."""
        return self._owner().config.clock_transport == "piggyback"

    # -- wire format (per-destination codecs) ----------------------------------------

    def _codec(
        self, nic: "NIC", destination: int
    ) -> Tuple[ClockWireEncoder, ClockWireDecoder]:
        # A channel's codec is built at its first clock, which is sent
        # during the run, after the last ``set_knob``: the format is final.
        encoder = self._encoders.get(destination)
        if encoder is None:
            wire_format = nic.config.clock_wire
            encoder = ClockWireEncoder(nic.detector.world_size, wire_format)
            self._encoders[destination] = encoder
            self._decoders[destination] = ClockWireDecoder(
                encoder.world_size, wire_format
            )
        return encoder, self._decoders[destination]

    def encode_frame(self, frozen: Tuple[int, ...], destination: int) -> ClockWireFrame:
        """Run one clock through *destination*'s channel codec; returns the frame.

        *frozen* is the clock as a tuple of ``world_size`` Python ints
        (:meth:`VectorClock.frozen`), normalised once by the caller.  The
        frame is immediately decoded and verified against it — the
        exact-clock guarantee: whatever the wire format, the clock the
        receiver reconstructs is the exact snapshot the detector checks
        with.
        """
        nic = self._owner()
        encoder, decoder = self._codec(nic, destination)
        frame = encoder.encode(frozen)
        decoded = decoder.decode(frame)
        if decoded != frozen:
            raise RuntimeError(
                f"clock wire codec corrupted a clock on channel "
                f"P{nic.rank}->P{destination}: {frozen} decoded as {decoded}"
            )
        row = self.stats._row
        row[WIRE_FRAMES_FULL if frame.full else WIRE_FRAMES_SPARSE] += 1
        row[WIRE_BYTES_SAVED] += max(
            0, nic._clock_bytes() - frame.wire_bytes
        )
        return frame

    def encode_clock(self, frozen: Tuple[int, ...], destination: int) -> int:
        """Like :meth:`encode_frame`, returning only the wire byte count."""
        return self.encode_frame(frozen, destination).wire_bytes

    # -- wire traffic --------------------------------------------------------------

    def ride_frame(
        self, clock, destination: int
    ) -> Tuple[Optional[tuple], int, Optional[str]]:
        """Stamp a clock rider onto one message bound for *destination*.

        Returns ``(frozen_clock_or_None, clock_wire_bytes, frame_shape)``:
        the frozen snapshot to put in
        :attr:`~repro.net.message.Message.carried_clock` (``None`` when no
        clock rides this message), the clock's share of ``payload_bytes``,
        and the frame's wire shape.  Under the piggyback transport the
        rider is encoded through the channel's wire-format codec — ``full``
        costs the whole vector, ``delta``/``truncated`` cost only the
        components that changed since the channel's last clock (or a full
        frame when that would not pay).  Under roundtrip no clock rides:
        :meth:`round_trip` sends it on its own.

        The shape is ``"full"`` (self-contained frame), ``"sparse"``
        (sequence-dependent patch) or ``None`` (no frame rode).  The UD
        transport stamps it into :attr:`Message.ud_frame` so the receiver
        can tell whether a gapped datagram needs a resync before its clock
        could have been reconstructed from the wire; RC ignores it.
        """
        # No property chain here: the owner is fetched once and its config
        # and detector read directly (``_active``, ``mode``, ``piggyback``
        # were five frames per message).
        nic = self._owner()
        detector = nic.detector
        if detector is None:
            return None, 0, None
        if nic.config.clock_transport != "piggyback" or clock is None:
            return None, 0, None
        # The one normalisation of this rider: the verification
        # compares the decoded clock with the frozen tuple as is.
        frozen = (
            clock.frozen() if hasattr(clock, "frozen") else tuple(map(int, clock))
        )
        frame = self.encode_frame(frozen, destination)
        row = self.stats._row
        row[PIGGYBACKED_MESSAGES] += 1
        row[PIGGYBACKED_BYTES] += frame.wire_bytes
        return frozen, frame.wire_bytes, ("full" if frame.full else "sparse")

    def round_trip(self, target_rank: int, tag: str) -> Generator:
        """Charge Algorithm 5's CLOCK_FETCH/CLOCK_UPDATE pair, when owed.

        A generator driven by the simulation kernel; returns the number of
        control messages sent: 2 for a remote access under roundtrip, 0 in
        piggyback mode (the clock already rode on the data message) and for
        an own-rank access.  Under a compressed wire format the update
        payload travels through the *target's* channel codec — the update is
        the target's message — so Algorithm 5's dedicated clock traffic also
        shrinks.
        """
        nic = self._owner()  # once, and no property chain: see ride_frame
        config, detector = nic.config, nic.detector
        if detector is None:
            return 0
        if config.clock_transport == "piggyback" or target_rank == nic.rank:
            return 0
        sync_started = nic._sim._now
        fetch, _ = nic.fabric.send(
            MessageKind.CLOCK_FETCH, nic.rank, target_rank,
            payload_bytes=0, operation_tag=tag,
        )
        yield fetch
        if config.clock_wire == "full":
            update_bytes = nic._clock_bytes()
        else:
            target_transport = nic.peer(target_rank).clock_transport
            update_bytes = target_transport.encode_clock(
                nic.detector.current_clock(target_rank).frozen(),
                nic.rank,
            )
        reply, _ = nic.fabric.send(
            MessageKind.CLOCK_UPDATE, target_rank, nic.rank,
            payload_bytes=update_bytes, operation_tag=tag,
        )
        yield reply
        self.stats._row[ROUND_TRIPS] += 1
        spans = nic._obs.spans
        if spans.enabled:
            spans.complete(
                nic.engine_track, "clock_sync", sync_started,
                nic._sim._now, target=f"P{target_rank}",
                update_bytes=update_bytes,
            )
        return 2

    # -- retirement joins and completion events ------------------------------------------

    def note_join(self, performed: bool) -> None:
        """Book one completion retirement: a join done, or elided by batching."""
        self.stats._row[JOINS_PERFORMED if performed else JOINS_ELIDED] += 1

    def note_completion_event(self, completions: int, carries_clock: bool) -> None:
        """Book one CQE delivery covering *completions* work completions.

        Uncoalesced delivery books one event per completion; CQ moderation
        books one event per drain burst, so the clock the event carries — the
        batched retirement join, charged here at full vector size — is paid
        once per burst instead of once per completion.
        """
        row = self.stats._row
        row[COMPLETION_EVENTS] += 1
        row[COMPLETIONS_COALESCED] += max(0, completions - 1)
        if carries_clock:
            row[COMPLETION_CLOCK_BYTES] += self._owner()._clock_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nic = self._owner()
        return f"<ClockTransport P{nic.rank} mode={nic.config.clock_transport}>"
