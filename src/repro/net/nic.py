"""The RDMA network interface controller.

The NIC is where the paper's model and its detection algorithm meet the
hardware: one-sided operations are *initiated* by the origin process and
*serviced* entirely by the target's NIC, without any involvement of the target
process or its operating system (OS bypass, Section III-B).  Consequently all
of the following live in the NIC:

* the public-memory lock table (locks are "provided by the NIC", Section
  III-A) — a ``put`` on a datum is therefore delayed behind a ``get`` holding
  the lock, reproducing Figure 3;
* the message decomposition of Figure 2 — ``put`` sends one data message,
  ``get`` sends a request and receives a reply;
* the instrumentation hooks of Algorithms 1 and 2 — the race detector is
  invoked at the target memory, under the lock, when the operation takes
  effect, and the extra clock traffic of Algorithm 5 is routed through the
  :class:`~repro.net.clock_transport.ClockTransport` layer: explicit
  ``CLOCK_FETCH`` / ``CLOCK_UPDATE`` messages under the ``"roundtrip"``
  transport (so the overhead benchmarks can separate them from application
  traffic), or clocks piggybacked on the data messages themselves under
  ``"piggyback"`` (the optimized implementation of Section V-B).

Posted (verbs) operations hand every public method a *post-time clock
snapshot* (``clock_snapshot``): the NIC then performs the access on the
origin's behalf from the clock the message physically carried, instead of
ticking the origin's live clock at service time — the discipline that keeps
a posted-but-unwaited operation causally unordered with the origin's later
accesses, so the detector can see same-origin async races.

Every public method that performs communication is a *generator* meant to be
driven by the simulation kernel (``result = yield from nic.rdma_put(...)``),
so user programs remain ordinary sequential-looking code.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.clocks import VectorClock
from repro.core.detector import AccessCheckResult, DualClockRaceDetector
from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess
from repro.memory.locks import LockRequest, MemoryLockTable
from repro.memory.public import PublicMemory
from repro.net.clock_transport import (
    BYTES_PER_ENTRY,
    UD_DATAGRAMS,
    UD_DROPPED,
    UD_DUPLICATES,
    UD_RESYNC_REQUESTS,
    UD_RESYNCS,
    UD_RETRANSMITS,
    WIRE_TAG_BYTES,
    ClockTransport,
)
from repro.net.fabric import Fabric
from repro.net.message import DEFAULT_CELL_BYTES, MessageKind
from repro.net.ud_transport import UdDeliveryExceeded, UdEndpoint
from repro.obs.metrics import family_keys
from repro.obs.observability import Observability
from repro.sim.engine import Simulator
from repro.util.ids import IdAllocator
from repro.util.validation import require_rank, require_type

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import RuntimeConfig
    from repro.trace.recorder import TraceRecorder

#: The per-NIC issue/service tallies, each a ``nic.<name>{rank=...}`` counter
#: in the metrics registry (the overhead and scalability experiments read
#: them through the attribute surface below).
NIC_COUNTER_FIELDS = (
    "puts_issued",
    "gets_issued",
    "atomics_issued",
    "sends_issued",
    "local_reads",
    "local_writes",
    "remote_ops_serviced",
)

_NIC_COUNTER_NAMES = tuple(f"nic.{name}" for name in NIC_COUNTER_FIELDS)

#: Each tally's index into ``NIC._tallies``, the family's registry row.  The
#: NIC's own operations increment ``self._tallies[INDEX]`` in place; the
#: attribute surface below is the read API.
PUTS_ISSUED = NIC_COUNTER_FIELDS.index("puts_issued")
GETS_ISSUED = NIC_COUNTER_FIELDS.index("gets_issued")
ATOMICS_ISSUED = NIC_COUNTER_FIELDS.index("atomics_issued")
SENDS_ISSUED = NIC_COUNTER_FIELDS.index("sends_issued")
LOCAL_READS = NIC_COUNTER_FIELDS.index("local_reads")
LOCAL_WRITES = NIC_COUNTER_FIELDS.index("local_writes")
REMOTE_OPS_SERVICED = NIC_COUNTER_FIELDS.index("remote_ops_serviced")

#: Everything that differs between the NIC's one-sided operations, declared
#: once for the one kernel (:meth:`NIC._access`) that performs them all:
#: operation -> (access kind, issue tally's index, request message, reply message,
#: cells the request carries, whether the engine track gets a span, and for
#: the atomics what ``(old value, operand)`` deposits).  The message columns
#: are Figure 2's decomposition — a put is one data message, a get (and an
#: atomic, which mirrors it) a request and a reply carrying the data — and
#: the local accesses have none.  A compare-and-swap's operand is the
#: ``(expected, desired)`` pair, two cells on the wire as on InfiniBand; a
#: fetch-and-add counts an uninitialized cell (``None``) as zero.
_OPERATIONS = {
    "put": (
        AccessKind.WRITE, PUTS_ISSUED, MessageKind.PUT_DATA, None, 1, True, None,
    ),
    "get": (
        AccessKind.READ, GETS_ISSUED,
        MessageKind.GET_REQUEST, MessageKind.GET_REPLY, 0, True, None,
    ),
    "fetch_add": (
        AccessKind.RMW, ATOMICS_ISSUED,
        MessageKind.ATOMIC_REQUEST, MessageKind.ATOMIC_REPLY, 1, True,
        lambda old, amount: (0 if old is None else old) + amount,
    ),
    "compare_and_swap": (
        AccessKind.RMW, ATOMICS_ISSUED,
        MessageKind.ATOMIC_REQUEST, MessageKind.ATOMIC_REPLY, 2, True,
        lambda old, operand: operand[1] if old == operand[0] else old,
    ),
    "local_write": (AccessKind.WRITE, LOCAL_WRITES, None, None, 0, False, None),
    "local_read": (AccessKind.READ, LOCAL_READS, None, None, 0, False, None),
}

#: Read off their classes once, as ``sim.process`` does its states (an
#: ``Enum`` member read is slow on Python 3.11): the kinds ``_perform``
#: branches on and the lock protocol's three messages.
_WRITE, _READ = AccessKind.WRITE, AccessKind.READ
_LOCK_REQUEST, _LOCK_GRANT, _UNLOCK = (
    MessageKind.LOCK_REQUEST, MessageKind.LOCK_GRANT, MessageKind.UNLOCK,
)

#: What a put or a get *is* when its target is the caller's own memory.  The
#: atomics have no local flavour: an own-rank atomic keeps its name, tally
#: and span and merely crosses no wire.
_LOCAL_FLAVOUR = {"put": "local_write", "get": "local_read"}
_REMOTE_FLAVOUR = {local: remote for remote, local in _LOCAL_FLAVOUR.items()}


def _nic_counter(name: str) -> property:
    """A NIC tally: one slot of the NIC's registry row.

    Each field is a getter/setter pair over the slot, the read API; the
    NIC's own operations increment the slot in place
    (``self._tallies[INDEX] += 1``) and enter no property.
    """
    index = NIC_COUNTER_FIELDS.index(name)

    def getter(self: "NIC") -> int:
        return self._tallies[index]

    def setter(self: "NIC", value: int) -> None:
        self._tallies[index] = value

    return property(getter, setter, doc=f"Registry-backed ``{name}`` tally.")


class ReceiverNotReady(RuntimeError):
    """A SEND arrived at a target whose receive queue holds no posted buffer.

    The NIC does not see the receive queues themselves — the verbs layer hands
    it a *matching callable* that raises this (or a subclass, such as
    :class:`repro.verbs.receive_queue.RecvQueueEmpty`) when nothing is posted.
    A SEND claims a receive credit before it transmits, so the match always
    finds the buffer the claim reserved: this error means that invariant
    broke, and it propagates.
    """


class ReceiveLengthError(RuntimeError):
    """A SEND's payload is larger than the matched receive buffer.

    The verbs analogue is ``IBV_WC_LOC_LEN_ERR``: matching *consumes* the
    posted receive, no memory is written, and both sides learn through error
    completions.  ``recv_wr`` is the consumed receive work request.
    """

    def __init__(self, message: str, recv_wr: Any = None) -> None:
        super().__init__(message)
        self.recv_wr = recv_wr


@dataclass
class RemoteOperationResult:
    """What a completed one-sided operation returns to the caller.

    For atomics (``fetch_add`` / ``compare_and_swap``) ``value`` is the value
    the cell held *before* the operation — what the hardware returns to the
    initiator — and ``new_value`` is what the operation deposited.
    """

    operation: str
    origin: int
    target: GlobalAddress
    value: Any
    check: Optional[AccessCheckResult]
    start_time: float
    end_time: float
    data_messages: int
    control_messages: int
    new_value: Any = None

    @property
    def elapsed(self) -> float:
        """Simulated duration of the operation, including lock waits."""
        return self.end_time - self.start_time

    @property
    def raced(self) -> bool:
        """True when the detector flagged this operation."""
        return self.check is not None and self.check.raced


class NIC:
    """One rank's RDMA-capable network interface."""

    def __init__(
        self,
        sim: Simulator,
        rank: int,
        fabric: Fabric,
        memory: PublicMemory,
        locks: MemoryLockTable,
        config: "RuntimeConfig",
        detector: Optional[DualClockRaceDetector] = None,
        recorder: Optional["TraceRecorder"] = None,
    ) -> None:
        require_rank(rank, fabric.world_size, "rank")
        require_type(memory, PublicMemory, "memory")
        if memory.rank != rank:
            raise ValueError(f"NIC rank {rank} given memory owned by rank {memory.rank}")
        if locks.rank != rank:
            raise ValueError(f"NIC rank {rank} given lock table owned by rank {locks.rank}")
        self._sim = sim
        self.rank = rank
        #: Span-trace track name of this NIC's DMA engine.
        self.engine_track = f"nic-P{rank}"
        self.fabric = fabric
        self.memory = memory
        self.locks = locks
        self.detector = detector
        #: The runtime's own frozen config (``set_knob`` is its one writer,
        #: and validates); the NIC reads its knobs per operation, unchecked.
        self.config = config
        self.recorder = recorder
        #: Observability bundle shared by everything on this simulator; the
        #: issue/service tallies live in its metrics registry.
        self._obs = Observability.of(sim)
        #: One count per tally, in :data:`NIC_COUNTER_FIELDS` order.
        self._tallies = self._obs.metrics.counter_family(
            family_keys(_NIC_COUNTER_NAMES, rank=rank)
        )
        #: The clock-transport policy (roundtrip vs piggyback) shared by every
        #: instrumented path through this NIC.
        self.clock_transport = ClockTransport(self)
        #: UD datagram state: per-destination tx sequences + resync history,
        #: per-source rx view (only consulted when ``config.transport == "ud"``).
        self.ud = UdEndpoint(rank)
        #: rank -> weak reference: peers reach each other both ways, and
        #: strong references would tie every NIC of a finished run into one
        #: cycle only the cyclic collector frees.  Whoever built the NICs
        #: (the runtime's ``nics`` list) keeps them alive.
        self._peers: Dict[int, "weakref.ref[NIC]"] = {rank: weakref.ref(self)}
        self._tags = IdAllocator(f"op-P{rank}")

    # Tallies consumed by the overhead and scalability experiments —
    # registry-backed views (see NIC_COUNTER_FIELDS).
    puts_issued = _nic_counter("puts_issued")
    gets_issued = _nic_counter("gets_issued")
    atomics_issued = _nic_counter("atomics_issued")
    sends_issued = _nic_counter("sends_issued")
    local_reads = _nic_counter("local_reads")
    local_writes = _nic_counter("local_writes")
    remote_ops_serviced = _nic_counter("remote_ops_serviced")

    # -- wiring ------------------------------------------------------------------

    def register_peer(self, nic: "NIC") -> None:
        """Make another rank's NIC reachable from this one."""
        self._peers[nic.rank] = weakref.ref(nic)

    def peer(self, rank: int) -> "NIC":
        """Return the NIC of *rank* (``KeyError`` if not registered)."""
        return self._peers[rank]()

    # -- helpers -------------------------------------------------------------------

    def _clock_bytes(self) -> int:
        if self.detector is None:
            return 0
        return self.detector.world_size * BYTES_PER_ENTRY

    # -- lock protocol ----------------------------------------------------------------

    def _acquire_lock(
        self, target_nic: "NIC", address: GlobalAddress, purpose: str, tag: str
    ) -> Generator:
        """Acquire the NIC lock on *address* at *target_nic*; returns the request.

        A remote acquisition costs a LOCK_REQUEST / LOCK_GRANT round trip;
        the wait for a contended lock happens at the target, which is what
        delays a put behind an in-flight get on the same datum (Fig. 3).
        An own-rank acquisition is the table's ``acquire`` and a wait on its
        grant, which :meth:`_access` takes inline.
        """
        if target_nic.rank == self.rank:
            request = target_nic.locks.acquire(address, self.rank, purpose)
            yield request.event
            return request
        event, _ = self.fabric.send(
            _LOCK_REQUEST, self.rank, target_nic.rank,
            payload_bytes=0, operation_tag=tag,
        )
        yield event
        request = target_nic.locks.acquire(address, self.rank, purpose)
        yield request.event
        event, _ = self.fabric.send(
            _LOCK_GRANT, target_nic.rank, self.rank,
            payload_bytes=0, operation_tag=tag,
        )
        yield event
        return request

    def _release_lock(
        self, target_nic: "NIC", request: Optional[LockRequest], tag: str
    ) -> None:
        """Release a previously acquired lock (fire-and-forget for remote locks).

        A remote release is an UNLOCK message carrying the request; the
        target's table releases it when the message lands.
        """
        if request is None:
            return
        if target_nic.rank == self.rank:
            target_nic.locks.release(request)
            return
        event, _ = self.fabric.send(
            _UNLOCK, self.rank, target_nic.rank, request,
            payload_bytes=0, operation_tag=tag,
        )
        event.callbacks.append(target_nic.locks.release_delivered)

    def _wire_clock(self, clock_snapshot: Optional[VectorClock]) -> Optional[VectorClock]:
        """The clock a data message leaving this rank would carry.

        The post-time snapshot for posted operations; the origin's live
        clock for blocking ones (which tick at the target under the lock —
        the carried value is the best pre-send approximation and is used
        only for wire accounting, never for detection).  Returns ``None``
        outright unless the piggyback transport will actually stamp it, so
        the default roundtrip hot path allocates nothing.
        """
        detector = self.detector
        if detector is None:
            return None
        # Read off the config, not through the transport's property chain.
        if self.config.clock_transport != "piggyback":
            return None
        if clock_snapshot is not None:
            return clock_snapshot
        return self.detector.current_clock(self.rank)

    # -- clocked transmission (RC vs UD service levels) ----------------------------------

    def _transmit_clocked(
        self, kind: MessageKind, destination: int, payload: Any,
        base_payload_bytes: int, tag: str, clock: Any,
        origin_clock: bool = False,
    ) -> Generator:
        """Transmit one clock-carrying data message on the configured transport.

        The single choke point every remote data message (PUT_DATA,
        GET_REQUEST/REPLY, ATOMIC_REQUEST/REPLY, SEND_REQUEST) goes
        through.  Under RC this is one reliable FIFO transmission, exactly
        as before the transport knob existed.  Under UD each transmission
        becomes a sequence-numbered datagram whose fate is a logged
        ``drop`` decision: a dropped datagram arms the retransmission timer
        and is re-sent with a *fresh* rider and sequence number (so the
        lost sequence is a permanent gap that exactly one receiver resync
        repairs); a delivered datagram is absorbed into the receiver's wire
        view, with the receiver-driven resync subprotocol
        (:meth:`_ud_resync`) run inline when the frame arrived gapped.  The
        rider is *clock*; with *origin_clock* (an operation's request) it
        is what :meth:`_wire_clock` makes of *clock*, re-evaluated per
        transmission — under the sparse wire formats a retransmission of an
        unchanged clock costs only an empty sparse frame.  A flag, not a provider
        closure: one built per operation would turn the caller's locals
        into cell variables for every access, the local ones included.
        Which service level is one branch here, on the runtime's
        ``RuntimeConfig`` (every knob can be switched on a built runtime
        before it runs), not a strategy
        object chosen at construction.  Returns the number of transmissions
        it took.
        """
        if self.config.transport != "ud":
            carried, clock_wire_bytes, _ = self.clock_transport.ride_frame(
                self._wire_clock(clock) if origin_clock else clock, destination
            )
            event, _ = self.fabric.send(
                kind, self.rank, destination,
                payload=payload,
                payload_bytes=base_payload_bytes + clock_wire_bytes,
                operation_tag=tag,
                carried_clock=carried, clock_wire_bytes=clock_wire_bytes,
            )
            yield event
            return 1

        target_nic = self.peer(destination)
        transport_row = self.clock_transport.stats._row
        attempts = 0
        while True:
            carried, clock_wire_bytes, frame = self.clock_transport.ride_frame(
                self._wire_clock(clock) if origin_clock else clock, destination
            )
            seq = self.ud.assign_seq(destination, carried)
            transport_row[UD_DATAGRAMS] += 1
            event, _, fate, dup_event = self.fabric.send_datagram(
                kind, self.rank, destination,
                payload=payload,
                payload_bytes=base_payload_bytes + clock_wire_bytes,
                operation_tag=tag,
                carried_clock=carried, clock_wire_bytes=clock_wire_bytes,
                ud_seq=seq, ud_frame=frame,
            )
            attempts += 1
            yield event
            if fate == "drop":
                transport_row[UD_DROPPED] += 1
                if attempts > self.config.ud_max_retransmits:
                    raise UdDeliveryExceeded(
                        f"{kind.value} P{self.rank}->P{destination}: datagram "
                        f"dropped {attempts} times (retransmission budget "
                        f"{self.config.ud_max_retransmits})"
                    )
                transport_row[UD_RETRANSMITS] += 1
                continue
            if dup_event is not None:
                # The copy may land while the resync below is still in
                # flight, so the idempotent absorb must already be armed.
                dup_event.callbacks.append(
                    lambda _ev, s=seq, f=frame: self._absorb_duplicate(
                        target_nic, s, f
                    )
                )
            verdict = target_nic.ud.absorb(self.rank, seq, frame)
            if verdict == "gap":
                yield from target_nic._ud_resync(self, seq, tag)
            return attempts

    def _absorb_duplicate(
        self, target_nic: "NIC", seq: int, frame: Optional[str]
    ) -> None:
        """Second arrival of a duplicated datagram: an idempotent absorb."""
        target_nic.ud.absorb(self.rank, seq, frame)
        target_nic.clock_transport.stats._row[UD_DUPLICATES] += 1

    def _ud_resync(self, sender_nic: "NIC", seq: int, tag: str) -> Generator:
        """Receiver-driven clock resync: recover the full frame for *seq*.

        Runs on the receiving NIC after a sparse frame arrived gapped (its
        predecessor was dropped): one UD_RESYNC_REQUEST naming
        the sequence, answered by the sender with a tagged full clock frame
        — the *historical* clock that sequence carried, served from the
        sender's tx history, never its current clock (a newer clock would
        add happens-before edges the receiver never observed and silently
        mask races).  Both legs are themselves droppable datagrams; a lost
        request or reply is re-requested after the retransmission deadline,
        within the same budget as data datagrams.  The blocked time renders
        as a ``resync_wait`` span on this NIC's engine track.
        """
        started = self._sim._now
        transport_row = self.clock_transport.stats._row
        attempts = 0
        while True:
            attempts += 1
            if attempts > self.config.ud_max_retransmits:
                raise UdDeliveryExceeded(
                    f"resync P{self.rank}<-P{sender_nic.rank} seq={seq}: no "
                    f"full frame after {attempts - 1} requests (budget "
                    f"{self.config.ud_max_retransmits})"
                )
            transport_row[UD_RESYNC_REQUESTS] += 1
            event, _, fate, _ = self.fabric.send_datagram(
                MessageKind.UD_RESYNC_REQUEST, self.rank, sender_nic.rank,
                payload=seq, payload_bytes=8, operation_tag=tag,
            )
            yield event
            if fate == "drop":
                # The request was lost: re-request after the deadline.
                continue
            # The request landed; the sender serves the frame from its tx
            # history (a wire tag plus the full vector on the wire).
            entries = sender_nic.ud.historical_clock(self.rank, seq)
            reply_bytes = (
                WIRE_TAG_BYTES + sender_nic._clock_bytes()
                if entries is not None
                else 0
            )
            event, _, fate, _ = self.fabric.send_datagram(
                MessageKind.UD_RESYNC_FULL, sender_nic.rank, self.rank,
                payload=entries, payload_bytes=reply_bytes, operation_tag=tag,
                carried_clock=entries, clock_wire_bytes=reply_bytes,
            )
            yield event
            if fate != "drop":
                break
            # The reply was lost: the receiver cannot tell a lost request
            # from a lost reply, so it simply re-requests.
        self.ud.mark_resynced(sender_nic.rank, seq)
        transport_row[UD_RESYNCS] += 1
        self._obs.spans.complete(
            self.engine_track, "resync_wait", started, self._sim._now,
            source=f"P{sender_nic.rank}", seq=seq,
        )

    # -- the access kernel ----------------------------------------------------------------

    def _perform(
        self, target_nic: "NIC", kind: AccessKind, operation: str,
        address: GlobalAddress, operand: Any,
        apply: Optional[Callable[[Any, Any], Any]], symbol: Optional[str],
        carried_clock: Optional[VectorClock], owner_event: Optional[bool],
    ) -> Tuple[Optional[AccessCheckResult], Any, Any]:
        """The step under the lock: check, memory effect, access record.

        Must be called while the NIC lock on *address* is held — detection
        itself cannot race.  The check (Algorithms 1 and 2, one detector
        entry per access kind) runs against the cell as the operation found
        it; then the operation takes effect — a write deposits *operand*, a
        read observes, an atomic observes and deposits ``apply(observed,
        operand)`` with no window in between — and the access is traced.
        Shared by :meth:`_access` and the scatter loop of
        :meth:`send_payload`.  Returns ``(check, value, new_value)``: what
        the operation hands back (the value written or read; for an atomic
        the value the cell held before) and what an atomic deposited.
        """
        now = self._sim._now
        # One lookup: the check reads the cell the effect then lands on.
        cell = target_nic.memory.cell(address)
        check: Optional[AccessCheckResult] = None
        detector = self.detector
        if detector is not None:
            if kind is _WRITE:
                check = detector.on_write(
                    self.rank, address, cell, symbol=symbol, time=now,
                    operation=operation, carried_clock=carried_clock,
                    owner_event=owner_event,
                )
            elif kind is _READ:
                check = detector.on_read(
                    self.rank, address, cell, symbol=symbol, time=now,
                    operation=operation, carried_clock=carried_clock,
                )
            else:
                check = detector.on_rmw(
                    self.rank, address, cell, symbol=symbol, time=now,
                    operation=operation, carried_clock=carried_clock,
                )
        # The effect, with the counters ``PublicMemory.read`` / ``write`` keep.
        observed = new_value = None
        if kind is _WRITE:
            value = recorded = cell.value = operand
            cell.write_count += 1
            cell.last_writer = self.rank
        elif kind is _READ:
            value = recorded = cell.value
            cell.read_count += 1
        else:
            value = observed = cell.value
            cell.read_count += 1
            new_value = recorded = cell.value = apply(observed, operand)
            cell.write_count += 1
            cell.last_writer = self.rank
        if self.recorder is not None:
            self.recorder.record_access(
                self.rank, address, kind, recorded, now, symbol, operation, observed
            )
        return check, value, new_value

    def _access(
        self, operation: str, target: GlobalAddress, operand: Any,
        symbol: Optional[str], clock_snapshot: Optional[VectorClock],
    ) -> Generator:
        """The one access path behind every one-sided and local operation.

        The paper makes "no distinction between accesses to public memory
        from a remote process and from the process that actually maps this
        address space" (Section III-A) and gives every access one shape,
        which is this generator, once:

        1. take the NIC lock on the target cell (Figure 3; a remote
           acquisition optionally costs a request/grant round trip);
        2. *remote only:* charge Algorithm 5's clock round trip when the
           transport owes one, then send the request message of Figure 2 —
           under piggybacking the target-side check consumes the origin's
           clock, so it must physically travel on the request (a reply then
           carries the datum's history back: two riders per get, mirroring
           Algorithm 5's fetch + update pair);
        3. trace the snapshot a posted operation is serviced with, as a
           ``wr_transfer`` recorded immediately before the instrumented
           access (adjacent trace ids), so offline replay pairs each with
           the access that consumed it and re-runs the check with the exact
           carried clock;
        4. check, take effect and record the access under the lock
           (:meth:`_perform`) — a landing write counts as an owner event;
        5. *remote, data-returning only:* send the reply.  It is the
           target's message: its rider goes through the target's channel
           codec (and the target's UD sequence space) towards this rank;
        6. unlock, draw the engine-track span, hand back the
           :class:`RemoteOperationResult`.

        What differs per operation is one row of :data:`_OPERATIONS`, and
        whether the address crosses the wire is decided here and nowhere
        above: the NIC is the module that knows.  An own-rank target skips
        step 2 and 5 outright (no peer lookup, no round-trip generator: half
        of a posted workload's accesses are local reads) but still takes the
        lock and the check, as for every public-memory access; a put or get
        of one is recorded as the ``local_write`` / ``local_read`` it is.

        *clock_snapshot* is the post-time clock of a posted (verbs)
        operation (see :meth:`rdma_put`).  The check result's
        ``datum_epoch`` (the owner-tick annotation the epoch fast path
        re-establishes on the datum clock) travels back with the
        completion, where the queue pair uses it to replace — rather than
        re-join — its running service clock across a drain burst.

        A delivery failure between lock and unlock releases the cell lock
        and propagates.  Errors in the arguments are raised here, that is
        when the generator is first driven, inside the calling process.
        """
        if type(target) is not GlobalAddress:  # inline: no call on the hot path
            require_type(target, GlobalAddress, "target")
        remote = target.rank != self.rank
        if not remote:
            operation = _LOCAL_FLAVOUR.get(operation, operation)
        kind, tally, request_kind, reply_kind, request_cells, spanned, apply = (
            _OPERATIONS[operation]
        )
        if remote and request_kind is None:
            raise ValueError(
                f"{operation} on rank {self.rank} given remote address {target}; "
                f"use rdma_{_REMOTE_FLAVOUR[operation]}"
            )
        start = self._sim._now
        tag = self._tags.next_str()
        self._tallies[tally] += 1
        target_nic = self._peers[target.rank]() if remote else self
        data_messages = control_messages = 0

        if remote:
            lock_request = yield from self._acquire_lock(target_nic, target, operation, tag)
        else:
            # What ``_acquire_lock`` / ``_release_lock`` do for an own-rank
            # cell, without their frames: half a posted run's accesses.
            lock_request = self.locks.acquire(target, self.rank, operation)
            yield lock_request.event
        try:
            if remote:
                control_messages = yield from self.clock_transport.round_trip(
                    target.rank, tag
                )
                data_messages = yield from self._transmit_clocked(
                    request_kind, target.rank, operand,
                    request_cells * DEFAULT_CELL_BYTES, tag,
                    clock_snapshot, True,
                )
                target_nic._tallies[REMOTE_OPS_SERVICED] += 1
            if clock_snapshot is not None and self.recorder is not None:
                self.recorder.record_transfer(
                    self.rank, target.rank, time=self._sim._now,
                    kind="wr_transfer", clock=clock_snapshot.frozen(),
                )
            check, value, new_value = self._perform(
                target_nic, kind, operation, target, operand, apply, symbol,
                clock_snapshot, True,
            )
            if remote and reply_kind is not None:
                data_messages += yield from target_nic._transmit_clocked(
                    reply_kind, self.rank, value, DEFAULT_CELL_BYTES, tag,
                    check.datum_access_clock if check is not None else None,
                )
        except UdDeliveryExceeded:
            # A data datagram or its resync subprotocol burnt the
            # retransmission budget: the operation ends mid-flight, and the
            # cell lock must not stay held (a lost request touched no
            # memory, a lost reply leaves the effect in place).
            self._release_lock(target_nic, lock_request, tag)
            raise
        if remote:
            self._release_lock(target_nic, lock_request, tag)
        else:
            self.locks.release(lock_request)

        end = self._sim._now
        if spanned:
            spans = self._obs.spans
            if spans.enabled:
                spans.complete(
                    self.engine_track, operation, start, end, target=f"P{target.rank}"
                )
        return RemoteOperationResult(
            operation, self.rank, target, value, check, start, end,
            data_messages, control_messages, new_value,
        )

    # -- one-sided and local operations (entry points of the kernel) ----------------------

    def rdma_put(
        self,
        value: Any,
        target: GlobalAddress,
        symbol: Optional[str] = None,
        clock_snapshot: Optional[VectorClock] = None,
    ) -> Generator:
        """One-sided write of *value* into *target* (Algorithm 1).

        Involves exactly one data message (Figure 2) plus, when configured,
        lock and clock control traffic.  *clock_snapshot* is the post-time
        clock of a posted (verbs) put: the write is then checked with the
        carried snapshot instead of the origin's live clock, the landing
        still counts as an owner event, and the origin synchronizes only
        when it retires the completion (see :meth:`_access`).  A *target* in
        this rank's own memory makes it :meth:`local_write`.  Returns a
        :class:`RemoteOperationResult`.
        """
        return self._access("put", target, value, symbol, clock_snapshot)

    def rdma_get(
        self,
        target: GlobalAddress,
        symbol: Optional[str] = None,
        clock_snapshot: Optional[VectorClock] = None,
    ) -> Generator:
        """One-sided read of *target* (Algorithm 2).

        Involves two data messages — the request and the reply carrying the
        data (Figure 2).  *clock_snapshot* is the post-time clock of a
        posted (verbs) get; the datum's causal history then flows back to
        the origin at completion retirement rather than at service.  A
        *target* in this rank's own memory makes it :meth:`local_read`.
        Returns a :class:`RemoteOperationResult` whose ``value`` is the
        value read.
        """
        return self._access("get", target, None, symbol, clock_snapshot)

    def fetch_add(
        self,
        target: GlobalAddress,
        amount: Any = 1,
        symbol: Optional[str] = None,
        clock_snapshot: Optional[VectorClock] = None,
    ) -> Generator:
        """One-sided atomic fetch-and-add on *target*.

        Serviced entirely by the target NIC under the cell's lock: read the
        old value, deposit ``old + amount``, send the old value back.  The
        message decomposition mirrors a ``get``: one ATOMIC_REQUEST carrying
        the operand, one ATOMIC_REPLY carrying the prior value; a local
        atomic (the caller owns the cell) crosses no wire but still takes
        the NIC lock and the detector check.  An uninitialized cell
        (``None``) counts as zero.  *clock_snapshot* is the post-time clock
        of a posted atomic (see :meth:`rdma_put`); the reply's causal
        history then merges at completion retirement.  Returns a
        :class:`RemoteOperationResult` whose ``value`` is the *old* value.
        """
        result = yield from self._access(
            "fetch_add", target, amount, symbol, clock_snapshot
        )
        if result.value is None:
            # The returned old value follows the same uninitialized-is-zero
            # rule; the trace keeps the raw observed value for the
            # consistency checker.
            result.value = 0
        return result

    def compare_and_swap(
        self,
        target: GlobalAddress,
        expected: Any,
        desired: Any,
        symbol: Optional[str] = None,
        clock_snapshot: Optional[VectorClock] = None,
    ) -> Generator:
        """One-sided atomic compare-and-swap on *target*.

        Deposits *desired* iff the cell currently holds *expected*; always
        returns the prior value (the swap succeeded iff ``result.value ==
        expected``).  The operand carries both the compare and the swap value,
        as on InfiniBand (two cells on the wire); messages, locking and
        *clock_snapshot* are as for :meth:`fetch_add`.
        """
        return self._access(
            "compare_and_swap", target, (expected, desired), symbol, clock_snapshot
        )

    def local_write(
        self,
        address: GlobalAddress,
        value: Any,
        symbol: Optional[str] = None,
        clock_snapshot: Optional[VectorClock] = None,
    ) -> Generator:
        """Write to this rank's own public memory.

        The paper makes "no distinction between accesses to public memory from
        a remote process and from the process that actually maps this address
        space" (Section III-A), so local public accesses go through the same
        lock and the same detection check — just without any network traffic.
        A posted local write carries its post-time *clock_snapshot* exactly
        like a remote one.  A remote *address* is a ``ValueError``; callers
        that do not know where an address lives call :meth:`rdma_put`.
        """
        return self._access("local_write", address, value, symbol, clock_snapshot)

    def local_read(
        self,
        address: GlobalAddress,
        symbol: Optional[str] = None,
        clock_snapshot: Optional[VectorClock] = None,
    ) -> Generator:
        """Read from this rank's own public memory (lock + detection, no messages)."""
        return self._access("local_read", address, None, symbol, clock_snapshot)

    # -- two-sided send (matched against posted receives) --------------------------------

    def _credit_stall(self, gate: Any, destination: int, tag: str) -> Generator:
        """Park on *gate* until a post grants this sender a receive credit.

        Entered only after a failed claim (:meth:`send_payload` claims
        inline, so an uncontended SEND enters no frame here).  The blocked
        time renders as a ``credit_stall`` span on the engine track — a
        wait that costs no messages.  A woken sender re-checks the claim: a
        grant can be "stolen" by a sender that never parked, in which case
        we re-park.
        """
        stall_started = self._sim._now
        while True:
            wake = self._sim.event(name=f"credit-wait:{tag}")
            gate.enqueue_waiter(wake, self.rank)
            yield wake
            if gate.try_claim():
                break
        self._obs.spans.complete(
            self.engine_track, "credit_stall", stall_started, self._sim._now,
            destination=f"P{destination}",
        )

    def send_payload(
        self,
        destination: int,
        values: Sequence[Any],
        match_receive: Callable[[], Any],
        *,
        symbol: Optional[str] = None,
        clock_snapshot: Any = None,
        credit_gate: Any,
    ) -> Generator:
        """Two-sided SEND of *values* to *destination* (``IBV_WR_SEND``).

        Unlike the one-sided operations, a SEND names no remote address and
        carries no rkey: where the payload lands is decided entirely by the
        *receiver*, which must have posted a receive buffer (scatter list of
        its own addresses).  The NIC's part of the protocol:

        * one SEND_REQUEST message carries the whole gathered payload
          (``len(values) * DEFAULT_CELL_BYTES`` on the wire — the multi-cell payload
          the bandwidth-aware latency models care about);
        * before transmitting, the NIC claims one receive credit from
          *credit_gate* (the :class:`~repro.net.flow_control.CreditGate` of
          the target's receive queue), stalling locally — zero bytes on the
          wire, a ``credit_stall`` span on the engine track — until the
          receiver's next post grants one; every payload is transmitted
          exactly once, and a SEND whose delivery fails hands its credit
          back;
        * on arrival, *match_receive* is called to consume the head of the
          target's receive queue (FIFO, no tag matching — verbs semantics);
          the claim reserved that buffer, so :class:`ReceiverNotReady` here
          is a broken invariant and propagates;
        * a payload longer than the matched buffer consumes the receive but
          touches no memory — :class:`ReceiveLengthError` (``IBV_WC_LOC_LEN_ERR``);
        * the delivery carries the happens-before of message passing: the
          scatter writes use the merge of *clock_snapshot* (the sender's
          post-time clock, carried by the message) and the matched buffer's
          post-time clock, and one batched clock round trip is charged per
          message (not per cell: the scattered cells share a target, so
          their clocks travel together).  The receiving *process* merges
          that clock only when it retires the completion
          (:meth:`~repro.core.detector.DualClockRaceDetector.on_recv_complete`);
        * each payload cell is scattered into the posted addresses under the
          per-cell NIC lock with the ordinary write instrumentation (the
          kernel's own step under the lock, :meth:`_perform`), so the
          detector sees a buffer reused while a SEND is in flight exactly as
          it sees any conflicting write — in every schedule, because neither
          side's live clock contaminates the carried snapshot.

        Returns ``(result, recv_wr, carried_clock)`` where *recv_wr* is the
        consumed receive work request (an object with ``wr_id`` and
        ``addresses``) and *carried_clock* is the merged clock the matched
        completion must hand to the receiver at retirement.
        """
        start = self._sim._now
        tag = self._tags.next_str()
        target_nic = self.peer(destination)
        self._tallies[SENDS_ISSUED] += 1
        remote = destination != self.rank
        data_messages = 0

        # Admission control: reserve the receive buffer this SEND will
        # consume before spending any fabric bytes on it.
        if not credit_gate.try_claim():
            yield from self._credit_stall(credit_gate, destination, tag)
        if remote:
            try:
                data_messages = yield from self._transmit_clocked(
                    MessageKind.SEND_REQUEST, destination, tuple(values),
                    len(values) * DEFAULT_CELL_BYTES, tag, clock_snapshot,
                )
            except UdDeliveryExceeded:
                # The buffer the claim reserved is still posted and this
                # SEND will never consume it: the credit goes back to the
                # pool, waking the oldest sender parked on the gate.
                credit_gate.release()
                raise
        recv_wr = match_receive()
        # The match consumed the exact buffer the claim reserved; the claim
        # and the buffer leave the pool together.
        credit_gate.settle()
        if remote:
            target_nic._tallies[REMOTE_OPS_SERVICED] += 1

        if len(values) > len(recv_wr.addresses):
            raise ReceiveLengthError(
                f"send P{self.rank}->P{destination}: payload of {len(values)} "
                f"cells overruns receive buffer of {len(recv_wr.addresses)} "
                f"(recv wr#{recv_wr.wr_id})",
                recv_wr=recv_wr,
            )

        control_messages = yield from self.clock_transport.round_trip(destination, tag)
        # The delivery event is causally after BOTH posts: the SEND's
        # (snapshot carried by the message) and the matched RECV's (snapshot
        # taken when the buffer was posted — the permission point).  Their
        # merge is the clock the scatter writes carry, and the clock the
        # receiving process merges when it later retires the completion
        # (detector.on_recv_complete) — the landing itself synchronizes
        # nobody.
        effective_clock = clock_snapshot
        recv_clock = getattr(recv_wr, "clock_snapshot", None)
        if recv_clock is not None:
            effective_clock = (
                recv_clock.copy()
                if effective_clock is None
                else effective_clock.merged(recv_clock)
            )
        if self.recorder is not None:
            self.recorder.record_transfer(
                self.rank, destination, time=self._sim._now, kind="transfer",
                clock=(
                    effective_clock.frozen()
                    if effective_clock is not None
                    else None
                ),
            )

        check: Optional[AccessCheckResult] = None
        for value, address in zip(values, recv_wr.addresses):
            lock_request = yield from self._acquire_lock(
                target_nic, address, "send", tag
            )
            # No owner event: the receiver synchronizes at retirement.
            cell_check, _, _ = self._perform(
                target_nic, _WRITE, "send", address, value, None,
                symbol or recv_wr.symbol, effective_clock, None,
            )
            # The result's single check slot keeps the first flagged
            # scatter access (or the first cell's when none raced), so
            # ``result.raced`` means "any cell of this send raced".
            if check is None or (cell_check.raced and not check.raced):
                check = cell_check
            self._release_lock(target_nic, lock_request, tag)

        addresses = recv_wr.addresses
        landing = addresses[0] if addresses else GlobalAddress(destination, 0)
        spans = self._obs.spans
        if spans.enabled:
            spans.complete(
                self.engine_track, "send", start, self._sim._now,
                target=f"P{destination}", cells=len(values), retries=0,
            )
        result = RemoteOperationResult(
            operation="send",
            origin=self.rank,
            target=landing,
            value=tuple(values),
            check=check,
            start_time=start,
            end_time=self._sim._now,
            data_messages=data_messages,
            control_messages=control_messages,
        )
        return result, recv_wr, effective_clock

    # -- notifications (runtime support) ----------------------------------------------------

    def send_notification(self, destination: int, payload: Any = None) -> Generator:
        """Send a runtime-level NOTIFY message (used by barriers and joins).

        Returns the delivered message.  Notifications establish happens-before
        edges; the runtime transfers clocks through the detector when it uses
        them for synchronization.
        """
        event, message = self.fabric.send(
            MessageKind.NOTIFY, self.rank, destination, payload=payload, payload_bytes=8,
        )
        yield event
        return message

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NIC P{self.rank} puts={self.puts_issued} gets={self.gets_issued}>"
