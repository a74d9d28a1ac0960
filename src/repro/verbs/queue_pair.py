"""Queue pairs: asynchronous, in-order execution of work requests.

Real-verbs analogue: ``ibv_qp`` (reliable-connected service) and the
send-queue half of ``ibv_post_send``.

A :class:`QueuePair` connects one initiator rank to one peer rank (the
reliable-connected service of the verbs model).  Posting a work request is
immediate — the posting process keeps running — while a NIC-side drain
process executes the queued requests *in order* against the existing
simulated fabric (locks, latency, detection, tracing all apply unchanged)
and delivers a completion to the associated completion queue after each one.

Each queue pair also has a *receive side*, from which incoming two-sided
SENDs from this QP's peer consume posted buffers (FIFO matching): the rank's
:class:`~repro.verbs.receive_queue.SharedReceiveQueue` when it declared one,
else a private :class:`~repro.verbs.receive_queue.ReceiveQueue`.

Two properties matter for the workloads built on top:

* requests on **one** queue pair never reorder (RC ordering), so a put
  followed by an atomic to the same peer takes effect in program order;
* requests on **different** queue pairs proceed concurrently, which is where
  the communication/computation overlap comes from.

Clock identity: a serviced request is checked with the *post-time clock
snapshot* its work request carried (the unified clock-transport discipline —
the drain acts from the clock the message physically carried, exactly as the
NIC DMA engine would), never the origin's live clock.  A
posted-but-unwaited operation and a later access by the same rank to the
same *remote* cell therefore stay causally unordered — the "forgot to wait
before reusing the data" bug is flagged in every schedule (the owner's
reception tick is knowledge the unwaited poster cannot have).  The origin
synchronizes at completion *retirement*: each completion carries the join
of the datum clocks this queue pair has serviced so far (batched per drain;
sound because RC completes requests in order), and retiring it merges that
join into the origin's clock.

Residual limitation: a posted operation targeting the poster's OWN public
memory (verbs loopback) keeps the blind spot, because the origin and the
owner are the same clock identity — there is no reception tick the poster
could be missing, so the pair always looks ordered.  Closing it needs a
separate clock identity for the NIC engine (the loopback clock identity
gap, ROADMAP item 2a; ``tests/verbs/test_loopback_blind_spot.py`` pins it).
"""

from __future__ import annotations

import weakref
from collections import deque
from functools import cached_property
from typing import TYPE_CHECKING, Deque, Generator, Optional

from repro.core.clocks import VectorClock
from repro.net.flow_control import credit_gate_for
from repro.net.nic import ReceiveLengthError
from repro.net.ud_transport import UdDeliveryExceeded
from repro.obs.observability import Observability
from repro.verbs.memory_registration import RemoteAccessError
from repro.verbs.receive_queue import ReceiveQueue, SharedReceiveQueue
from repro.verbs.work import CompletionStatus, Opcode, WorkCompletion, WorkRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.context import VerbsContext

#: Read off their classes once (an ``Enum`` member read is slow on Python
#: 3.11): what a delivered SEND's two completions are stamped with.
_RECV, _SUCCESS = Opcode.RECV, CompletionStatus.SUCCESS


class SendQueueFull(RuntimeError):
    """Raised when posting to a queue pair whose send queue is at capacity."""


class QueuePair:
    """One rank-pair's send queue plus the NIC process that drains it."""

    def __init__(self, context: "VerbsContext", peer: int) -> None:
        # Held weakly: the context owns its queue pairs, and a strong
        # reference back would leave every finished run to the cyclic
        # collector.
        self._owner = weakref.ref(context)
        self._sim = context.sim
        self._obs = Observability.of(context.sim)
        self.origin = context.rank
        self.peer = peer
        self.max_send_wr = context.nic.config.verbs_max_send_wr
        #: Where incoming SENDs *from the peer* consume posted buffers: the
        #: context's SRQ (declared before any queue pair exists), else a
        #: private receive queue.
        self.recv_queue: ReceiveQueue = context.srq
        if self.recv_queue is None:
            self.recv_queue = ReceiveQueue(
                context.rank,
                max_wr=context.nic.config.verbs_max_recv_wr,
                name=f"rq-P{context.rank}<-P{peer}",
            )
        self._pending: Deque[WorkRequest] = deque()
        self._in_service: Optional[WorkRequest] = None
        self._draining = False
        #: Processes parked in :meth:`wait_send_slot` (blocking backpressure),
        #: woken in arrival order as completions free slots.
        self._slot_waiters: list = []
        #: Times a blocking post found the queue full and had to park.
        self.blocked_posts = 0
        self.posted = 0
        self.completed = 0
        #: Join of the datum clocks of every one-sided request this queue
        #: pair has serviced (the batched clock-transport payload);
        #: completions carry a copy, the origin merges at retirement.
        self._serviced_clock: Optional[VectorClock] = None
        #: Epoch annotation of ``_serviced_clock``'s content, when the last
        #: serviced datum clock came back annotated and covered the running
        #: join — the O(1) witness that lets the next service *replace* the
        #: join instead of merging (one O(n) join per burst, amortized).
        self._serviced_epoch = None
        #: Whether the current ``_serviced_clock`` object has been handed to
        #: a completion; consumers only read it, but a later fallback merge
        #: must then build a new object instead of mutating the shared one.
        self._serviced_shared = False
        #: O(n) service-clock joins performed vs elided by the epoch chain.
        self.sync_joins_performed = 0
        self.sync_joins_elided = 0
        #: Service-order sequence stamped into completions (sync_seq).
        self._service_seq = 0

    @property
    def uses_srq(self) -> bool:
        """True when this QP's receive side is a shared receive queue."""
        return isinstance(self.recv_queue, SharedReceiveQueue)

    @property
    def _context(self) -> "VerbsContext":
        return self._owner()

    # -- posting -----------------------------------------------------------------

    # Bound on first use (see ``MemoryLockTable``): a queue pair that never
    # posts adds no zero-valued instrument, one that does pays no lookup per
    # post and per drained request.

    @cached_property
    def _send_queue_depth(self):
        return self._obs.metrics.gauge(
            "verbs.send_queue_depth", rank=self.origin, peer=self.peer
        )

    @cached_property
    def _drain_bursts(self):
        return self._obs.metrics.counter(
            "verbs.drain_bursts", rank=self.origin, peer=self.peer
        )

    @property
    def outstanding(self) -> int:
        """Requests posted but not yet completed on this queue pair."""
        return self.posted - self.completed

    def post(self, request: WorkRequest) -> WorkRequest:
        """Enqueue *request* and return immediately.

        Raises :class:`SendQueueFull` when ``max_send_wr`` requests are
        already outstanding — the initiator must retire completions before
        posting more, exactly as with a real send queue.
        """
        if request.destination_rank != self.peer:
            raise ValueError(
                f"queue pair P{self.origin}->P{self.peer} given request "
                f"targeting rank {request.destination_rank}"
            )
        if self.outstanding >= self.max_send_wr:
            raise SendQueueFull(
                f"queue pair P{self.origin}->P{self.peer}: "
                f"{self.outstanding} outstanding requests (max {self.max_send_wr})"
            )
        request.posted_at = self._sim._now
        self.posted += 1
        self._pending.append(request)
        self._send_queue_depth.set(self.outstanding)
        if not self._draining:
            self._draining = True
            self._sim.process(
                self._drain(), name=f"qp-P{self.origin}->P{self.peer}"
            )
        return request

    def wait_send_slot(self) -> Generator:
        """Yield the calling process until this queue pair has a free slot.

        Send backpressure: a ``*_throttled`` post waits here where the plain
        post raises :class:`SendQueueFull`.  Several processes may wait on
        one queue pair; each freed slot wakes one of them, in arrival order,
        and the loop re-checks on wake-up — a slot snatched by a same-instant
        non-blocking post just parks the waiter again.
        """
        while self.outstanding >= self.max_send_wr:
            self.blocked_posts += 1
            gate = self._sim.event(name=f"qp-slot-P{self.origin}->P{self.peer}")
            self._slot_waiters.append(gate)
            yield gate
        return None

    # -- NIC-side servicing ---------------------------------------------------------

    def _drain(self) -> Generator:
        """Service queued requests one at a time, in posting order.

        Under ``cq_moderation`` the completions of one drain burst are held
        back and delivered together when the send queue runs dry — one CQE
        per burst, as a real NIC's CQ moderation would coalesce them.
        Send-slot accounting stays per request (a completion frees its slot
        the moment the request is serviced), so backpressure is unaffected;
        only CQ visibility is deferred.  A *bounded* CQ splits the burst
        early: real moderation hardware fires the event the moment the CQ
        fills, so coalescing must never overflow a queue the uncoalesced
        delivery (whose consumer retires between distinct delivery times)
        would have kept within capacity.
        """
        burst: Optional[list] = [] if self._context.nic.config.cq_moderation else None
        drain_started = self._sim._now
        serviced = 0
        while self._pending:
            request = self._pending.popleft()
            self._in_service = request
            completion = yield from self._execute(request)
            self._in_service = None
            self.completed += 1
            serviced += 1
            self._send_queue_depth.set(self.outstanding)
            if burst is None:
                self._context.deliver(completion)
            else:
                burst.append(completion)
                capacity = self._context.cq.capacity
                if (
                    capacity is not None
                    and len(burst) >= capacity - self._context.cq.depth
                ):
                    # The CQ is about to fill: fire the coalesced event now
                    # so the consumer can retire before the next burst.
                    self._context.deliver_burst(burst)
                    burst = []
            # One retired completion frees one slot: wake one waiter.  The
            # woken process re-checks before posting, so over-waking could
            # only thrash; under-waking cannot happen (every completion
            # passes through here).
            if self._slot_waiters and self.outstanding < self.max_send_wr:
                self._slot_waiters.pop(0).succeed()
        if burst:
            self._context.deliver_burst(burst)
        self._draining = False
        self._drain_bursts.inc()
        self._obs.spans.complete(
            self._context.nic.engine_track,
            "qp_drain",
            drain_started,
            self._sim._now,
            peer=f"P{self.peer}",
            serviced=serviced,
        )

    def _execute(self, request: WorkRequest) -> Generator:
        """Run one work request through the NIC; returns its completion.

        A UD delivery failure anywhere inside the operation — the data
        datagram or its resync subprotocol burnt the retransmission budget
        — surfaces as a failed UD_DELIVERY_EXCEEDED completion: the
        initiator learns at retirement, never through an exception at the
        post site.
        """
        try:
            completion = yield from self._execute_op(request)
        except UdDeliveryExceeded as error:
            return self._failed(request, CompletionStatus.UD_DELIVERY_EXCEEDED, error)
        return completion

    def _failed(
        self, request: WorkRequest, status: CompletionStatus, error: Exception
    ) -> WorkCompletion:
        """The sender-side completion of a request that did not succeed.

        No value, no result, no clock: the initiator learns the status (and
        the error's text as ``detail``) when it retires the completion,
        never through an exception at the post site (verbs semantics).
        """
        return WorkCompletion(
            wr_id=request.wr_id,
            opcode=request.opcode,
            status=status,
            origin=self.origin,
            peer=self.peer,
            posted_at=request.posted_at,
            completed_at=self._sim._now,
            detail=str(error),
        )

    def _execute_op(self, request: WorkRequest) -> Generator:
        """Opcode dispatch of :meth:`_execute` (everything but UD failure)."""
        if request.opcode is Opcode.SEND:
            completion = yield from self._execute_send(request)
            return completion
        target_registry = self._context.peer_context(request.target.rank).registry
        try:
            target_registry.validate(request.rkey, request.target)
        except RemoteAccessError as error:
            # Protection fault: no memory is touched.
            return self._failed(request, CompletionStatus.REMOTE_ACCESS_ERROR, error)

        # One NIC entry per opcode: whether the target crosses the wire (a
        # verbs loopback does not) is the NIC's decision, not this layer's.
        nic = self._context.nic
        snapshot = request.clock_snapshot
        if request.opcode is Opcode.PUT:
            result = yield from nic.rdma_put(
                request.value, request.target, symbol=request.symbol,
                clock_snapshot=snapshot,
            )
        elif request.opcode is Opcode.GET:
            result = yield from nic.rdma_get(
                request.target, symbol=request.symbol, clock_snapshot=snapshot
            )
        elif request.opcode is Opcode.FETCH_ADD:
            result = yield from nic.fetch_add(
                request.target, request.value, symbol=request.symbol,
                clock_snapshot=snapshot,
            )
        elif request.opcode is Opcode.COMPARE_AND_SWAP:
            result = yield from nic.compare_and_swap(
                request.target, request.compare, request.value,
                symbol=request.symbol, clock_snapshot=snapshot,
            )
        else:  # pragma: no cover - exhaustive over Opcode
            raise ValueError(f"unknown opcode {request.opcode!r}")

        if nic.recorder is not None:
            nic.recorder.record_operation(
                result, symbol=request.symbol, posted_time=request.posted_at
            )
        completion = WorkCompletion(
            wr_id=request.wr_id,
            opcode=request.opcode,
            status=CompletionStatus.SUCCESS,
            origin=self.origin,
            peer=self.peer,
            value=None if request.opcode is Opcode.PUT else result.value,
            result=result,
            posted_at=request.posted_at,
            completed_at=self._sim._now,
        )
        self._attach_sync_clock(completion, result, snapshot)
        return completion

    def _attach_sync_clock(self, completion, result, snapshot) -> None:
        """Stamp the batched clock-transport payload onto one completion.

        The datum clock the operation left behind (post-check, including any
        owner tick) joins this queue pair's running service clock; the
        completion carries a copy of the join plus its service-order
        sequence.  Retiring it is how the origin finally learns what its
        posted operation did — and, via the batch, everything the queue pair
        serviced before it (the RC in-order guarantee makes that sound).
        """
        if snapshot is None or result.check is None or not result.check.datum_access_clock:
            return  # detection off, or an unsnapshotted (non-posted) path
        check = result.check
        prev_epoch = self._serviced_epoch
        if self._serviced_clock is None:
            self._serviced_clock = VectorClock.from_entries(check.datum_access_clock)
            self._serviced_shared = False
            self._serviced_epoch = check.datum_epoch
        elif (
            prev_epoch is not None
            and check.datum_access_clock[prev_epoch[0]] >= prev_epoch[1]
        ):
            # The new datum clock dominates everything serviced so far (O(1)
            # epoch probe — see repro.core.clocks.Epoch), so the join IS the
            # new clock: replace instead of merging.  Back-to-back posted
            # accesses to owner-ticked cells take this path for the whole
            # burst, amortizing the O(n) join the slow path pays per access.
            self._serviced_clock = VectorClock.from_entries(check.datum_access_clock)
            self._serviced_shared = False
            self._serviced_epoch = check.datum_epoch
            self.sync_joins_elided += 1
        else:
            # Genuine join.  The running annotation survives only with the
            # reverse O(1) witness (the datum was already inside the join);
            # and if the current object is aliased by an earlier completion,
            # merge into a fresh one — completions are immutable history.
            self._serviced_epoch = (
                prev_epoch
                if check.datum_epoch is not None
                and self._serviced_clock.component(check.datum_epoch[0])
                >= check.datum_epoch[1]
                else None
            )
            datum_clock = VectorClock.from_entries(check.datum_access_clock)
            if self._serviced_shared:
                self._serviced_clock = self._serviced_clock.merged(datum_clock)
                self._serviced_shared = False
            else:
                self._serviced_clock.merge_in_place(datum_clock)
            self.sync_joins_performed += 1
        self._service_seq += 1
        completion.sync_clock = self._serviced_clock
        self._serviced_shared = True
        completion.sync_seq = self._service_seq

    def _execute_send(self, request: WorkRequest) -> Generator:
        """Run one two-sided SEND; returns the sender-side completion.

        The matched receive's completion is delivered to the *peer* context's
        receive CQ as a side effect — including on a length error, where the
        consumed buffer must still be reported to its poster.
        """
        nic = self._context.nic
        target_context = self._context.peer_context(self.peer)
        recv_queue = target_context.receive_queue_from(self.origin)
        credit_gate = recv_queue.credit_gate or credit_gate_for(recv_queue, self._sim)
        values = list(request.payload or ())
        if request.gather_from:
            # The gather half of scatter/gather: read the local cells through
            # the NIC (instrumented like any public-memory access) and append
            # them to the inline payload.
            for address in request.gather_from:
                read = yield from nic.local_read(address, symbol=request.symbol)
                values.append(read.value)
        try:
            result, recv_wr, carried_clock = yield from nic.send_payload(
                self.peer,
                values,
                lambda: recv_queue.match(self.origin),
                symbol=request.symbol,
                clock_snapshot=request.clock_snapshot,
                credit_gate=credit_gate,
            )
        except ReceiveLengthError as error:
            target_context.deliver_recv(
                WorkCompletion(
                    wr_id=error.recv_wr.wr_id,
                    opcode=Opcode.RECV,
                    status=CompletionStatus.LENGTH_ERROR,
                    origin=self.peer,
                    peer=self.origin,
                    addresses=error.recv_wr.addresses,
                    posted_at=error.recv_wr.posted_at,
                    completed_at=self._sim._now,
                    detail=str(error),
                )
            )
            return self._failed(request, CompletionStatus.LENGTH_ERROR, error)
        if nic.recorder is not None:
            nic.recorder.record_operation(
                result, symbol=request.symbol, posted_time=request.posted_at
            )
        now = self._sim._now
        # Positional, in field order: wr_id, opcode, status, origin, peer,
        # value, result, addresses, posted_at, completed_at, detail,
        # sync_clock.
        target_context.deliver_recv(
            WorkCompletion(
                recv_wr.wr_id, _RECV, _SUCCESS, self.peer, self.origin,
                tuple(values), result, recv_wr.addresses, recv_wr.posted_at,
                now, "", carried_clock,
            )
        )
        spans = self._obs.spans
        if spans.enabled:
            # The cross-rank half of the WR's flow: the sender's post (flow
            # start on rank-P{origin}) links to the delivery at the receiver.
            spans.flow_end(
                target_context.track, "wr", now,
                key=("wr", self.origin, request.wr_id),
            )
            spans.instant(
                target_context.track, "send_delivered", now,
                source=f"P{self.origin}", cells=len(values),
            )
        return WorkCompletion(
            request.wr_id, request.opcode, _SUCCESS, self.origin, self.peer,
            None, result, None, request.posted_at, now,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QueuePair P{self.origin}->P{self.peer} "
            f"outstanding={self.outstanding}>"
        )
