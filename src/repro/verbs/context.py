"""Per-rank verbs context: registration, queue pairs and completion handling.

Real-verbs analogue: ``ibv_context`` plus its protection domain
(``ibv_alloc_pd``), and the per-device factory ``ibv_create_comp_channel``.

:class:`VerbsContext` is the per-rank root object of the verbs layer.  It
owns the rank's :class:`~repro.verbs.memory_registration.MemoryRegistry`,
creates one :class:`~repro.verbs.queue_pair.QueuePair` per peer on demand
(all feeding a single default *send* completion queue, with two-sided receive
completions landing on a separate *receive* CQ), optionally owns one
:class:`~repro.verbs.receive_queue.SharedReceiveQueue` that every one of its
queue pairs drains from (declared at build with ``DSMRuntime.declare_srq``,
as ``ibv_create_qp`` names its SRQ at creation), and offers the bookkeeping
the runtime API builds on: post helpers for every opcode — including two-sided
``post_send`` / ``post_recv`` / ``post_srq_recv`` — and
``wait``/``wait_all`` generators that retire completions and match them back
to work requests.

The context helpers consume the default completion queues; programs that
poll a CQ directly (or drive it through an event channel) should not mix the
two styles on the same queue.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.memory.address import GlobalAddress
from repro.net.flow_control import credit_gate_for
from repro.net.nic import NIC
from repro.obs.observability import Observability
from repro.sim.engine import Simulator
from repro.util.ids import IdAllocator
from repro.verbs.completion_queue import CompletionQueue, CompletionQueueOverflow
from repro.verbs.event_channel import EventChannel
from repro.verbs.memory_registration import (
    MemoryRegistry,
    RegisteredMemoryRegion,
    RemoteAccessError,
)
from repro.verbs.queue_pair import QueuePair
from repro.verbs.receive_queue import (
    ReceiveQueue,
    ReceiveWorkRequest,
    SharedReceiveQueue,
)
from repro.verbs.work import Opcode, WorkCompletion, WorkRequest


class VerbsContext:
    """One rank's handle on the asynchronous (one- and two-sided) subsystem."""

    def __init__(self, sim: Simulator, nic: NIC) -> None:
        # Queue depths and ``cq_moderation`` are read from ``nic.config``
        # (the runtime's one config, which ``set_knob`` writes) where they
        # are used.
        self.sim = sim
        self.nic = nic
        self.rank = nic.rank
        cq_capacity = nic.config.verbs_cq_capacity
        self._obs = Observability.of(sim)
        #: opcode -> its (service, retire) latency histograms, bound on first use.
        self._latency: Dict[str, tuple] = {}
        #: Trace track for this rank's process-side verbs activity.
        self.track = f"rank-P{self.rank}"
        self.registry = MemoryRegistry(self.rank)
        self.cq = CompletionQueue(sim, capacity=cq_capacity, name=f"cq-P{self.rank}")
        #: Receive completions (matched two-sided sends) land here, away from
        #: the send CQ, so wait()/wait_all() bookkeeping and receive handling
        #: never contend for the same queue (a QP's send_cq/recv_cq split).
        self.recv_cq = CompletionQueue(
            sim, capacity=cq_capacity, name=f"recv-cq-P{self.rank}"
        )
        self._wr_ids = IdAllocator(f"wr-P{self.rank}")
        #: peer -> queue pair, created on first use.
        self.queue_pairs: Dict[int, QueuePair] = {}
        #: rank -> weak reference, for the reason ``NIC._peers`` gives; the
        #: runtime's ``verbs_contexts`` list keeps the contexts alive.
        self._peers: Dict[int, "weakref.ref[VerbsContext]"] = {
            self.rank: weakref.ref(self)
        }
        #: This rank's shared receive queue, set by ``DSMRuntime.declare_srq``
        #: before any queue pair exists; every queue pair drains from it.
        self.srq: Optional[SharedReceiveQueue] = None
        #: Receiver-side asynchronous errors, as ``(time, detail)`` pairs —
        #: the ``ibv_async_event`` channel in miniature (currently: receive
        #: CQ overflows, which lose the completion but not the payload).
        self.async_errors: List[tuple] = []
        #: Posted-but-unretired requests, by wr_id.
        self._outstanding: Dict[int, WorkRequest] = {}
        #: Retired-but-unclaimed completions, by wr_id.
        self._retired: Dict[int, WorkCompletion] = {}
        #: Per-peer highest service sequence whose batched clock has been
        #: merged at retirement; joins for earlier completions of the same
        #: queue pair are elided under the piggyback transport (their
        #: batched clock is dominated by what already merged).
        self._joined_seq: Dict[int, int] = {}

    # -- wiring -------------------------------------------------------------------

    def register_peer(self, context: "VerbsContext") -> None:
        """Make another rank's context reachable (for rkey validation)."""
        self._peers[context.rank] = weakref.ref(context)

    def peer_context(self, rank: int) -> "VerbsContext":
        """The context of *rank* (``KeyError`` if not registered)."""
        return self._peers[rank]()

    def queue_pair(self, peer: int) -> QueuePair:
        """Return (creating lazily) the queue pair to *peer*."""
        if peer not in self.queue_pairs:
            if peer != self.rank and peer not in self._peers:
                raise KeyError(f"rank {peer} has no registered verbs context")
            self.queue_pairs[peer] = QueuePair(self, peer)
        return self.queue_pairs[peer]

    # -- two-sided receive side -------------------------------------------------------

    def _declared_srq(self) -> SharedReceiveQueue:
        if self.srq is None:
            raise RuntimeError(f"rank {self.rank} declared no shared receive queue")
        return self.srq

    # -- SRQ limit events (IBV_EVENT_SRQ_LIMIT_REACHED analogue) -----------------------

    def arm_srq_limit(self, threshold: int) -> None:
        """Arm the SRQ's low-watermark event (``ibv_modify_srq`` with
        ``IBV_SRQ_LIMIT``): one event fires when the posted-buffer count
        drops below *threshold*, then the limit disarms until re-armed.
        """
        self._declared_srq().arm_limit(threshold)

    def take_srq_limit_event(self) -> bool:
        """Consume one pending SRQ limit event, if any fired since last taken.

        The miniature ``ibv_get_async_event`` loop: a server checks this
        from its completion handler and replenishes receives in bulk when it
        returns true.
        """
        return self._declared_srq().take_limit_event()

    def receive_queue_from(self, source: int) -> ReceiveQueue:
        """The queue incoming SENDs from *source* consume posted buffers from."""
        return self.queue_pair(source).recv_queue

    def credit_gate(self, source: int):
        """The credit gate guarding the receive queue facing *source*.

        Created (and wired to the queue's posts) on the queue's first SEND,
        so a run without two-sided traffic allocates none.  A queue pair
        draining from the SRQ shares the SRQ's gate with every other peer
        — the credit pool aggregates exactly like the buffer pool it
        mirrors.
        """
        return credit_gate_for(self.receive_queue_from(source), self.sim)

    def _make_recv_wr(
        self,
        addresses: Sequence[GlobalAddress],
        symbol: Optional[str],
        source: Optional[int] = None,
    ) -> ReceiveWorkRequest:
        request = ReceiveWorkRequest(
            wr_id=self._wr_ids.next_int(),
            addresses=tuple(addresses),
            symbol=symbol,
            posted_at=self.sim._now,
        )
        # Posting a receive is the permission point for the buffer: the
        # snapshot joins the matching send's clock at delivery, ordering the
        # scatter after everything this rank did before posting (and nothing
        # it does afterwards).
        self._stamp(request, self.rank if source is None else source, "recv_post")
        return request

    def post_recv(
        self,
        source: int,
        addresses: Sequence[GlobalAddress],
        symbol: Optional[str] = None,
    ) -> ReceiveWorkRequest:
        """Post a receive buffer for sends from *source* (``ibv_post_recv``).

        *addresses* is the scatter list — this rank's own cells, consumed in
        FIFO order by matching sends.  Posting through a queue pair whose
        receive side is the SRQ is rejected, as on real hardware.
        """
        queue_pair = self.queue_pair(source)
        if queue_pair.uses_srq:
            raise ValueError(
                f"queue pair P{self.rank}<-P{source} receives through the SRQ; "
                f"post with post_srq_recv"
            )
        return queue_pair.recv_queue.post(
            self._make_recv_wr(addresses, symbol, source=source)
        )

    def post_srq_recv(
        self,
        addresses: Sequence[GlobalAddress],
        symbol: Optional[str] = None,
    ) -> ReceiveWorkRequest:
        """Post a receive buffer to the SRQ (``ibv_post_srq_recv``)."""
        return self._declared_srq().post(self._make_recv_wr(addresses, symbol))

    # The context's per-operation instruments, each bound on first use as the
    # lock table's are: no label-sorting registry lookup per post, delivery
    # or retirement, and a context that never posts or receives still adds
    # no zero-valued instrument to a snapshot.

    @cached_property
    def _recv_completions(self):
        return self._obs.metrics.counter("verbs.recv_completions", rank=self.rank)

    @cached_property
    def _recv_cq_depth(self):
        return self._obs.metrics.gauge("verbs.recv_cq_depth", rank=self.rank)

    @cached_property
    def _wr_posted(self):
        return self._obs.metrics.counter("verbs.wr_posted", rank=self.rank)

    @cached_property
    def _wr_retired(self):
        return self._obs.metrics.counter("verbs.wr_retired", rank=self.rank)

    @cached_property
    def _outstanding_wrs(self):
        return self._obs.metrics.gauge("verbs.outstanding_wrs", rank=self.rank)

    @cached_property
    def _cq_depth(self):
        return self._obs.metrics.gauge("verbs.cq_depth", rank=self.rank)

    def deliver_recv(self, completion: WorkCompletion) -> None:
        """Called by a peer's queue pair when a send lands in our buffer.

        Delivery parks the completion on the receive CQ; *retirement* — this
        rank popping it — is the synchronization point of two-sided
        communication, so the completion carries a hook that merges the
        message's clock into this rank's clock at that moment.

        A bounded receive CQ that overflows is *this rank's* failure, not
        the sender's: the payload already landed and the sender's ack is on
        its way, but the completion — and with it the retirement
        synchronization — is lost.  Real hardware raises the async
        ``IBV_EVENT_CQ_ERR`` at the receiver; here the event is recorded in
        :attr:`async_errors` (and the run continues, with any later access
        to the unretired buffer correctly reported as unsynchronized).
        """
        if completion.sync_clock is not None:
            completion.on_retire = self._on_recv_retired
        try:
            self.recv_cq.push(completion)
        except CompletionQueueOverflow as error:
            self.async_errors.append((self.sim._now, str(error)))
            # An error event, not a per-operation one: looked up, not bound.
            self._obs.metrics.counter("verbs.cq_overflows", rank=self.rank).inc()
        else:
            self.nic.clock_transport.note_completion_event(
                1, carries_clock=completion.sync_clock is not None
            )
            self._recv_completions.inc()
            self._recv_cq_depth.set(self.recv_cq.depth)

    def _on_recv_retired(self, completion: WorkCompletion) -> None:
        detector = self.nic.detector
        if detector is not None and detector.config.enabled:
            detector.on_recv_complete(self.rank, completion.sync_clock)
        if self.nic.recorder is not None:
            self.nic.recorder.record_transfer(
                self.rank,
                completion.peer,
                time=self.sim._now,
                kind="recv_complete",
                clock=completion.sync_clock.frozen(),
            )

    def poll_recv(self) -> List[WorkCompletion]:
        """Retire whatever receive completions are ready, without blocking."""
        return self.recv_cq.poll()

    def wait_recv(self, count: int = 1):
        """Generator: block until *count* receive completions retire."""
        completions = yield from self.recv_cq.wait(count)
        return completions

    def create_event_channel(self, name: Optional[str] = None) -> EventChannel:
        """Create a completion event channel (``ibv_create_comp_channel``)."""
        return EventChannel(self.sim, name=name or f"comp-channel-P{self.rank}")

    # -- memory registration ---------------------------------------------------------

    def register_memory(self, region) -> RegisteredMemoryRegion:
        """Register one of this rank's memory regions for remote access."""
        return self.registry.register(region, registered_at=self.sim._now)

    def ensure_registered(self, address: GlobalAddress) -> int:
        """Return the rkey covering this rank's *address*, registering lazily.

        Models the runtime registering every shared symbol's region with the
        NIC the first time it is remotely addressed.  Raises
        :class:`RemoteAccessError` when no region covers the address.
        """
        if address.rank != self.rank:
            raise ValueError(
                f"context of rank {self.rank} asked to register {address}"
            )
        rkey = self.registry.rkey_covering(address)
        if rkey is not None:
            return rkey
        region = self.nic.memory.region_containing(address)
        if region is None:
            raise RemoteAccessError(
                f"no registered memory region covers {address} on rank {self.rank}"
            )
        return self.register_memory(region).rkey

    def remote_key(self, address: GlobalAddress) -> int:
        """The rkey for *address*, obtained from its owner (out-of-band exchange)."""
        return self.peer_context(address.rank).ensure_registered(address)

    # -- posting ----------------------------------------------------------------------

    def _post(
        self,
        opcode: Opcode,
        target: GlobalAddress,
        rkey: Optional[int],
        value: Any = None,
        compare: Any = None,
        symbol: Optional[str] = None,
    ) -> WorkRequest:
        if rkey is None:
            rkey = self.remote_key(target)
        request = WorkRequest(
            wr_id=self._wr_ids.next_int(),
            opcode=opcode,
            target=target,
            rkey=rkey,
            value=value,
            compare=compare,
            symbol=symbol,
        )
        return self._accept(request, target.rank, "wr_post")

    def _stamp(self, request, peer: int, kind: str) -> None:
        """The posting event of *request*: tick, snapshot, trace.

        Posting is itself an event, for every opcode and for receives: the
        poster's clock ticks and the request carries a snapshot of it — the
        clock the NIC engine will act from when it services the request
        (the unified clock-transport discipline).  The snapshot, not the
        live clock, is what keeps a posted-but-unwaited operation causally
        unordered with the poster's later accesses.
        """
        detector = self.nic.detector
        if detector is not None and detector.config.enabled:
            detector.local_event(self.rank)
            request.clock_snapshot = detector.current_clock(self.rank)
        if self.nic.recorder is not None:
            self.nic.recorder.record_transfer(
                self.rank, peer, time=self.sim._now, kind=kind
            )

    def _accept(self, request: WorkRequest, peer: int, kind: str) -> WorkRequest:
        """Post *request* to *peer*'s queue pair and book it, in that order.

        Tick, snapshot and register only after the queue pair accepted the
        request: a SendQueueFull must not leave a phantom entry that
        wait_all() would block on forever, nor a phantom trace event /
        clock tick for an operation that never existed — a rejected post is
        a non-event.  (Posting cannot complete synchronously — the drain
        process only runs once the simulator resumes — so setting the
        snapshot right after the post is equivalent to setting it before.)
        """
        self.queue_pair(peer).post(request)
        self._stamp(request, peer, kind)
        self._outstanding[request.wr_id] = request
        # Observability hooks for one accepted post (counters, flow start).
        self._wr_posted.inc()
        self._outstanding_wrs.set(len(self._outstanding))
        spans = self._obs.spans
        spans.instant(
            self.track,
            "wr_post",
            self.sim._now,
            wr_id=request.wr_id,
            opcode=request.opcode.value,
            destination=f"P{peer}",
        )
        # The flow is closed at retirement (same key, this rank's track) and,
        # for two-sided sends, at the receiver's delivery (cross-rank track).
        spans.flow_start(
            self.track, "wr", self.sim._now, key=("wr", self.rank, request.wr_id)
        )
        return request

    def post_put(
        self,
        target: GlobalAddress,
        value: Any,
        rkey: Optional[int] = None,
        symbol: Optional[str] = None,
    ) -> WorkRequest:
        """Post a one-sided write; returns immediately."""
        return self._post(Opcode.PUT, target, rkey, value=value, symbol=symbol)

    def post_get(
        self,
        target: GlobalAddress,
        rkey: Optional[int] = None,
        symbol: Optional[str] = None,
    ) -> WorkRequest:
        """Post a one-sided read; the completion carries the value."""
        return self._post(Opcode.GET, target, rkey, symbol=symbol)

    def post_fetch_add(
        self,
        target: GlobalAddress,
        amount: Any = 1,
        rkey: Optional[int] = None,
        symbol: Optional[str] = None,
    ) -> WorkRequest:
        """Post an atomic fetch-and-add; the completion carries the old value."""
        return self._post(Opcode.FETCH_ADD, target, rkey, value=amount, symbol=symbol)

    def post_compare_and_swap(
        self,
        target: GlobalAddress,
        expected: Any,
        desired: Any,
        rkey: Optional[int] = None,
        symbol: Optional[str] = None,
    ) -> WorkRequest:
        """Post an atomic compare-and-swap; the completion carries the old value."""
        return self._post(
            Opcode.COMPARE_AND_SWAP, target, rkey,
            value=desired, compare=expected, symbol=symbol,
        )

    def post_send(
        self,
        peer: int,
        values: Optional[Sequence[Any]] = None,
        gather_from: Optional[Sequence[GlobalAddress]] = None,
        symbol: Optional[str] = None,
    ) -> WorkRequest:
        """Post a two-sided SEND to *peer* (``IBV_WR_SEND``); returns immediately.

        The payload is *values* (inline cells) plus, appended at service time,
        the current contents of the local *gather_from* addresses — the SGE
        gather list.  Where it lands is the peer's business: a posted receive
        buffer, consumed in FIFO order.  An empty payload is a legal
        zero-length send, pure synchronization.

        Posting is itself an event: the sender's clock ticks and the request
        carries a snapshot of it, which the matching receive merges into the
        receiver's clock (the message-passing happens-before edge).  The
        snapshot — not the live clock — is what keeps a receiver that reuses
        its posted buffer mid-flight visible to the detector.
        """
        for address in gather_from or ():
            if address.rank != self.rank:
                raise ValueError(
                    f"send gather address {address} is not local to rank {self.rank}"
                )
        request = WorkRequest(
            wr_id=self._wr_ids.next_int(),
            opcode=Opcode.SEND,
            target=None,
            rkey=None,
            peer=peer,
            payload=tuple(values or ()),
            gather_from=tuple(gather_from) if gather_from else None,
            symbol=symbol,
        )
        return self._accept(request, peer, "send_post")

    # -- throttled posting (wait for a send slot, then post) -------------------------------

    def post_put_throttled(
        self,
        target: GlobalAddress,
        value: Any,
        rkey: Optional[int] = None,
        symbol: Optional[str] = None,
    ):
        """Generator: :meth:`post_put` once the queue pair has a free send slot.

        The plain post raises :class:`~repro.verbs.queue_pair.SendQueueFull`
        on a full send queue, since it cannot yield; this one parks the
        posting process until a completion frees a slot.
        """
        yield from self.queue_pair(target.rank).wait_send_slot()
        return self.post_put(target, value, rkey=rkey, symbol=symbol)

    def post_send_throttled(
        self,
        peer: int,
        values: Optional[Sequence[Any]] = None,
        gather_from: Optional[Sequence[GlobalAddress]] = None,
        symbol: Optional[str] = None,
    ):
        """Generator: :meth:`post_send` once the queue pair has a free send slot.

        The posting event — the sender's clock tick and snapshot — happens
        when the slot is granted, not when the caller first asked: a blocked
        post has not happened yet, so nothing it later sends can claim to
        precede the completions that unblocked it.
        """
        yield from self.queue_pair(peer).wait_send_slot()
        return self.post_send(peer, values, gather_from=gather_from, symbol=symbol)

    # -- completion handling -----------------------------------------------------------

    def deliver(self, completion: WorkCompletion) -> None:
        """Called by a queue pair when a request finishes (CQ delivery).

        A completion carrying a clock (every successful posted one-sided
        operation under detection) installs a retirement hook: popping it
        from the CQ is when the initiator finally synchronizes with its
        operation's effect — until then, poster and effect stay causally
        unordered.
        """
        if completion.sync_clock is not None:
            completion.on_retire = self._on_wr_retired
        self.cq.push(completion)
        # Booked only after the push: an overflowing CQ must not leave the
        # stats claiming completion traffic that never reached the queue.
        self.nic.clock_transport.note_completion_event(
            1, carries_clock=completion.sync_clock is not None
        )
        self._cq_depth.set(self.cq.depth)

    def deliver_burst(self, completions: List[WorkCompletion]) -> None:
        """Deliver a coalesced drain burst to the send CQ (CQ moderation).

        Each completion keeps its own retirement hook and batched clock —
        the origin may retire them in any order, and every retirement still
        merges exactly what one-at-a-time delivery would have merged (the
        per-queue-pair join batching makes the older siblings' joins
        dominated anyway) — but the burst counts as ONE completion event,
        and the batched retirement clock it carries is charged once, not
        once per completion.  That is the completion-traffic saving the
        model books for moderation.  Each execution is judged the same, but
        the CQ's visibility timing moves, so a timing-dependent program may
        run a different execution (:mod:`repro.runtime.knobs`).
        """
        for completion in completions:
            if completion.sync_clock is not None:
                completion.on_retire = self._on_wr_retired
        self.cq.push_batch(completions)
        # Booked only after the batch landed (see deliver()).
        self.nic.clock_transport.note_completion_event(
            len(completions),
            carries_clock=any(c.sync_clock is not None for c in completions),
        )
        self._cq_depth.set(self.cq.depth)

    def _on_wr_retired(self, completion: WorkCompletion) -> None:
        """Merge a retired one-sided completion's batched clock, once useful.

        Under the ``"piggyback"`` transport, a completion whose queue pair
        already merged a later (dominating) batched clock is elided — a
        burst of posts retired together costs one clock join per drain, not
        one per access.  The ``"roundtrip"`` transport joins per completion,
        as Algorithm 5 would; the resulting clocks are identical (the
        batched clock of the newest completion dominates its siblings'), so
        the elision never moves a verdict.
        """
        detector = self.nic.detector
        transport = self.nic.clock_transport
        if detector is None or not detector.config.enabled:
            return
        last = self._joined_seq.get(completion.peer, 0)
        if transport.piggyback and completion.sync_seq <= last:
            transport.note_join(performed=False)
            return
        detector.on_completion_retired(self.rank, completion.sync_clock)
        self._joined_seq[completion.peer] = max(last, completion.sync_seq)
        transport.note_join(performed=True)
        if self.nic.recorder is not None:
            self.nic.recorder.record_transfer(
                self.rank,
                completion.peer,
                time=self.sim._now,
                kind="wr_retire",
                clock=completion.sync_clock.frozen(),
            )

    def _file(self, completions: Iterable[WorkCompletion]) -> None:
        for completion in completions:
            self._outstanding.pop(completion.wr_id, None)
            self._retired[completion.wr_id] = completion
            self._wr_retired.inc()
            # Per-op latency split: post→completion is NIC service + transfer
            # time; completion→retire is how long the CQE sat unclaimed.
            opcode = completion.opcode.value
            latency = self._latency.get(opcode)
            if latency is None:
                latency = self._latency[opcode] = tuple(
                    self._obs.metrics.histogram(name, layout="sim_time", opcode=opcode)
                    for name in ("verbs.latency.service", "verbs.latency.retire")
                )
            latency[0].observe(completion.completed_at - completion.posted_at)
            latency[1].observe(self.sim._now - completion.completed_at)
            self._obs.spans.flow_end(
                self.track,
                "wr",
                self.sim._now,
                key=("wr", self.rank, completion.wr_id),
            )
            self._obs.spans.instant(
                self.track,
                "wr_retire",
                self.sim._now,
                wr_id=completion.wr_id,
                opcode=completion.opcode.value,
                status=completion.status.value,
            )
        self._outstanding_wrs.set(len(self._outstanding))

    def poll(self) -> List[WorkCompletion]:
        """Retire whatever is ready, without blocking; claims the completions."""
        self._file(self.cq.poll())
        out = [self._retired[key] for key in sorted(self._retired)]
        self._retired.clear()
        return out

    def completion_of(self, request: WorkRequest) -> Optional[WorkCompletion]:
        """The retired completion of *request*, or ``None`` if still in flight."""
        self._file(self.cq.poll())
        return self._retired.get(request.wr_id)

    @property
    def outstanding_count(self) -> int:
        """Requests posted but not yet retired by this context's helpers."""
        self._file(self.cq.poll())
        return len(self._outstanding)

    def wait(self, requests: Iterable[WorkRequest]):
        """Generator: block until every request in *requests* has completed.

        Returns the completions in the order of *requests* and claims them.
        Waiting on a request whose completion was already claimed (or that
        was never posted through this context) raises immediately — the
        completion can never arrive, so blocking would strand the process.
        """
        wanted = list(requests)
        self._file(self.cq.poll())
        for request in wanted:
            if (
                request.wr_id not in self._retired
                and request.wr_id not in self._outstanding
            ):
                raise ValueError(
                    f"work request {request.wr_id} is not outstanding on rank "
                    f"{self.rank}: its completion was already claimed, or it "
                    f"was posted through a different context"
                )
        while any(request.wr_id not in self._retired for request in wanted):
            ready = yield from self.cq.wait(1)
            self._file(ready)
        claimed: Dict[int, WorkCompletion] = {}
        for request in wanted:
            if request.wr_id not in claimed:
                claimed[request.wr_id] = self._retired.pop(request.wr_id)
        return [claimed[request.wr_id] for request in wanted]

    def wait_all(self):
        """Generator: block until every outstanding request has completed.

        Returns all unclaimed completions in posting (wr_id) order.
        """
        self._file(self.cq.poll())
        while self._outstanding:
            ready = yield from self.cq.wait(1)
            self._file(ready)
        out = [self._retired[key] for key in sorted(self._retired)]
        self._retired.clear()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VerbsContext P{self.rank} qps={len(self.queue_pairs)} "
            f"outstanding={len(self._outstanding)}>"
        )
