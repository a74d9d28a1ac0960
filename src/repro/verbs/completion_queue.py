"""Completion queues.

Real-verbs analogue: ``ibv_cq`` / ``ibv_poll_cq`` / ``ibv_req_notify_cq``.

A :class:`CompletionQueue` is where the NIC parks :class:`WorkCompletion`
records for the initiating process to retire.  Retirement is either
*polling* (:meth:`CompletionQueue.poll`, non-blocking, the busy-wait idiom of
latency-sensitive RDMA programs) or *waiting* (:meth:`CompletionQueue.wait`,
a generator the simulated process yields from, the blocking ``ibv_get_cq_event``
idiom).  A bounded CQ overflows when completions arrive faster than the
application retires them — a real verbs failure mode, reproduced here so
workloads must size their queues.

A CQ may additionally be attached to an
:class:`~repro.verbs.event_channel.EventChannel` (the ``ibv_comp_channel``
analogue): :meth:`CompletionQueue.arm` requests *one* notification
(``ibv_req_notify_cq``), delivered to the channel when the next completion
arrives — or immediately, if completions are already waiting, closing the
classic arm/poll race window.

:class:`CqModerationTimer` is the InfiniBand ``(cq_count, cq_usec)``
interrupt-moderation protocol (``ibv_modify_cq`` moderation attributes):
completions accumulate and flush as one CQE event on whichever bound trips
first — the count, or a timer armed when the batch opened.  Unlike the
per-drain-burst coalescing of ``cq_moderation=True``, the timer coalesces
*across* drain bursts and bounds the added retirement latency by
``cq_usec``.  Each armed timer's expiry routes through
:meth:`~repro.explore.controller.ScheduleController.on_cq_timer` as a
logged, replayable decision point — timer-expiry boundaries against
arriving completions are where lost-wakeup bugs live.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.obs.observability import Observability
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.verbs.work import WorkCompletion

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.event_channel import EventChannel


class CompletionQueueOverflow(RuntimeError):
    """Raised when a completion arrives at a full bounded completion queue."""


class CompletionQueue:
    """A FIFO of work completions integrated with the simulation kernel."""

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self._sim = sim
        self._capacity = capacity
        self.name = name or "cq"
        self._ready: List[WorkCompletion] = []
        self._armed: List[Event] = []
        self._total_pushed = 0
        self._events = 0
        self._channel: Optional["EventChannel"] = None
        self._notify_armed = False

    # -- producer side (queue pairs) -----------------------------------------------

    def _push_one(self, completion: WorkCompletion) -> None:
        if self._capacity is not None and len(self._ready) >= self._capacity:
            raise CompletionQueueOverflow(
                f"{self.name}: {len(self._ready)} unretired completions "
                f"(capacity {self._capacity}); poll or wait more often"
            )
        self._ready.append(completion)
        self._total_pushed += 1
        if self._armed:
            self._armed.pop(0).succeed(completion)
        self._maybe_notify()

    def push(self, completion: WorkCompletion) -> None:
        """Deliver one completion; wakes at most one waiter per completion."""
        self._push_one(completion)
        self._events += 1

    def push_batch(self, completions: List[WorkCompletion]) -> None:
        """Deliver a coalesced drain burst as ONE completion event.

        The CQ-moderation analogue: every completion in the burst becomes
        individually retirable (waiters wake exactly as under
        one-at-a-time delivery, so consumer semantics are unchanged), but
        the burst counts as a single CQE delivery in :attr:`events` — the
        figure the moderation benchmarks track.
        """
        for completion in completions:
            self._push_one(completion)
        if completions:
            self._events += 1

    # -- event-channel side (ibv_comp_channel) ----------------------------------------

    def set_channel(self, channel: "EventChannel") -> None:
        """Bind this CQ to an event channel (done by ``EventChannel.attach``).

        A CQ belongs to at most one channel for its lifetime, as in verbs
        (``ibv_create_cq`` takes the channel at creation).
        """
        if self._channel is not None and self._channel is not channel:
            raise ValueError(
                f"{self.name} is already attached to channel {self._channel.name}"
            )
        self._channel = channel

    @property
    def channel(self) -> Optional["EventChannel"]:
        """The event channel this CQ notifies, if any."""
        return self._channel

    def arm(self) -> None:
        """Request one notification on the attached channel (``ibv_req_notify_cq``).

        One arm buys one event: the channel is notified when the next
        completion arrives, then the CQ disarms until re-armed.  Arming a CQ
        that already holds unretired completions notifies immediately — the
        guard against the lost-wakeup race between polling and arming.
        """
        if self._channel is None:
            raise RuntimeError(f"{self.name} is not attached to an event channel")
        self._notify_armed = True
        self._maybe_notify()

    def _maybe_notify(self) -> None:
        if self._notify_armed and self._channel is not None and self._ready:
            self._notify_armed = False
            self._channel._notify(self)

    # -- consumer side --------------------------------------------------------------

    @staticmethod
    def _retire(completions: List[WorkCompletion]) -> List[WorkCompletion]:
        """Handing completions to the caller IS retirement: fire the hooks.

        Hooks fire newest-first: every completion in the batch is being
        claimed by the same poll/wait call, and retirement clock merges are
        commutative, so the order is semantically free — but firing the
        newest first lets the clock-transport layer's per-queue-pair
        batching elide the older siblings' joins (their batched clocks are
        dominated by the newest one's), which is what makes a burst of
        posts cost one clock merge per drain instead of one per access.
        """
        for completion in reversed(completions):
            completion.fire_retirement()
        return completions

    def poll(self, max_entries: Optional[int] = None) -> List[WorkCompletion]:
        """Retire up to *max_entries* available completions without blocking."""
        if max_entries is None or max_entries >= len(self._ready):
            out, self._ready = self._ready, []
            return self._retire(out)
        out = self._ready[:max_entries]
        del self._ready[:max_entries]
        return self._retire(out)

    def wait(self, count: int = 1):
        """Generator: block the calling process until *count* completions retire.

        Returns the list of retired completions, in delivery order.  Multiple
        processes may wait on one CQ; each delivered completion wakes exactly
        one of them.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        retired: List[WorkCompletion] = []
        spans = Observability.of(self._sim).spans
        while len(retired) < count:
            if self._ready:
                retired.append(self._ready.pop(0))
                continue
            gate = self._sim.event(name=f"{self.name}:wait")
            self._armed.append(gate)
            wait_started = self._sim.now
            yield gate
            # Blocked time on the process's own track: the critical-path
            # analyzer treats this as elastic wait ending at the delivery
            # that woke us.
            spans.complete(
                self._wait_track(), "cq_wait", wait_started, self._sim.now,
                cq=self.name,
            )
        return self._retire(retired)

    def _wait_track(self) -> str:
        """The rank track blocked waits render on (the CQ's own name if the
        queue is not rank-suffixed)."""
        tail = self.name.rsplit("P", 1)[-1] if "P" in self.name else ""
        return f"rank-P{tail}" if tail.isdigit() else self.name

    # -- inspection ------------------------------------------------------------------

    @property
    def capacity(self) -> Optional[int]:
        """Maximum number of unretired completions (``None`` = unbounded)."""
        return self._capacity

    @property
    def depth(self) -> int:
        """Completions currently available to retire."""
        return len(self._ready)

    @property
    def total_pushed(self) -> int:
        """Completions ever delivered to this queue."""
        return self._total_pushed

    @property
    def events(self) -> int:
        """Completion events (CQE deliveries) this queue has seen.

        Equal to :attr:`total_pushed` under one-at-a-time delivery; smaller
        under CQ moderation, where :meth:`push_batch` coalesces a whole
        drain burst into one event.
        """
        return self._events

    def __len__(self) -> int:
        return len(self._ready)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompletionQueue {self.name} depth={self.depth}>"


def validate_cq_moderation_timer(value) -> Optional[Tuple[int, float]]:
    """Validate a ``(cq_count, cq_usec)`` pair; ``None`` disables the timer."""
    if value is None:
        return None
    try:
        count, usec = value
    except (TypeError, ValueError):
        raise ValueError(
            f"cq_moderation_timer must be a (cq_count, cq_usec) pair, got {value!r}"
        ) from None
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"cq_count must be a positive integer, got {count!r}")
    usec = float(usec)
    if usec <= 0:
        raise ValueError(f"cq_usec must be positive, got {usec!r}")
    return count, usec


class CqModerationTimer:
    """``(cq_count, cq_usec)`` moderation over one context's send CQ.

    Completions delivered while the timer runs accumulate in a batch; the
    batch flushes as ONE completion event (via the context's
    ``deliver_burst``) when the *count* bound is reached, when the armed
    timer expires, or when a bounded CQ could not absorb one more pending
    completion.  The time a flushed batch spent accumulating is rendered as
    a ``timer_wait`` span on the rank's track, so the critical-path
    analyzer can attribute — and ``whatif`` rescale — moderation-added
    latency.
    """

    def __init__(self, context, count: int, usec: float) -> None:
        self._context = context
        self._sim = context.sim
        self.count = count
        self.usec = usec
        self._pending: List[WorkCompletion] = []
        self._generation = 0
        self._armed_at: Optional[float] = None
        #: Flushes by trigger, for tests and benchmarks.
        self.flushes = {"count": 0, "timer": 0, "capacity": 0}
        #: trigger -> its ``verbs.cq_timer_flushes`` counter, bound on first use.
        self._flush_counters: dict = {}

    @property
    def pending(self) -> int:
        """Completions accumulated and not yet flushed."""
        return len(self._pending)

    def submit(self, completion: WorkCompletion) -> None:
        """Accept one completion; flush on whichever bound trips first."""
        cq = self._context.cq
        if (
            cq.capacity is not None
            and self._pending
            and len(self._pending) >= cq.capacity - cq.depth
        ):
            # A bounded CQ cannot absorb the batch plus this completion:
            # flush early rather than overflow at the eventual timer.
            self._flush("capacity")
        if not self._pending:
            self._armed_at = self._sim.now
            self._arm()
        self._pending.append(completion)
        if len(self._pending) >= self.count:
            self._flush("count")

    def _arm(self) -> None:
        delay = self.usec
        controller = self._sim.controller
        if controller is not None:
            # The schedule controller owns the timer's expiry: stretching it
            # races the flush against arriving completions (a logged,
            # replayable decision), exactly as it owns RNR backoffs.
            delay = controller.on_cq_timer(self._context.rank, self.usec)
        generation = self._generation
        self._sim.call_after(
            delay,
            lambda: self._on_timer(generation),
            name=f"cq-timer:P{self._context.rank}",
        )

    def _on_timer(self, generation: int) -> None:
        if generation != self._generation:
            return  # the batch this timer was armed for already flushed
        self._flush("timer")

    def _flush(self, reason: str) -> None:
        self._generation += 1  # logically cancel the armed timer
        batch, self._pending = self._pending, []
        armed_at, self._armed_at = self._armed_at, None
        if not batch:
            return
        self.flushes[reason] += 1
        obs = Observability.of(self._sim)
        if armed_at is not None and self._sim.now > armed_at:
            obs.spans.complete(
                self._context.track, "timer_wait", armed_at, self._sim.now,
                reason=reason, coalesced=len(batch),
            )
        counter = self._flush_counters.get(reason)
        if counter is None:
            counter = self._flush_counters[reason] = obs.metrics.counter(
                "verbs.cq_timer_flushes", rank=self._context.rank, reason=reason
            )
        counter.inc()
        self._context.deliver_burst(batch)
