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
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, List, Optional

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
        #: The attached channel, held weakly: the channel holds its CQs, and
        #: a strong reference back would leave every run that uses one to
        #: the cyclic collector.
        self._channel: Optional["weakref.ref[EventChannel]"] = None
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
        attached = self.channel
        if attached is not None and attached is not channel:
            raise ValueError(
                f"{self.name} is already attached to channel {attached.name}"
            )
        self._channel = weakref.ref(channel)

    @property
    def channel(self) -> Optional["EventChannel"]:
        """The event channel this CQ notifies, if any."""
        return None if self._channel is None else self._channel()

    def arm(self) -> None:
        """Request one notification on the attached channel (``ibv_req_notify_cq``).

        One arm buys one event: the channel is notified when the next
        completion arrives, then the CQ disarms until re-armed.  Arming a CQ
        that already holds unretired completions notifies immediately — the
        guard against the lost-wakeup race between polling and arming.
        """
        if self.channel is None:
            raise RuntimeError(f"{self.name} is not attached to an event channel")
        self._notify_armed = True
        self._maybe_notify()

    def _maybe_notify(self) -> None:
        if self._notify_armed and self._ready:
            channel = self.channel
            if channel is not None:
                self._notify_armed = False
                channel._notify(self)

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
            wait_started = self._sim._now
            yield gate
            # Blocked time on the process's own track: the critical-path
            # analyzer treats this as elastic wait ending at the delivery
            # that woke us.
            spans.complete(
                self._wait_track(), "cq_wait", wait_started, self._sim._now,
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

