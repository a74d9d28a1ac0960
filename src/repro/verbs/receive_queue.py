"""Posted receive buffers: per-QP receive queues and shared receive queues.

Real-verbs analogue: ``ibv_post_recv``, ``ibv_recv_wr`` and ``ibv_srq`` /
``ibv_post_srq_recv``.

The two-sided half of the verbs model inverts the one-sided contract: the
*receiver* decides where incoming data lands by posting
:class:`ReceiveWorkRequest` buffers — scatter lists of its own addresses —
before the matching SEND arrives.  Matching is strictly FIFO (verbs has no
tag matching: the first posted receive consumes the first arriving send).  A
sender claims a posted buffer before it transmits
(:class:`repro.net.flow_control.CreditGate`), so a match that finds the queue
empty (:class:`RecvQueueEmpty`) means that admission control was bypassed.

Two flavours:

* :class:`ReceiveQueue` — one queue pair's private receive queue: only sends
  from that QP's peer consume from it;
* :class:`SharedReceiveQueue` — the ``ibv_srq`` analogue: one pool of posted
  buffers that *every* queue pair of its rank drains from, so a server sizes
  its buffering for aggregate load instead of per-client worst case.  It is
  declared at build (``DSMRuntime.declare_srq``), before any queue pair
  exists.  Per-source match counters record which peers actually consumed
  buffers.  An SRQ also carries the low-watermark *limit* event of real
  hardware (``IBV_EVENT_SRQ_LIMIT_REACHED`` via
  ``ibv_modify_srq``/``IBV_SRQ_LIMIT``): arm a threshold and one asynchronous
  event fires when the pool drops below it — the hook servers use to
  replenish receives in bulk instead of one per completion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Optional, Tuple

from repro.memory.address import GlobalAddress
from repro.net.nic import ReceiverNotReady
from repro.util.validation import require_positive


class ReceiveQueueFull(RuntimeError):
    """Raised when posting to a receive queue already at ``max_wr`` capacity."""


class RecvQueueEmpty(ReceiverNotReady):
    """A SEND arrived (or a match was attempted) with no receive posted.

    Subclasses the NIC-level :class:`~repro.net.nic.ReceiverNotReady`, the
    net layer's name for the condition, so the net layer never imports the
    verbs package.
    """


@dataclass
class ReceiveWorkRequest:
    """One posted receive buffer: a scatter list of receiver-local addresses.

    The verbs analogue is an ``ibv_recv_wr`` whose SGE list names
    ``len(addresses)`` cells.  A matched SEND deposits payload cell *i* into
    ``addresses[i]``; a payload shorter than the buffer leaves the tail cells
    untouched, a longer one is a length error that consumes the buffer
    without writing anything.

    ``clock_snapshot`` is the receiver's vector clock captured when the
    buffer was posted: posting is the permission point — a matched delivery
    is causally *after both* the SEND post and this RECV post, so the scatter
    writes carry the merge of the two snapshots.  That is what lets a
    reposted buffer absorb sends from unsynchronized peers without a race
    report, while a buffer scribbled on *after* posting still races with the
    in-flight payload.
    """

    wr_id: int
    addresses: Tuple[GlobalAddress, ...]
    symbol: Optional[str] = None
    posted_at: float = 0.0
    clock_snapshot: object = None

    @property
    def capacity(self) -> int:
        """Number of cells this buffer can absorb."""
        return len(self.addresses)

    def __str__(self) -> str:
        return f"recv-wr#{self.wr_id} ({self.capacity} cells)"


class ReceiveQueue:
    """A FIFO of posted receives, consumed in order by matching sends."""

    def __init__(self, rank: int, max_wr: int = 128, name: Optional[str] = None) -> None:
        require_positive(max_wr, "max_wr")
        self.rank = rank
        self.max_wr = max_wr
        self.name = name or f"rq-P{rank}"
        self._pending: Deque[ReceiveWorkRequest] = deque()
        self.posted = 0
        self.matched = 0
        #: Buffers consumed per sending rank (who actually drained us).
        self.matched_by: Dict[int, int] = {}
        self._post_listener = None
        #: The :class:`~repro.net.flow_control.CreditGate` guarding this
        #: queue, created on its first SEND (``credit_gate_for``).
        self.credit_gate = None

    def set_post_listener(self, listener) -> None:
        """Install a callback fired after every successful post.

        Credit-based flow control hooks this: each posted buffer is one
        credit, and the listener is where a stalled sender's grant is
        scheduled (see :class:`repro.net.flow_control.CreditGate`).
        """
        self._post_listener = listener

    # -- posting (receiver side) ---------------------------------------------------

    def post(self, request: ReceiveWorkRequest) -> ReceiveWorkRequest:
        """Append *request*; raises :class:`ReceiveQueueFull` at capacity.

        Every scatter address must be local to the owning rank: a receive
        buffer is the receiver's own memory by definition.
        """
        for address in request.addresses:
            if address.rank != self.rank:
                raise ValueError(
                    f"{self.name}: receive buffer address {address} is not "
                    f"local to rank {self.rank}"
                )
        if len(self._pending) >= self.max_wr:
            raise ReceiveQueueFull(
                f"{self.name}: {len(self._pending)} receives already posted "
                f"(max {self.max_wr})"
            )
        self._pending.append(request)
        self.posted += 1
        if self._post_listener is not None:
            self._post_listener()
        return request

    # -- matching (target NIC side) --------------------------------------------------

    def match(self, source: int) -> ReceiveWorkRequest:
        """Consume and return the head receive for a SEND from *source*.

        Raises :class:`RecvQueueEmpty` when nothing is posted (a sender
        that skipped its credit claim).
        """
        if not self._pending:
            raise RecvQueueEmpty(
                f"{self.name}: no receive posted for send from rank {source}"
            )
        request = self._pending.popleft()
        self.matched += 1
        self.matched_by[source] = self.matched_by.get(source, 0) + 1
        return request

    # -- inspection -------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Receives currently posted and unconsumed."""
        return len(self._pending)

    def pending(self) -> Iterable[ReceiveWorkRequest]:
        """The unconsumed receives, head first (for tests and debugging)."""
        return tuple(self._pending)

    def __len__(self) -> int:
        return len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} depth={self.depth}>"


class SharedReceiveQueue(ReceiveQueue):
    """An ``ibv_srq``: one receive pool drained by every queue pair of its rank.

    Mechanically identical to a :class:`ReceiveQueue` — FIFO consumption,
    bounded posting, an error on empty — but shared: each queue pair of the
    rank takes this object as its receive side when it is created, so sends
    from *any* peer consume from the common pool in arrival order.
    """

    def __init__(self, rank: int, max_wr: int = 128, name: Optional[str] = None) -> None:
        super().__init__(rank, max_wr=max_wr, name=name or f"srq-P{rank}")
        self._limit = 0
        #: Low-watermark events fired over this SRQ's lifetime, and those
        #: not yet taken by :meth:`take_limit_event`.
        self.limit_events_fired = 0
        self.limit_events_pending = 0

    # -- limit events (IBV_EVENT_SRQ_LIMIT_REACHED) -----------------------------------

    @property
    def limit(self) -> int:
        """The armed low watermark (0 when disarmed)."""
        return self._limit

    def arm_limit(self, threshold: int) -> None:
        """Arm a one-shot low-watermark event at *threshold* posted buffers.

        The verbs contract: the event fires when a consumed receive drops
        the pool strictly below the limit, then the limit resets to zero
        (disarmed) until the application re-arms it — one warning per
        replenish cycle, not a storm.
        """
        require_positive(threshold, "threshold")
        if threshold > self.max_wr:
            raise ValueError(
                f"{self.name}: limit {threshold} exceeds queue capacity {self.max_wr}"
            )
        self._limit = threshold

    def take_limit_event(self) -> bool:
        """Consume one pending limit event, if any fired since last taken."""
        if self.limit_events_pending:
            self.limit_events_pending -= 1
            return True
        return False

    def match(self, source: int) -> ReceiveWorkRequest:
        request = super().match(source)
        if self._limit and len(self._pending) < self._limit:
            self._limit = 0
            self.limit_events_fired += 1
            self.limit_events_pending += 1
        return request
