"""Credit-based flow control: receivers grant credits, senders stall locally.

A two-sided SEND may only land in a receive buffer its target has posted.
Every posted receive buffer is one **credit**; a sender **claims** a credit
locally before transmitting, and a sender that finds no credit **stalls at
home** — zero bytes on the wire — until the receiver's next post grants one.

The accounting invariant:

* ``available = queue.depth - claims`` never goes negative;
* a claim is taken *before* the SEND's first transmission and **settled**
  (released) when the send matches the buffer the claim reserved, so every
  in-flight SEND has a buffer reserved for it and the match always finds
  one; a SEND that dies before matching (its datagrams exhausted the UD
  retransmission budget) **returns** its claim, and the returned credit is
  granted like a freshly posted one;
* matching stays strictly FIFO — credits carry no addressing, they are
  pure admission control.

Consequently every payload is transmitted exactly once, and the
schedule-space effects are confined to *when* a stalled sender resumes —
which is why the grant wake-up routes through
:meth:`~repro.explore.controller.ScheduleController.on_credit_grant` as a
logged, replayable, fuzzable decision point.  A receiver that never posts
leaves its sender parked on the gate; the run ends with that sender named in
:attr:`~repro.runtime.runtime.RunResult.blocked`.

One :class:`CreditGate` guards one receive queue.  A per-QP queue has one
claiming sender; a shared receive queue's gate is shared by every attached
peer, making the credit pool aggregate exactly like the SRQ buffer pool it
mirrors.  A gate and its instruments are created with the queue's first
SEND, so a run without two-sided traffic carries none of them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.obs.observability import Observability


class CreditGate:
    """Admission control over one receive queue's posted-buffer pool.

    Senders call :meth:`try_claim` before transmitting; a successful claim
    reserves one posted buffer until :meth:`settle` releases it at match
    time.  Senders that fail to claim park an event via
    :meth:`enqueue_waiter` and are woken one-per-post by the queue's post
    listener, with the wake-up timing owned by the schedule controller.
    """

    def __init__(self, queue, sim) -> None:
        # The gate keeps no reference to its queue: the queue holds the gate
        # (its post listener), and a reference back would leave every
        # finished run to the cyclic collector.
        self._sim = sim
        self.rank = queue.rank
        #: Credits a sender could claim right now: buffers posted and
        #: unconsumed (the queue's depth) less the claims reserving them.
        #: Counted here — one per post, one per claim — since the claim
        #: happens on every SEND.
        self.available = queue.depth
        self._claims = 0
        self._waiters: Deque[Tuple[object, int]] = deque()
        metrics = Observability.of(sim).metrics
        self._stall_counter = metrics.counter(
            "flow_control.credit_stalls", rank=self.rank
        )
        self._grant_counter = metrics.counter(
            "flow_control.credit_grants", rank=self.rank
        )
        #: Senders that found no credit and parked (lifetime total).
        self.stalls = 0
        #: Grants handed to parked senders (lifetime total).
        self.grants = 0

    # -- sender side --------------------------------------------------------------

    def try_claim(self) -> bool:
        """Reserve one posted buffer; False when the pool is exhausted."""
        if self.available <= 0:
            return False
        self.available -= 1
        self._claims += 1
        return True

    def settle(self) -> None:
        """Release one claim (the claimed buffer was consumed by its match,
        so the pool of available credits is unchanged)."""
        if self._claims <= 0:
            raise RuntimeError(
                f"credit gate for rank {self.rank}: settle without a claim"
            )
        self._claims -= 1

    def release(self) -> None:
        """Return the claim of a SEND that will never match its buffer.

        The buffer the claim reserved is still posted, so the credit is back
        in the pool — a grant like any post's, through the same
        controller-owned wake-up: a gate guarding an SRQ is shared by
        several senders, and the credit the failed one held may be the only
        thing the oldest parked sender was waiting for.
        """
        self.settle()
        self.on_posted()

    def enqueue_waiter(self, event, sender: int) -> None:
        """Park a stalled sender's wake-up event until a post grants a credit."""
        self.stalls += 1
        self._stall_counter.inc()
        self._waiters.append((event, sender))

    @property
    def waiting(self) -> int:
        """Senders currently parked on this gate."""
        return len(self._waiters)

    # -- receiver side (wired as the queue's post listener) ------------------------

    def on_posted(self) -> None:
        """One credit entered the pool: grant it to the oldest waiter.

        Called for every posted buffer, and by :meth:`release` for a claim
        handed back (its buffer is still posted).

        The wake-up delay is a controlled choice point — stretching a grant
        decides which of several stalled senders claims a contested buffer
        first.  A woken sender re-checks :meth:`try_claim`, so a grant
        "stolen" by a sender that never parked simply re-parks the waiter.
        """
        self.available += 1
        if not self._waiters:
            return
        event, sender = self._waiters.popleft()
        self.grants += 1
        self._grant_counter.inc()
        extra = 0.0
        controller = self._sim.controller
        if controller is not None:
            extra = controller.on_credit_grant(self.rank, sender)
        if extra > 0:
            self._sim.call_after(
                extra, event.succeed, name=f"credit-grant:P{self.rank}"
            )
        else:
            event.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CreditGate rank={self.rank} available={self.available} "
            f"claims={self._claims} waiting={self.waiting}>"
        )


def credit_gate_for(queue, sim) -> CreditGate:
    """The gate guarding *queue*, created (and wired to posts) on first use."""
    gate = queue.credit_gate
    if gate is None:
        gate = queue.credit_gate = CreditGate(queue, sim)
        queue.set_post_listener(gate.on_posted)
    return gate
