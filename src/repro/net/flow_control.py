"""Credit-based flow control: receivers grant credits, senders stall locally.

The RNR retry protocol (the default, ``flow_control="rnr"``) is
*reactive*: a SEND that finds no posted receive is answered with a NAK, the
sender backs off and retransmits, and a saturated receiver turns every
sender into a retry storm — each retry is a full extra message on the
fabric.  Credit-based flow control (``flow_control="credit"``) is
*proactive*, the scheme real RC implementations layer on top of RNR as
end-to-end flow control: every posted receive buffer is one **credit**, a
sender **claims** a credit locally before transmitting, and a sender that
finds no credit **stalls at home** — zero bytes on the wire — until the
receiver's next post grants one.

The accounting invariant that makes the two modes verdict-identical:

* ``available = queue.depth - claims`` never goes negative;
* a claim is taken *before* the SEND's first transmission and **settled**
  (released) when the send matches the buffer the claim reserved, so every
  in-flight SEND has a buffer reserved for it and the match can never hit
  the RNR condition; a SEND that dies before matching (its datagrams
  exhausted the UD retransmission budget) **returns** its claim, and the
  returned credit is granted like a freshly posted one;
* matching stays strictly FIFO — credits carry no addressing, they are
  pure admission control, so the receive a send consumes is exactly the
  one the RNR protocol would have matched.

Consequently credit mode transmits every payload exactly once (RNR mode
transmits ``1 + retries`` times) and the schedule-space effects are
confined to *when* a stalled sender resumes — which is why the grant
wake-up routes through
:meth:`~repro.explore.controller.ScheduleController.on_credit_grant` as a
logged, replayable, fuzzable decision point.

One :class:`CreditGate` guards one receive queue.  A per-QP queue has one
claiming sender; a shared receive queue's gate is shared by every attached
peer, making the credit pool aggregate exactly like the SRQ buffer pool it
mirrors.  All gate instruments are created lazily with the gate itself, so
runs in RNR mode (the default) carry zero extra footprint.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.obs.observability import Observability

#: The admission-control protocols a runtime can select.
FLOW_CONTROL_MODES = ("rnr", "credit")


def validate_flow_control(mode: str) -> str:
    """Validate and return a flow-control mode name."""
    if mode not in FLOW_CONTROL_MODES:
        raise ValueError(
            f"flow_control must be one of {FLOW_CONTROL_MODES}, got {mode!r}"
        )
    return mode


class CreditGate:
    """Admission control over one receive queue's posted-buffer pool.

    Senders call :meth:`try_claim` before transmitting; a successful claim
    reserves one posted buffer until :meth:`settle` releases it at match
    time.  Senders that fail to claim park an event via
    :meth:`enqueue_waiter` and are woken one-per-post by the queue's post
    listener, with the wake-up timing owned by the schedule controller.
    """

    def __init__(self, queue, sim) -> None:
        self._queue = queue
        self._sim = sim
        self.rank = queue.rank
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

    @property
    def available(self) -> int:
        """Credits a sender could claim right now (posted minus reserved)."""
        return self._queue.depth - self._claims

    def try_claim(self) -> bool:
        """Reserve one posted buffer; False when the pool is exhausted."""
        if self.available <= 0:
            return False
        self._claims += 1
        return True

    def settle(self) -> None:
        """Release one claim (the claimed buffer was consumed by its match)."""
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
        handed back.

        The wake-up delay is a controlled choice point — stretching a grant
        decides which of several stalled senders claims a contested buffer
        first.  A woken sender re-checks :meth:`try_claim`, so a grant
        "stolen" by a sender that never parked simply re-parks the waiter.
        """
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
    gate = getattr(queue, "_credit_gate", None)
    if gate is None:
        gate = CreditGate(queue, sim)
        queue._credit_gate = gate
        queue.set_post_listener(gate.on_posted)
    return gate
