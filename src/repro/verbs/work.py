"""Work requests and work completions — the currency of the verbs layer.

Real-verbs analogue: ``ibv_post_send`` / ``ibv_send_wr`` / ``ibv_wc``.

The verbs programming surface splits every operation in two: the initiator
*posts* a :class:`WorkRequest` describing the operation and immediately
regains control, and later *retires* a :class:`WorkCompletion` from a
completion queue once the NIC has serviced it.  The interval between the two
is exactly the communication/computation overlap the paper's one-sided model
promises but the blocking ``put``/``get`` API cannot express.

Two families of opcode share the machinery:

* **one-sided** (PUT / GET / FETCH_ADD / COMPARE_AND_SWAP) — the initiator
  names the remote address and presents an rkey; the target *process* is
  never involved;
* **two-sided** (SEND, whose target-side twin is the RECV completion) — the
  initiator names only the peer; where the payload lands is decided by the
  receive buffer the target posted (:mod:`repro.verbs.receive_queue`).  A
  SEND gathers a multi-cell payload (an SGE list), the matched receive
  scatters it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.memory.address import GlobalAddress
from repro.net.nic import RemoteOperationResult


class Opcode(enum.Enum):
    """Operation carried by a work request (``IBV_WR_*`` / ``IBV_WC_*``)."""

    PUT = "put"                            # RDMA write
    GET = "get"                            # RDMA read
    FETCH_ADD = "fetch_add"                # atomic fetch-and-add
    COMPARE_AND_SWAP = "compare_and_swap"  # atomic compare-and-swap
    SEND = "send"                          # two-sided send (IBV_WR_SEND)
    RECV = "recv"                          # receive completion (IBV_WC_RECV);
    #                                        never posted as a WorkRequest —
    #                                        receives are posted through
    #                                        repro.verbs.receive_queue

    @property
    def returns_value(self) -> bool:
        """True when the completion carries a value back to the retiring side."""
        return self in (
            Opcode.GET, Opcode.FETCH_ADD, Opcode.COMPARE_AND_SWAP, Opcode.RECV
        )

    @property
    def is_atomic(self) -> bool:
        """True for the read-modify-write opcodes."""
        return self in (Opcode.FETCH_ADD, Opcode.COMPARE_AND_SWAP)

    @property
    def is_two_sided(self) -> bool:
        """True for the opcodes that require receiver participation."""
        return self in (Opcode.SEND, Opcode.RECV)


class CompletionStatus(enum.Enum):
    """Outcome of one work request (``IBV_WC_*`` analogues)."""

    SUCCESS = "success"
    #: The supplied rkey does not grant access to the target address — the
    #: verbs equivalent of a protection fault, reported through the
    #: completion rather than raised at the post site.
    REMOTE_ACCESS_ERROR = "remote-access-error"
    #: A SEND's payload overran the matched receive buffer
    #: (``IBV_WC_LOC_LEN_ERR``); the receive was consumed, no memory written.
    LENGTH_ERROR = "length-error"
    #: A UD datagram (or its resync subprotocol) exhausted the
    #: retransmission budget (``RuntimeConfig.ud_max_retransmits``), reported
    #: through the completion rather than raised at the post site.
    UD_DELIVERY_EXCEEDED = "ud-delivery-exceeded"


class CompletionError(RuntimeError):
    """A waited-on work request retired with a non-success status.

    Raised by the blocking helpers for transport-level failures (UD delivery
    exhaustion, length errors); rkey protection faults keep raising the more
    specific :class:`~repro.verbs.memory_registration.RemoteAccessError`.

    ``completions`` carries every completion retired by the failing call —
    including the successful siblings, which have already been claimed and
    cannot be re-waited — so a server can recover the good payloads (and
    repost their buffers) after one bad peer.
    """

    def __init__(self, message: str, completions: Any = None) -> None:
        super().__init__(message)
        self.completions = list(completions) if completions is not None else []


@dataclass
class WorkRequest:
    """One posted, not-yet-completed operation.

    Attributes
    ----------
    wr_id:
        Initiator-unique identifier; completions carry it back so callers can
        match them to requests (the verbs contract).
    opcode:
        What to do at the target.
    target:
        Global address the operation acts on (one-sided opcodes).  ``None``
        for SEND: a two-sided operation names no remote memory — the landing
        addresses come from the receiver's posted buffer.
    rkey:
        Remote key naming the registered region that covers *target*; checked
        at the target before the memory is touched.  ``None`` for SEND (no
        capability needed — that is the point of two-sided transfer).
    peer:
        Destination rank for SEND; ``None`` for one-sided opcodes (where the
        destination is ``target.rank``).
    value:
        Put: the value to deposit.  Fetch-add: the addend.  CAS: the value to
        swap in.  Unused for get and send.
    compare:
        CAS only: the expected current value.
    payload:
        SEND only: the gathered payload values, one per cell (the SGE list's
        contents; may be empty for a pure-synchronization zero-length send).
    gather_from:
        SEND only: local addresses to read (instrumented) at service time and
        append to *payload* — the gather half of scatter/gather.
    clock_snapshot:
        The poster's vector clock captured at post time — for *every*
        opcode, one- and two-sided alike (the unified clock-transport
        discipline).  The message carries it: a SEND's scatter writes use
        its join with the receive buffer's post-time snapshot, and a posted
        one-sided operation is checked at the target with the snapshot as
        its event clock (never the origin's live clock, which would
        manufacture ordering the NIC engine does not have).  The origin
        synchronizes only at completion retirement.
    symbol:
        Symbolic name of the shared variable, for traces and race reports.
    posted_at:
        Simulated time the request entered its queue pair.
    """

    wr_id: int
    opcode: Opcode
    target: Optional[GlobalAddress]
    rkey: Optional[int]
    peer: Optional[int] = None
    value: Any = None
    compare: Any = None
    payload: Optional[Tuple[Any, ...]] = None
    gather_from: Optional[Tuple[GlobalAddress, ...]] = None
    clock_snapshot: Any = None
    symbol: Optional[str] = None
    posted_at: float = 0.0

    @property
    def destination_rank(self) -> int:
        """The rank this request is bound for (target owner, or SEND peer)."""
        if self.target is not None:
            return self.target.rank
        if self.peer is None:
            raise ValueError(f"work request {self.wr_id} has neither target nor peer")
        return self.peer

    def __str__(self) -> str:
        where = self.target if self.target is not None else f"P{self.peer}"
        return f"wr#{self.wr_id} {self.opcode.value}->{where}"


@dataclass
class WorkCompletion:
    """The retired form of one work request.

    ``value`` is what the operation returned to the retiring side: the value
    read (get), the prior value of the cell (atomics), the delivered payload
    tuple (recv), or ``None`` (put, send).  ``result`` is the underlying
    NIC-level operation record when the request was actually serviced
    (``None`` for requests failed before servicing).  For RECV completions,
    ``addresses`` is the scatter list of the consumed receive buffer — what a
    reactive server needs to repost the slot.
    """

    wr_id: int
    opcode: Opcode
    status: CompletionStatus
    origin: int
    peer: int
    value: Any = None
    result: Optional[RemoteOperationResult] = None
    addresses: Optional[Tuple[GlobalAddress, ...]] = None
    posted_at: float = 0.0
    completed_at: float = 0.0
    detail: str = ""
    #: The clock this completion hands its retiring process.  RECV: the
    #: clock the matched message carried (sender's post-time snapshot merged
    #: with the buffer's post-time snapshot).  One-sided completions: the
    #: join of the datum clocks the queue-pair drain has serviced so far
    #: (the batched clock-transport payload — sound because RC completes in
    #: order).  Merged at retirement, the synchronization point of both
    #: communication styles.
    sync_clock: Any = field(default=None, repr=False, compare=False)
    #: Position of this completion in its queue pair's service order; the
    #: retirement join is elided when a later completion of the same queue
    #: pair (whose batched clock dominates) already merged.
    sync_seq: int = field(default=0, repr=False, compare=False)
    #: Fired exactly once when the completion is handed to its retiring
    #: process (popped from a completion queue); installed by the verbs
    #: context to drive the retirement clock merge.
    on_retire: Any = field(default=None, repr=False, compare=False)

    def fire_retirement(self) -> None:
        """Invoke the retirement hook, at most once (idempotent)."""
        hook, self.on_retire = self.on_retire, None
        if hook is not None:
            hook(self)

    @property
    def ok(self) -> bool:
        """True when the operation completed successfully."""
        return self.status is CompletionStatus.SUCCESS

    @property
    def elapsed(self) -> float:
        """Simulated time from posting to completion (queueing + servicing)."""
        return self.completed_at - self.posted_at

    @property
    def raced(self) -> bool:
        """True when the detector flagged the serviced access."""
        return self.result is not None and self.result.raced

    def __str__(self) -> str:
        return f"wc#{self.wr_id} {self.opcode.value} {self.status.value}"
