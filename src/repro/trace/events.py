"""Trace record types beyond the raw memory access.

:class:`~repro.memory.consistency.MemoryAccess` is the atom of a trace; this
module adds the operation-level record (one completed put/get with its timing
and message counts) and the whole-trace summary used by reports and
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess
from repro.util.records import trusted_build


@trusted_build
@dataclass(frozen=True, slots=True)
class SyncEvent:
    """One explicit synchronization among a set of ranks.

    Offline analyses need these events: without them a trace only shows the
    shared-memory accesses, and accesses that were ordered by a barrier online
    would look unordered when replayed (Section V-B's pre-compiler deployment
    would log the synchronization calls for exactly this reason).

    Kind families:

    * symmetric (``"barrier"``, ...): every participant merges to the common
      clock upper bound;
    * ``"send_post"`` / ``"recv_post"``: a two-sided send or receive buffer
      was posted — an event of ``participants[0]`` (the poster ticks; the
      other rank rides along for trace readability);
    * ``"transfer"``: a SEND matched a posted receive at
      ``participants[1]``'s NIC.  ``clock`` is the clock the message carried
      (sender's post-time snapshot joined with the buffer's post-time
      snapshot) — the clock of the scatter writes that follow; the landing
      itself synchronizes nobody;
    * ``"recv_complete"``: ``participants[0]`` (the receiver) retired the
      matched completion and merged ``clock`` — the directional
      happens-before edge of two-sided communication (the sender,
      ``participants[1]``, learns nothing);
    * ``"wr_post"``: a one-sided work request was posted — an event of
      ``participants[0]`` (the poster ticks and its snapshot rides in the
      request; ``participants[1]`` is the destination rank);
    * ``"wr_transfer"``: a posted one-sided operation was serviced at
      ``participants[1]``'s memory with ``clock`` — the post-time snapshot
      the message carried — as its event clock (recorded immediately before
      the access it instruments, so replay pairs them exactly);
    * ``"wr_retire"``: ``participants[0]`` (the initiator) retired a
      one-sided completion and merged ``clock`` — the batched join of the
      datum clocks its queue pair to ``participants[1]`` had serviced (the
      one-sided twin of ``"recv_complete"``).
    """

    sync_id: int
    time: float
    participants: tuple
    kind: str = "barrier"
    clock: Optional[tuple] = None


@trusted_build
@dataclass(frozen=True, slots=True)
class OperationRecord:
    """One completed high-level one-sided operation.

    Captures what the overhead and scalability experiments need: the type of
    operation, its latency (including lock waits) and how many messages of
    each category it generated.
    """

    operation: str
    origin: int
    target: GlobalAddress
    symbol: Optional[str]
    start_time: float
    end_time: float
    data_messages: int
    control_messages: int
    raced: bool
    #: For verbs-posted operations: when the work request was posted (the
    #: interval ``posted_time..start_time`` is queueing delay, during which
    #: the posting process was free to compute).  ``None`` for blocking ops.
    posted_time: Optional[float] = None

    @property
    def elapsed(self) -> float:
        """Simulated duration of the operation."""
        return self.end_time - self.start_time

    @property
    def was_posted(self) -> bool:
        """True when the operation went through a verbs queue pair."""
        return self.posted_time is not None

    @property
    def queued(self) -> float:
        """Time spent in the send queue before servicing began (0 if blocking)."""
        if self.posted_time is None:
            return 0.0
        return self.start_time - self.posted_time


@dataclass
class TraceSummary:
    """Aggregate view of one recorded execution."""

    world_size: int
    accesses: int = 0
    reads: int = 0
    writes: int = 0
    rmws: int = 0
    operations: int = 0
    puts: int = 0
    gets: int = 0
    atomics: int = 0
    sends: int = 0
    posted_operations: int = 0
    local_accesses: int = 0
    cells_touched: int = 0
    races_flagged: int = 0
    duration: float = 0.0
    per_rank_accesses: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for reporting."""
        return {
            "world_size": self.world_size,
            "accesses": self.accesses,
            "reads": self.reads,
            "writes": self.writes,
            "rmws": self.rmws,
            "operations": self.operations,
            "puts": self.puts,
            "gets": self.gets,
            "atomics": self.atomics,
            "sends": self.sends,
            "posted_operations": self.posted_operations,
            "local_accesses": self.local_accesses,
            "cells_touched": self.cells_touched,
            "races_flagged": self.races_flagged,
            "duration": self.duration,
            "per_rank_accesses": dict(self.per_rank_accesses),
        }


def summarize(
    world_size: int,
    accesses: List[MemoryAccess],
    operations: List[OperationRecord],
) -> TraceSummary:
    """Build a :class:`TraceSummary` from raw trace contents.

    One pass over each list: a run ends with this call, over everything it
    recorded.
    """
    summary = TraceSummary(world_size=world_size)
    summary.accesses = len(accesses)
    summary.operations = len(operations)
    read, write, rmw = AccessKind.READ, AccessKind.WRITE, AccessKind.RMW
    reads = writes = rmws = local = 0
    per_rank = summary.per_rank_accesses
    cells = set()
    first = last = accesses[0].time if accesses else 0.0
    for access in accesses:
        kind = access.kind
        if kind is read:
            reads += 1
        elif kind is write:
            writes += 1
        elif kind is rmw:
            rmws += 1
        per_rank[access.rank] = per_rank.get(access.rank, 0) + 1
        # As a pair of integers: an address hashes through Python code.
        address = access.address
        cells.add((address.rank, address.offset))
        if access.operation.startswith("local_"):
            local += 1
        time = access.time
        if time < first:
            first = time
        elif time > last:
            last = time
    summary.reads, summary.writes, summary.rmws = reads, writes, rmws
    summary.local_accesses = local
    summary.cells_touched = len(cells)
    summary.duration = last - first
    by_operation: Dict[str, int] = {}
    for record in operations:
        by_operation[record.operation] = by_operation.get(record.operation, 0) + 1
        if record.posted_time is not None:
            summary.posted_operations += 1
        if record.raced:
            summary.races_flagged += 1
    summary.puts = by_operation.get("put", 0)
    summary.gets = by_operation.get("get", 0)
    summary.atomics = by_operation.get("fetch_add", 0) + by_operation.get(
        "compare_and_swap", 0
    )
    summary.sends = by_operation.get("send", 0)
    return summary
