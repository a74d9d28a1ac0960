"""In-memory trace recorder.

The recorder is attached to every NIC by the runtime; each shared-memory
access and each completed one-sided operation is appended to it.  Detectors
that work post-mortem (:mod:`repro.detectors.postmortem`,
:mod:`repro.detectors.lockset`) and the ground-truth oracle consume the
recorded accesses; the analysis package consumes the operation records.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional

from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess
from repro.net.nic import RemoteOperationResult
from repro.trace.events import OperationRecord, SyncEvent, TraceSummary, summarize
from repro.util.validation import require_positive


class TraceRecorder:
    """Collects accesses, operations and synchronization events of one run."""

    def __init__(self, world_size: int) -> None:
        require_positive(world_size, "world_size")
        self._world_size = world_size
        self._accesses: List[MemoryAccess] = []
        self._operations: List[OperationRecord] = []
        self._syncs: List[SyncEvent] = []
        #: Provenance of the traced run (clock transport, wire format, CQ
        #: moderation, ...) — archived with the trace so a saved artifact
        #: records which knobs produced it.  Purely informational: replay
        #: uses the recorded clocks, which are knob-independent.
        self._run_info: Dict[str, object] = {}
        # Accesses and syncs share one id sequence so that sorting a combined
        # stream by (time, id) reproduces the exact order in which the online
        # system processed them.
        self._next_id = itertools.count().__next__

    @property
    def world_size(self) -> int:
        """Number of ranks in the traced execution."""
        return self._world_size

    def set_run_info(self, **info: object) -> None:
        """Merge provenance fields into the trace header."""
        self._run_info.update(info)

    def run_info(self) -> Dict[str, object]:
        """Provenance of the traced run, as recorded so far."""
        return dict(self._run_info)

    # -- recording --------------------------------------------------------------

    def record_access(
        self,
        rank: int,
        address: GlobalAddress,
        kind: AccessKind,
        value: object = None,
        time: float = 0.0,
        symbol: Optional[str] = None,
        operation: str = "",
        observed: object = None,
    ) -> MemoryAccess:
        """Append one shared-memory access; returns the stored record."""
        access = MemoryAccess._build(
            self._next_id(), rank, address, kind, value, time, symbol, operation, observed
        )
        self._accesses.append(access)
        return access

    def record_sync(self, participants, time: float = 0.0, kind: str = "barrier") -> SyncEvent:
        """Append one symmetric synchronization event among *participants*."""
        event = SyncEvent._build(
            self._next_id(),
            time,
            tuple(sorted(set(int(r) for r in participants))),
            kind,
            None,
        )
        self._syncs.append(event)
        return event

    def record_transfer(
        self,
        source: int,
        destination: int,
        time: float = 0.0,
        kind: str = "transfer",
        clock: Optional[tuple] = None,
    ) -> SyncEvent:
        """Append one *directional* clock event (two-sided send machinery).

        Unlike :meth:`record_sync`, participant order is meaningful and
        preserved: ``(source, destination)``.  ``kind="send_post"`` records
        the sender-side posting event (a local tick); ``kind="transfer"``
        records the match, with *clock* carrying the sender's post-time
        snapshot the receiver merged — a ``VectorClock.frozen()`` tuple,
        stored as it is; any other sequence is copied into a tuple of ints.
        """
        if clock is not None and type(clock) is not tuple:
            clock = tuple(int(c) for c in clock)
        event = SyncEvent._build(
            self._next_id(), time, (int(source), int(destination)), kind, clock
        )
        self._syncs.append(event)
        return event

    def record_operation(
        self,
        result: RemoteOperationResult,
        symbol: Optional[str] = None,
        posted_time: Optional[float] = None,
    ) -> OperationRecord:
        """Append one completed one-sided operation.

        *posted_time* is supplied for verbs-posted (asynchronous) operations:
        the simulated time the work request entered its queue pair, which
        precedes ``start_time`` (when the NIC began servicing it).
        """
        # ``result.raced``, without its two property frames.
        check = result.check
        record = OperationRecord._build(
            result.operation,
            result.origin,
            result.target,
            symbol,
            result.start_time,
            result.end_time,
            result.data_messages,
            result.control_messages,
            check is not None and check.race is not None,
            posted_time,
        )
        self._operations.append(record)
        return record

    # -- queries -------------------------------------------------------------------

    def accesses(
        self,
        rank: Optional[int] = None,
        address: Optional[GlobalAddress] = None,
        symbol: Optional[str] = None,
        kind: Optional[AccessKind] = None,
    ) -> List[MemoryAccess]:
        """Return recorded accesses, optionally filtered."""
        result = self._accesses
        if rank is not None:
            result = [a for a in result if a.rank == rank]
        if address is not None:
            result = [a for a in result if a.address == address]
        if symbol is not None:
            result = [a for a in result if a.symbol == symbol]
        if kind is not None:
            result = [a for a in result if a.kind is kind]
        return list(result)

    def operations(self, operation: Optional[str] = None) -> List[OperationRecord]:
        """Return recorded operations, optionally filtered by type."""
        if operation is None:
            return list(self._operations)
        return [o for o in self._operations if o.operation == operation]

    def syncs(self) -> List["SyncEvent"]:
        """Return recorded synchronization events in recording order."""
        return list(self._syncs)

    def conflicting_pairs(self) -> List[tuple]:
        """All pairs of accesses to the same cell with at least one write.

        These are the *potential* races of Section III-C; a detector decides
        which of them are causally unordered.  Quadratic in the per-cell access
        count, intended for debugging-scale traces (the paper: ~10 processes).
        """
        by_address: Dict[GlobalAddress, List[MemoryAccess]] = {}
        for access in self._accesses:
            by_address.setdefault(access.address, []).append(access)
        pairs = []
        for accesses in by_address.values():
            for i in range(len(accesses)):
                for j in range(i + 1, len(accesses)):
                    if accesses[i].conflicts_with(accesses[j]):
                        pairs.append((accesses[i], accesses[j]))
        return pairs

    def summary(self) -> TraceSummary:
        """Aggregate statistics of the recorded execution."""
        return summarize(self._world_size, self._accesses, self._operations)

    def clear(self) -> None:
        """Drop all recorded data (ids keep increasing)."""
        self._accesses.clear()
        self._operations.clear()
        self._syncs.clear()

    def __len__(self) -> int:
        return len(self._accesses)

    def __iter__(self) -> Iterable[MemoryAccess]:
        return iter(list(self._accesses))
