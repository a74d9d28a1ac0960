"""Offline replay of recorded traces through a detector.

The paper's second deployment option (Section V-B) is to wrap remote data
accesses in the pre-compiler and analyse them later.  :class:`TraceReplayer`
implements that path: it takes the accesses recorded by
:class:`~repro.trace.recorder.TraceRecorder` (or loaded from JSON) and drives
a fresh :class:`~repro.core.detector.DualClockRaceDetector` over them in
timestamp order, using stand-in memory cells for the clock storage.

Happens-before is reconstructed from three sources: the program order of each
rank, the data flow of shared-memory accesses (the same clock rules the online
detector applies), and the explicit synchronization events
(:class:`~repro.trace.events.SyncEvent`) recorded in the trace — symmetric
barriers, the directional ``send_post``/``transfer``/``recv_complete``
machinery of two-sided SEND/RECV matching, and the
``wr_post``/``wr_transfer``/``wr_retire`` triple of posted one-sided work
(whose recorded clock snapshots replay the exact carried clocks of the
unified clock transport).  With all three, offline replay produces exactly
the same race report as the online detector — the integration and property
tests assert that equivalence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.clocks import VectorClock
from repro.core.detector import DetectorConfig, DualClockRaceDetector
from repro.core.races import RaceRecord
from repro.memory.consistency import AccessKind, MemoryAccess
from repro.memory.public import MemoryCell
from repro.trace.events import SyncEvent

#: The operation an access recorded without one replays as (the entry points'
#: defaults).
_OPERATIONS = {AccessKind.WRITE: "put", AccessKind.READ: "get", AccessKind.RMW: "fetch_add"}

#: Read once: an ``AccessKind.WRITE`` attribute read per access costs ~15× a
#: module global.
_WRITE_KIND = AccessKind.WRITE


@dataclass
class ReplayOutcome:
    """Result of replaying one trace."""

    races: List[RaceRecord]
    accesses_replayed: int
    cells_touched: int
    #: Per-check-type cost profile of the replay detector (same shape as the
    #: online ``RunResult.detection_profile``), so postmortem replay cost —
    #: compares, joins, epoch fast-path hits — is comparable across
    #: ``DetectorConfig`` settings without rerunning the program.
    detection_profile: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def race_count(self) -> int:
        """Number of race signals produced during replay."""
        return len(self.races)


class TraceReplayer:
    """Replays recorded accesses through a dual-clock detector."""

    def __init__(
        self,
        world_size: int,
        config: Optional[DetectorConfig] = None,
    ) -> None:
        self._world_size = world_size
        self._config = config or DetectorConfig()

    def replay(
        self,
        accesses: List[MemoryAccess],
        syncs: Optional[List[SyncEvent]] = None,
    ) -> ReplayOutcome:
        """Run the detector over *accesses* (and *syncs*) in recorded order.

        The combined stream is processed by ``(time, id)``, which is exactly
        the order in which the online detector handled the same events.
        """
        detector = DualClockRaceDetector(self._world_size, config=self._config)
        enabled = detector.config.enabled
        validate = detector._validate_access
        check = detector._check
        # Stand-in cells, filed under ``(rank, offset)``: a tuple hashes and
        # compares in C, a ``GlobalAddress`` in Python.
        cells: Dict[Tuple[int, int], MemoryCell] = {}
        # Snapshot clock of the most recent SEND/RECV match per directed
        # (sender, receiver) pair: the scatter writes that follow a transfer
        # event replay with the clock the message carried, exactly as online.
        # Sends on one queue pair are serviced in order, so "most recent" is
        # always the matching one.
        transfer_clocks: Dict[tuple, VectorClock] = {}
        # Pending post-time snapshots of serviced one-sided work requests,
        # FIFO per directed (origin, target rank) pair.  A ``wr_transfer``
        # sync is recorded immediately before the access it instruments
        # (adjacent trace ids), so the head entry always belongs to the next
        # matching access — which replays with the carried snapshot as its
        # event clock, exactly as online.  A drained pair leaves the table,
        # so an empty table means no access can be carried.
        wr_clocks: Dict[tuple, Deque[VectorClock]] = {}
        stream: List[tuple] = [
            (access.time, access.access_id, False, access) for access in accesses
        ]
        for sync in syncs or []:
            stream.append((sync.time, sync.sync_id, True, sync))
        stream.sort(key=itemgetter(0, 1))
        replayed = 0
        for _time, _eid, is_sync, event in stream:
            if is_sync:
                self._apply_sync(detector, event, transfer_clocks, wr_clocks)
                continue
            access = event
            replayed += 1
            origin = access.rank
            address = access.address
            carried = None
            if wr_clocks:
                pair = (origin, address.rank)
                pending = wr_clocks.get(pair)
                if pending:
                    carried = pending.popleft()
                    if not pending:
                        del wr_clocks[pair]
            kind = access.kind
            is_send = kind is _WRITE_KIND and access.operation == "send"
            if is_send:
                # Scatter writes replay with the matched message's clock.
                carried = transfer_clocks.get((origin, address.rank))
            key = (address.rank, address.offset)
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = MemoryCell()
            validate(origin, address, carried)
            if not enabled:
                continue
            # A scatter write keeps the owner-tick exemption (None resolves
            # to it whenever a carried clock is present); every other write
            # is an owner event, carried or live.
            check(
                kind, origin, address, cell, access.symbol, access.time,
                access.operation or _OPERATIONS[kind], carried,
                None if is_send else True,
            )
        return ReplayOutcome(
            races=detector.races(),
            accesses_replayed=replayed,
            cells_touched=len(cells),
            detection_profile=detector.profiler.snapshot(),
        )

    @staticmethod
    def _apply_sync(
        detector: DualClockRaceDetector,
        sync: SyncEvent,
        transfer_clocks: Optional[Dict[tuple, VectorClock]] = None,
        wr_clocks: Optional[Dict[tuple, Deque[VectorClock]]] = None,
    ) -> None:
        """Re-apply one recorded synchronization to the replay clocks.

        Symmetric kinds (barriers) merge every participant to the common
        upper bound.  The two-sided kinds are *directional* and replay the
        exact clock flow the online detector performed: ``send_post`` /
        ``recv_post`` / ``wr_post`` tick the posting rank (posting is an
        event), ``transfer`` records the clock the matched message carried
        (used by the scatter writes that follow it — the landing
        synchronizes nobody), ``wr_transfer`` queues the carried snapshot
        of a serviced one-sided work request for the access that follows
        it, and ``recv_complete`` / ``wr_retire`` merge the carried clock
        into the retiring rank.  Recorded snapshots — never the replayed
        live clocks — drive the merges, so a buffer-reuse race stays a race
        offline.
        """
        participants = [
            rank for rank in sync.participants if 0 <= rank < detector.world_size
        ]
        if sync.kind in ("send_post", "recv_post", "wr_post"):
            # Posting (a send, a receive buffer, or a one-sided work
            # request) is an event of participants[0]; the other
            # participant only records who the post was aimed at.
            if participants:
                detector.local_event(participants[0])
            return
        if sync.kind == "wr_transfer":
            if len(sync.participants) != 2 or sync.clock is None:
                return
            origin, target = sync.participants
            if wr_clocks is not None:
                wr_clocks.setdefault((origin, target), deque()).append(
                    VectorClock.from_entries(sync.clock)
                )
            return
        if sync.kind in ("wr_retire", "recv_complete"):
            if len(sync.participants) != 2 or sync.clock is None:
                return
            retiring = sync.participants[0]
            if 0 <= retiring < detector.world_size:
                detector.process_clock(retiring).merge_in_place(
                    VectorClock.from_entries(sync.clock)
                )
            return
        if sync.kind == "transfer":
            if len(sync.participants) != 2:
                return
            sender, receiver = sync.participants
            if sync.clock is not None:
                snapshot = VectorClock.from_entries(sync.clock)
            elif 0 <= sender < detector.world_size:
                # Trace recorded without detection: best effort, the live
                # clock stands in for the (unrecorded) message clock.
                snapshot = detector.current_clock(sender)
            else:
                return
            if transfer_clocks is not None:
                transfer_clocks[(sender, receiver)] = snapshot
            return
        if sync.kind not in ("barrier", "join", "notify"):
            # Unknown kinds from newer trace producers are skipped rather
            # than misread as a symmetric barrier: replay exactness demands
            # that only events whose semantics we know move clocks.
            return
        if len(participants) < 2:
            return
        clocks = [detector.process_clock(rank) for rank in participants]
        merged = clocks[0].copy()
        for clock in clocks[1:]:
            merged.merge_in_place(clock)
        for clock in clocks:
            clock.merge_in_place(merged)
