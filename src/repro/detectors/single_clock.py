"""Single-clock happens-before baseline (the ablation of Section IV-D).

The paper's detector keeps *two* clocks per shared datum precisely so that
concurrent read-only accesses are not reported (Figure 4).  This baseline is
what you get without the write clock: a single general-purpose clock per
datum, and a race signalled for *any* causally unordered pair of accesses to
the same datum — including read/read pairs, which are harmless.

The paper (Section IV-D): *"[the dual-clock approach] offers more precision
and eliminates numerous cases of false positives (e.g., concurrent read-only
accesses)"* — benchmark E9 quantifies exactly that by running both detectors
over the same traces and counting the read/read findings only this one
produces.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.clocks import VectorClock
from repro.detectors.base import BaselineDetector, DetectedRace, DetectionResult
from repro.memory.consistency import MemoryAccess


#: The sort key of the merged access/sync stream: ``(time, id)``.
_STREAM_ORDER = itemgetter(0, 1)


class SingleClockDetector(BaselineDetector):
    """Happens-before detection with one clock per datum and no read/write split."""

    name = "single-clock"

    def detect(
        self, accesses: Sequence[MemoryAccess], world_size: int, syncs: Sequence = ()
    ) -> DetectionResult:
        """Run the single-clock algorithm over a recorded trace."""
        if world_size <= 0:
            raise ValueError(f"world_size must be positive, got {world_size}")
        process_clocks: Dict[int, VectorClock] = {
            rank: VectorClock.zeros(world_size) for rank in range(world_size)
        }
        #: Per cell, keyed by ``(rank, offset)``: the datum clock and the last
        #: access.  The accessing process merges the datum clock into its own
        #: after each access (the dual-clock detector's convention), so a
        #: datum clock always equals its last accessor's clock as captured
        #: then; it is kept as those captured entries, with that accessor's
        #: ``(rank, tick)`` epoch.
        cells: Dict[Tuple[int, int], Tuple[np.ndarray, int, int, MemoryAccess]] = {}
        findings: List[DetectedRace] = []

        # One stable sort: an access's key is its observation order
        # ``(time, access_id)``, and a sync's ``(time, sync_id)`` ties after
        # the accesses it equals.
        stream = [(a.time, a.access_id, "access", a) for a in accesses]
        stream.extend((s.time, s.sync_id, "sync", s) for s in syncs)
        stream.sort(key=_STREAM_ORDER)

        for _time, _eid, item_kind, event in stream:
            if item_kind == "sync":
                participants = [r for r in event.participants if 0 <= r < world_size]
                if len(participants) >= 2:
                    merged = process_clocks[participants[0]].copy()
                    for rank in participants[1:]:
                        merged.merge_in_place(process_clocks[rank])
                    for rank in participants:
                        process_clocks[rank].merge_in_place(merged)
                continue
            access = event
            rank = access.rank
            address = access.address
            cell = (address.rank, address.offset)
            # The trusted rows of ``core`` (docs/architecture.md): *rank* just
            # indexed ``process_clocks``, and every array here is its own.
            entries = process_clocks[rank]._entries
            tick = entries.item(rank) + 1
            entries[rank] = tick
            state = cells.get(cell)
            # ``clock.concurrent_with(datum_clock)`` as one O(1) probe: the
            # just-ticked ``clock[rank]`` appears in no other clock yet, so
            # ``clock <= datum`` and equality are impossible and
            # ``concurrent`` reduces to ``not (datum <= clock)`` — decided by
            # the last accessor's component.  Covered, the datum is ``<=``
            # the clock and the access's join with it is the identity.
            if state is not None:
                datum, last_rank, last_tick, previous = state
                if entries.item(last_rank) < last_tick:
                    findings.append(
                        DetectedRace(
                            address=address,
                            symbol=access.symbol,
                            ranks=(rank, previous.rank),
                            kinds=(access.kind.value, previous.kind.value),
                            first_access_id=previous.access_id,
                            second_access_id=access.access_id,
                            detail="single-clock: unordered accesses (kind ignored)",
                        )
                    )
                    np.maximum(entries, datum, out=entries)
            cells[cell] = (entries.copy(), rank, tick, access)

        return DetectionResult(
            detector_name=self.name,
            findings=findings,
            accesses_analyzed=len(accesses),
        )

    def read_read_findings(self, result: DetectionResult) -> List[DetectedRace]:
        """The findings that involve no write at all: guaranteed false positives."""
        return [f for f in result.findings if not f.involves_write()]
