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

from typing import Dict, List, Sequence

from repro.core.clocks import Epoch, VectorClock
from repro.detectors.base import BaselineDetector, DetectedRace, DetectionResult
from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess


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
        datum_clocks: Dict[GlobalAddress, VectorClock] = {}
        #: The accessing process merges the datum clock into its own after
        #: each access (the dual-clock detector's convention), so a datum
        #: clock's content always equals its last accessor's captured clock:
        #: this is that accessor's ``(rank, tick)``.
        datum_epochs: Dict[GlobalAddress, Epoch] = {}
        last_access: Dict[GlobalAddress, MemoryAccess] = {}
        findings: List[DetectedRace] = []

        stream = [(a.time, a.access_id, "access", a) for a in self.order_accesses(accesses)]
        stream.extend((s.time, s.sync_id, "sync", s) for s in syncs)
        stream.sort(key=lambda item: (item[0], item[1]))

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
            clock = process_clocks[rank]
            # The trusted rows of ``core`` (docs/architecture.md): *rank* just
            # indexed ``process_clocks``, and every array here is its own.
            entries = clock._entries
            tick = entries.item(rank) + 1
            entries[rank] = tick
            datum_clock = datum_clocks.get(access.address)
            # A datum clock exists from its first access on and absorbed that
            # access's ticked clock: it is never all-zero.
            if datum_clock is not None:
                # ``clock.concurrent_with(datum_clock)`` as one O(1) probe:
                # the just-ticked ``clock[access.rank]`` appears in no other
                # clock yet, so ``clock <= datum`` and equality are
                # impossible and ``concurrent`` reduces to ``not (datum <=
                # clock)`` — decided by the last accessor's component.
                epoch = datum_epochs[access.address]
                if entries.item(epoch[0]) < epoch[1]:
                    previous = last_access.get(access.address)
                    findings.append(
                        DetectedRace(
                            address=access.address,
                            symbol=access.symbol,
                            ranks=(
                                rank,
                                previous.rank if previous is not None else -1,
                            ),
                            kinds=(
                                access.kind.value,
                                previous.kind.value
                                if previous is not None
                                else AccessKind.WRITE.value,
                            ),
                            first_access_id=(
                                previous.access_id if previous is not None else None
                            ),
                            second_access_id=access.access_id,
                            detail="single-clock: unordered accesses (kind ignored)",
                        )
                    )
            if datum_clock is None:
                datum_clock = VectorClock.zeros(world_size)
                datum_clocks[access.address] = datum_clock
            # The access absorbs the datum clock first, so the merge below
            # always leaves the datum equal to this clock.
            clock.merge_in_place(datum_clock)
            datum_clock.merge_in_place(clock)
            datum_epochs[access.address] = Epoch(rank, tick)
            last_access[access.address] = access

        return DetectionResult(
            detector_name=self.name,
            findings=findings,
            accesses_analyzed=len(accesses),
        )

    def read_read_findings(self, result: DetectionResult) -> List[DetectedRace]:
        """The findings that involve no write at all: guaranteed false positives."""
        return [f for f in result.findings if not f.involves_write()]
