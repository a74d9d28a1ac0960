"""Common interface for offline (trace-based) detectors.

Every baseline consumes a list of :class:`~repro.memory.consistency.MemoryAccess`
records (as produced by :class:`~repro.trace.recorder.TraceRecorder`) plus the
world size, and produces a :class:`DetectionResult`: a set of
:class:`DetectedRace` findings keyed by the shared cell involved.  Keeping the
interface at the level of *cells flagged as racy* (rather than exact access
pairs) lets the accuracy metrics compare detectors with very different
internal granularity against the execution-varying ground truth, which is also
expressed per cell/symbol.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess


@dataclass(frozen=True)
class DetectedRace:
    """One race finding produced by a detector.

    ``first_access_id`` / ``second_access_id`` identify the conflicting pair
    when the detector works at access granularity; detectors that only flag a
    cell may leave them as ``None``.
    """

    address: GlobalAddress
    symbol: Optional[str]
    ranks: Tuple[int, ...]
    kinds: Tuple[str, ...]
    first_access_id: Optional[int] = None
    second_access_id: Optional[int] = None
    detail: str = ""

    def involves_write(self) -> bool:
        """True when at least one side of the pair writes (plain write or RMW)."""
        return any(AccessKind(kind).is_write for kind in self.kinds)


@dataclass
class DetectionResult:
    """Everything an offline detector reports for one trace."""

    detector_name: str
    findings: List[DetectedRace] = field(default_factory=list)
    accesses_analyzed: int = 0

    def flagged_addresses(self) -> Set[GlobalAddress]:
        """Cells the detector considers racy."""
        return {f.address for f in self.findings}

    def flagged_symbols(self) -> Set[str]:
        """Shared-variable names the detector considers racy (when known)."""
        return {f.symbol for f in self.findings if f.symbol is not None}

    def count(self) -> int:
        """Number of findings."""
        return len(self.findings)

    def by_address(self) -> Dict[GlobalAddress, List[DetectedRace]]:
        """Group findings per cell."""
        grouped: Dict[GlobalAddress, List[DetectedRace]] = {}
        for finding in self.findings:
            grouped.setdefault(finding.address, []).append(finding)
        return grouped


#: The sort key of a trace's observation order.
_OBSERVATION_ORDER = operator.attrgetter("time", "access_id")


class BaselineDetector(abc.ABC):
    """Interface shared by every offline detector."""

    #: Human-readable name used in reports and benchmark tables.
    name: str = "baseline"

    @abc.abstractmethod
    def detect(
        self, accesses: Sequence[MemoryAccess], world_size: int, syncs: Sequence = ()
    ) -> DetectionResult:
        """Analyse *accesses* (plus optional synchronization events) and report.

        ``syncs`` is a sequence of :class:`~repro.trace.events.SyncEvent`
        objects; detectors that do not model explicit synchronization (e.g.
        lockset) simply ignore it.
        """

    # -- shared helpers ----------------------------------------------------------

    @staticmethod
    def order_accesses(accesses: Sequence[MemoryAccess]) -> List[MemoryAccess]:
        """Sort accesses by ``(time, access_id)``, the trace's observation order."""
        return sorted(accesses, key=_OBSERVATION_ORDER)

    @staticmethod
    def group_by_address(
        accesses: Sequence[MemoryAccess],
    ) -> Dict[GlobalAddress, List[MemoryAccess]]:
        """Group accesses per cell, preserving observation order within a cell.

        Cells are gathered by ``(rank, offset)`` — a ``GlobalAddress``'s hash
        is a Python frame — and keyed by their first access's address.
        """
        cells: Dict[Tuple[int, int], List[MemoryAccess]] = {}
        for access in BaselineDetector.order_accesses(accesses):
            address = access.address
            cells.setdefault((address.rank, address.offset), []).append(access)
        return {cell[0].address: cell for cell in cells.values()}
