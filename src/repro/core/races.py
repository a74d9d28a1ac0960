"""Race records, reports and the signalling policy.

Section IV-D of the paper: *"race conditions must be signaled to the user
(e.g., by a message on the standard output of the program), but they must not
abort the execution of the program"* — some races (master-worker result
collection, for instance) are intentional.  The classes here implement that
policy: the detector produces :class:`RaceRecord` objects, a
:class:`RaceReport` aggregates and deduplicates them, and :class:`SignalPolicy`
decides whether a record is printed, collected silently, or (for tests that
*want* a hard failure) raised as :class:`RaceConditionSignal`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind
from repro.util.logging import SimLogger
from repro.util.records import trusted_build


class RaceConditionSignal(RuntimeError):
    """Raised when the policy is ``ABORT`` (never the paper's default)."""

    def __init__(self, record: "RaceRecord") -> None:
        super().__init__(str(record))
        self.record = record


class SignalPolicy(enum.Enum):
    """What to do when a race is detected."""

    COLLECT = "collect"   # record silently (default for benchmarks)
    WARN = "warn"         # record and print to stdout (the paper's recommendation)
    ABORT = "abort"       # record and raise RaceConditionSignal (tests only)


@trusted_build
@dataclass(frozen=True, slots=True)
class RaceRecord:
    """One detected race between a new access and a previous conflicting access.

    The detector builds its records with ``RaceRecord._build`` (one value per
    field, in field order; see :func:`~repro.util.records.trusted_build`).

    Attributes
    ----------
    address:
        The shared cell on which the conflict occurred.
    symbol:
        Symbolic name of the shared variable, when the directory knows it.
    current_rank / current_kind / current_clock:
        The access being performed when the race was detected.
    previous_rank / previous_kind / previous_clock:
        The latest conflicting access recorded on the datum (its write clock
        or access clock, per the detector's configuration).
    time:
        Simulated time of detection.
    operation:
        The high-level operation during which detection fired ("put"/"get").
    detail:
        Free-form explanation used in reports.
    """

    address: GlobalAddress
    current_rank: int
    current_kind: AccessKind
    current_clock: Tuple[int, ...]
    previous_rank: Optional[int]
    previous_kind: AccessKind
    previous_clock: Tuple[int, ...]
    time: float = 0.0
    symbol: Optional[str] = None
    operation: str = ""
    detail: str = ""

    def involves_write(self) -> bool:
        """True when at least one of the two accesses is a write.

        By the paper's definition (Section III-C) this is always true for a
        genuine race; the detector enforces it before emitting a record, and
        the report's sanity checks re-verify it.
        """
        return self.current_kind.is_write or self.previous_kind.is_write

    def key(self) -> Tuple:
        """Deduplication key: the variable and the unordered pair of ranks/kinds."""
        pair = tuple(
            sorted(
                [
                    (self.current_rank, self.current_kind.value),
                    (self.previous_rank if self.previous_rank is not None else -1,
                     self.previous_kind.value),
                ]
            )
        )
        return (self.address, pair)

    def __str__(self) -> str:
        where = self.symbol or str(self.address)
        prev = (
            f"P{self.previous_rank}" if self.previous_rank is not None else "unknown process"
        )
        return (
            f"RACE on {where} at t={self.time:g}: "
            f"{self.current_kind.value} by P{self.current_rank} (clock {self.current_clock}) "
            f"is concurrent with {self.previous_kind.value} by {prev} "
            f"(clock {self.previous_clock})"
            + (f" [{self.detail}]" if self.detail else "")
        )


class RaceReport:
    """Aggregates race records for one execution.

    When a :class:`~repro.util.logging.SimLogger` is bound (the runtime binds
    its own), every signalled race is also routed through it as a
    ``warning``-severity record under the ``"race"`` category — so race
    reports flow through the same structured log as everything else, and
    ``to_jsonl()`` exports them alongside the run's other records.  The log
    keeps the frozen record itself and formats its text when the log is
    first read.  Under the ``WARN`` policy the paper-prescribed stdout line
    is still printed at signal time.
    """

    def __init__(
        self,
        policy: SignalPolicy = SignalPolicy.COLLECT,
        logger: Optional[SimLogger] = None,
    ) -> None:
        self._policy = policy
        self._records: List[RaceRecord] = []
        self._logger = logger

    @property
    def policy(self) -> SignalPolicy:
        """The active signalling policy."""
        return self._policy

    def bind_logger(self, logger: SimLogger) -> None:
        """Attach the structured logger race signals are routed through."""
        self._logger = logger

    def signal(self, record: RaceRecord) -> None:
        """Handle one detected race according to the policy."""
        if not record.involves_write():
            raise ValueError(
                "refusing to record a race between two read-only accesses: "
                f"{record} — the paper explicitly excludes concurrent reads (Fig. 4)"
            )
        self._records.append(record)
        if self._logger is not None:
            # Formatted when the log is read, not here (see ``SimLogger.defer``).
            self._logger.defer(
                "race", record, rank=record.current_rank, level="warning"
            )
        if self._policy is SignalPolicy.WARN:
            print(str(record))
        elif self._policy is SignalPolicy.ABORT:
            raise RaceConditionSignal(record)

    # -- queries ------------------------------------------------------------------

    def records(self) -> List[RaceRecord]:
        """All records in detection order."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def count(self) -> int:
        """Total number of race signals (including duplicates)."""
        return len(self._records)

    def distinct(self) -> List[RaceRecord]:
        """Records deduplicated by :meth:`RaceRecord.key`, keeping the first."""
        seen: Dict[Tuple, RaceRecord] = {}
        for record in self._records:
            seen.setdefault(record.key(), record)
        return list(seen.values())

    def by_address(self) -> Dict[GlobalAddress, List[RaceRecord]]:
        """Group records by the cell on which they were detected."""
        grouped: Dict[GlobalAddress, List[RaceRecord]] = {}
        for record in self._records:
            grouped.setdefault(record.address, []).append(record)
        return grouped

    def by_symbol(self) -> Dict[Optional[str], List[RaceRecord]]:
        """Group records by shared-variable name."""
        grouped: Dict[Optional[str], List[RaceRecord]] = {}
        for record in self._records:
            grouped.setdefault(record.symbol, []).append(record)
        return grouped

    def involving_rank(self, rank: int) -> List[RaceRecord]:
        """Records in which *rank* is one of the two conflicting accessors."""
        return [
            r
            for r in self._records
            if r.current_rank == rank or r.previous_rank == rank
        ]

    def summary(self) -> str:
        """A compact human-readable summary (one line per distinct race)."""
        distinct = self.distinct()
        if not distinct:
            return "no race conditions detected"
        lines = [f"{len(distinct)} distinct race(s), {len(self._records)} signal(s):"]
        lines.extend(f"  - {record}" for record in distinct)
        return "\n".join(lines)

    def clear(self) -> None:
        """Forget all records (used between benchmark iterations)."""
        self._records.clear()
