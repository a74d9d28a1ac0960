"""Structured, simulation-time-aware logging.

The standard :mod:`logging` module timestamps records with wall-clock time,
which is meaningless inside a discrete-event simulation.  :class:`SimLogger`
records the *simulated* time of each event and keeps records in memory so that
tests and the analysis package can assert on them.  Race reports go through
this log too: :class:`~repro.core.races.RaceReport` routes every signalled
race here as a ``warning`` under the ``"race"`` category (and, under
``SignalPolicy.WARN``, also prints it to standard output at signal time, the
paper's recommendation in Section IV-D).

Records carry a severity level (``debug`` < ``info`` < ``warning`` <
``error``); :meth:`SimLogger.to_jsonl` exports the collected records as JSON
Lines for offline analysis, one canonical (sorted-keys) object per line.

**Formatted on read.**  A racy run signals hundreds of races and most runs
never read their log, so a race is not formatted when it is signalled:
:meth:`SimLogger.defer` keeps the immutable object itself with the time,
rank and level of that moment, and its :class:`LogRecord` (message
``str(subject)``) is built the first time anything reads the log —
:meth:`~SimLogger.records`, :meth:`~SimLogger.to_jsonl`,
:meth:`~SimLogger.categories` or iteration.  The records, their order,
times, levels and texts are those an eager :meth:`~SimLogger.log` would have
kept.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, List, Optional, Union

#: Severity names in ascending order; index == numeric level.
LEVELS = ("debug", "info", "warning", "error")


def level_number(level: str) -> int:
    """Numeric value of a severity name (for threshold comparisons)."""
    try:
        return LEVELS.index(level)
    except ValueError:
        raise ValueError(f"unknown log level {level!r}; expected one of {LEVELS}")


@dataclass(frozen=True)
class LogRecord:
    """A single structured log entry.

    Attributes
    ----------
    time:
        Simulated time at which the record was emitted.
    category:
        Free-form category tag, e.g. ``"nic"``, ``"race"``, ``"lock"``.
    message:
        Human-readable message.
    rank:
        Rank of the process the record concerns, or ``None`` for global events.
    level:
        Severity: ``"debug"``, ``"info"``, ``"warning"`` or ``"error"``.
    """

    time: float
    category: str
    message: str
    rank: Optional[int] = None
    level: str = "info"


class SimLogger:
    """Collects :class:`LogRecord` objects emitted during a simulation run."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        #: Emission order; a deferred entry is a ``(time, category, subject,
        #: rank, level)`` tuple until the log is first read.
        self._records: List[Union[LogRecord, tuple]] = []
        #: Indices of the deferred entries not yet formatted.
        self._deferred: List[int] = []
        self._clock = clock or (lambda: 0.0)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulation clock used to timestamp records."""
        self._clock = clock

    def log(
        self,
        category: str,
        message: str,
        rank: Optional[int] = None,
        level: str = "info",
    ) -> LogRecord:
        """Record a message under *category* at the current simulated time."""
        level_number(level)  # validate early: a typo'd level is a bug
        record = LogRecord(
            time=self._clock(), category=category, message=message, rank=rank,
            level=level,
        )
        self._records.append(record)
        return record

    def defer(
        self,
        category: str,
        subject: object,
        rank: Optional[int] = None,
        level: str = "info",
    ) -> None:
        """Record ``str(subject)`` under *category*, formatted on first read.

        What :meth:`log` records, timestamped now; *subject* must not change
        before the log is read (a frozen record does not).
        """
        if level not in LEVELS:
            level_number(level)  # raises
        records = self._records
        self._deferred.append(len(records))
        records.append((self._clock(), category, subject, rank, level))

    def _formatted(self) -> List[LogRecord]:
        """Every record, the deferred ones formatted now."""
        records = self._records
        if self._deferred:
            for index in self._deferred:
                time, category, subject, rank, level = records[index]
                records[index] = LogRecord(time, category, str(subject), rank, level)
            self._deferred.clear()
        return records

    # -- severity shorthands -------------------------------------------------------

    def debug(self, category: str, message: str, rank: Optional[int] = None) -> LogRecord:
        """Record at ``debug`` severity."""
        return self.log(category, message, rank=rank, level="debug")

    def info(self, category: str, message: str, rank: Optional[int] = None) -> LogRecord:
        """Record at ``info`` severity."""
        return self.log(category, message, rank=rank, level="info")

    def warning(self, category: str, message: str, rank: Optional[int] = None) -> LogRecord:
        """Record at ``warning`` severity."""
        return self.log(category, message, rank=rank, level="warning")

    def error(self, category: str, message: str, rank: Optional[int] = None) -> LogRecord:
        """Record at ``error`` severity."""
        return self.log(category, message, rank=rank, level="error")

    def records(
        self, category: Optional[str] = None, min_level: Optional[str] = None
    ) -> List[LogRecord]:
        """Return all records, optionally filtered by *category* and severity."""
        selected: Iterable[LogRecord] = self._formatted()
        if category is not None:
            selected = [r for r in selected if r.category == category]
        if min_level is not None:
            threshold = level_number(min_level)
            selected = [r for r in selected if level_number(r.level) >= threshold]
        return list(selected)

    def categories(self) -> List[str]:
        """Return the distinct categories seen so far, in first-seen order."""
        seen: List[str] = []
        for record in self._formatted():
            if record.category not in seen:
                seen.append(record.category)
        return seen

    def to_jsonl(self, category: Optional[str] = None, min_level: Optional[str] = None) -> str:
        """Export records as JSON Lines (one sorted-keys object per line).

        Deterministic for deterministic runs: record order is emission order
        and every object is canonical JSON, so equal runs export equal bytes.
        """
        return "\n".join(
            json.dumps(asdict(record), sort_keys=True)
            for record in self.records(category=category, min_level=min_level)
        )

    def clear(self) -> None:
        """Drop all collected records."""
        self._records.clear()
        self._deferred.clear()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterable[LogRecord]:
        return iter(self._formatted())
