"""The replayable decision log.

Every nondeterministic choice point the schedule controller owns — a delivery
stretched, a same-time tie or fan-out ordered, a datagram's fate; five
kinds, below — produces one :class:`Decision`.
A run's log is therefore a complete recipe for the schedule: replaying the
log through a fresh runtime (same program, same seed) reproduces the run
byte for byte, and *truncating* it replays a prefix with every later choice
point falling back to its uncontrolled default.  That prefix property is
what the racing-schedule minimizer delta-debugs over.

Five decision kinds exist:

``latency``
    The controller stretched (or left alone) one message's flight time — a
    UD datagram's included.  ``choice`` is the extra delay added on top of the
    latency model's draw; ``0.0`` is the default (the model's timing,
    untouched).
``tie``
    Several events were ready at the same simulated time and the controller
    picked which runs first.  ``choice`` is the index into the eligible
    entries (insertion order); ``0`` is the default (the engine's tie rule).
``credit``
    A two-sided SEND stalled for a receive credit was granted one by a
    receive post; the controller stretched (or left alone) the grant's
    wake-up.  ``choice`` is the extra delay before the sender resumes;
    ``0.0`` is the default (wake at the post).  Grant timing decides which
    of several stalled senders claims a contested buffer first.
``barrier``
    A barrier opened and the controller picked which waiting rank's release
    fires next (one decision per pick while more than one waiter remains).
    ``choice`` is the index into the remaining waiters (arrival order);
    ``0`` is the default (arrival order fan-out).
``drop``
    Under the UD transport the fabric resolved one datagram's fate.
    ``choice`` is ``0`` (deliver, the default), ``1`` (drop — the sender's
    retransmission timer fires and the datagram is re-sent with a fresh
    sequence number) or ``2`` (deliver *and* deliver a duplicate copy
    later).  Drops are where sequence gaps — and therefore receiver-driven
    clock resyncs — come from.

A log serializes to plain JSON (the artifact the minimizer emits), and a
sparse log — entries replaced by ``None`` — replays those choice points at
their defaults while keeping every later entry aligned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.util.records import trusted_build

#: What a choice of each kind looks like — the one table strategies, the
#: controller and the artifact reader go by.  A ``"delay"`` is extra simulated
#: time (stored as ``float``), an ``"index"`` picks one of a number of options
#: the choice point states (``int``).  Zero is every kind's uncontrolled
#: default.
DECISION_SHAPES = {
    "latency": "delay",
    "tie": "index",
    "credit": "delay",
    "barrier": "index",
    "drop": "index",
}

#: The controlled choice-point kinds.
DECISION_KINDS = tuple(DECISION_SHAPES)

#: What the controller hands out and a :class:`Decision` holds.
Choice = Union[int, float]


def check_choice(kind: str, key: str, choice: object) -> None:
    """Refuse a *choice* that a decision of (known) *kind* cannot hold.

    The check for values that come from outside (an artifact file): a delay
    is a finite number >= 0, an index an integer >= 0, neither a
    ``bool``.  Anything else would replay a different schedule than the file
    names (``1.5`` truncated to index 1) or none at all (a ``NaN`` delay).
    """
    shape = DECISION_SHAPES[kind]
    allowed = (int, float) if shape == "delay" else int
    if (
        isinstance(choice, bool)
        or not isinstance(choice, allowed)
        or not 0 <= choice < math.inf
    ):
        expected = "a finite number >= 0" if shape == "delay" else "an integer >= 0"
        raise ValueError(
            f"{kind} decision {key!r} cannot hold choice {choice!r}: "
            f"a {shape} is {expected}"
        )


@trusted_build
@dataclass(frozen=True, slots=True)
class Decision:
    """One resolved choice point.

    Attributes
    ----------
    kind:
        One of :data:`DECISION_KINDS` (the module docstring describes each).
    key:
        Stable identity of the choice point within its run (e.g.
        ``"latency:0->2#17"``).  Replays assert the key matches, catching a
        log applied to the wrong program or seed.
    choice:
        The controller's decision, in the shape :data:`DECISION_SHAPES`
        gives its kind: an extra delay (float) or an index (int).
        ``0`` always means "the uncontrolled default".
    """

    kind: str
    key: str
    choice: Choice

    def __post_init__(self) -> None:
        if self.kind not in DECISION_SHAPES:
            raise ValueError(f"unknown decision kind {self.kind!r}")

    @property
    def is_default(self) -> bool:
        """True when this decision matches the uncontrolled behaviour."""
        return not self.choice

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation."""
        return {"kind": self.kind, "key": self.key, "choice": self.choice}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Decision":
        """Inverse of :meth:`to_dict`; refuses a choice the kind cannot hold."""
        decision = cls(str(data["kind"]), str(data["key"]), data["choice"])
        check_choice(decision.kind, decision.key, decision.choice)
        return decision


class DecisionLog:
    """An ordered sequence of decisions; ``None`` entries mean "default".

    The ``None`` convention keeps alignment intact under minimization:
    *replacing* a decision by its default leaves every subsequent choice
    point at the same position, whereas removing it would shift the whole
    tail and replay a different schedule entirely.

    The controller that owns a log appends each resolution as a plain
    ``(kind, key, choice)`` row; the rows become :class:`Decision` records
    the first time a view reads the log.  A campaign reads only
    :meth:`__len__` and :meth:`perturbations`, which count the rows as they
    are, so most schedules never build a record at all.
    """

    def __init__(self, entries: Optional[List[Optional[Decision]]] = None) -> None:
        self._entries: List[Optional[Decision]] = list(entries or [])
        #: Filled by the controller that owns the log, one ``(kind, key,
        #: choice)`` row per resolved choice point, after ``_entries``;
        #: every other use goes through the views.
        self._rows: List[Tuple[str, str, Choice]] = []

    def _built(self) -> List[Optional[Decision]]:
        """Every entry, the pending rows built into records now."""
        rows = self._rows
        if rows:
            build = Decision._build
            self._entries.extend([build(*row) for row in rows])
            rows.clear()
        return self._entries

    # -- views --------------------------------------------------------------------

    @property
    def entries(self) -> List[Optional[Decision]]:
        """The raw entries, in choice-point order."""
        return list(self._built())

    def non_default(self) -> List[Decision]:
        """The decisions that actually perturbed the schedule."""
        return [d for d in self._built() if d is not None and not d.is_default]

    def perturbations(self) -> int:
        """``len(self.non_default())``, counted without building a record."""
        built = sum(1 for d in self._entries if d is not None and not d.is_default)
        return built + sum(1 for row in self._rows if row[2])

    def prefix(self, length: int) -> "DecisionLog":
        """The first *length* entries (later choice points replay as default)."""
        if length < 0:
            raise ValueError(f"prefix length must be non-negative, got {length}")
        return DecisionLog(self._built()[:length])

    def with_default_at(self, index: int) -> "DecisionLog":
        """A copy with entry *index* replaced by the default marker."""
        entries = list(self._built())
        entries[index] = None
        return DecisionLog(entries)

    def __len__(self) -> int:
        return len(self._entries) + len(self._rows)

    def __iter__(self) -> Iterator[Optional[Decision]]:
        return iter(list(self._built()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecisionLog):
            return NotImplemented
        return self._built() == other._built()

    # -- serialization ---------------------------------------------------------------

    def to_jsonable(self) -> List[Optional[Dict[str, object]]]:
        """A JSON-safe list (the artifact format)."""
        return [d.to_dict() if d is not None else None for d in self._built()]

    @classmethod
    def from_jsonable(cls, data: List[Optional[Dict[str, object]]]) -> "DecisionLog":
        """Inverse of :meth:`to_jsonable`."""
        return cls(
            [Decision.from_dict(d) if d is not None else None for d in data]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DecisionLog {len(self)} entries, "
            f"{self.perturbations()} non-default>"
        )
