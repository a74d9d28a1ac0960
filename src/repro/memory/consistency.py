"""Memory-access bookkeeping and a sequential-consistency reference checker.

The paper motivates race detection by the weak consistency of PGAS languages:
the memory model "does not define a global order of execution of the
operations on the public memory area" (Section I), and Lamport's sequential
consistency [13] is recalled as the strong reference point.

This module provides:

* :class:`MemoryAccess` — the canonical record of one shared-memory access
  (who, what, read/write, value, when), shared by the tracer, the detectors
  and the analysis code;
* :class:`SequentialConsistencyChecker` — an oracle that checks whether an
  observed per-cell history could have been produced by *some* interleaving
  of the per-process programs in which every read returns the most recent
  write (used by integration tests to validate the simulator itself, and by
  the ground-truth race oracle to compare executions).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.memory.address import GlobalAddress
from repro.util.records import trusted_build


class AccessKind(enum.Enum):
    """Kind of shared-memory access, from the accessing process's viewpoint."""

    READ = "read"     # remote get, or local read of own public memory
    WRITE = "write"   # remote put, or local write of own public memory
    RMW = "rmw"       # one-sided atomic read-modify-write (fetch_add, CAS)

    @property
    def is_write(self) -> bool:
        """Convenience flag used by every detector.

        A read-modify-write counts as a write: it deposits a new value, so it
        conflicts with every other access to the same cell.
        """
        return self is not _READ

    @property
    def is_read(self) -> bool:
        """True when the access observes the cell's previous value."""
        return self is not _WRITE


#: Identity tests against module globals: a member read through the class
#: (``AccessKind.WRITE``) costs ~15× a global on the per-race path.
_READ, _WRITE = AccessKind.READ, AccessKind.WRITE


@trusted_build
@dataclass(frozen=True, slots=True)
class MemoryAccess:
    """One access to one cell of the global address space.

    ``MemoryAccess._build(*values)`` (one value per field, in order) is the
    recorder's constructor; see :func:`~repro.util.records.trusted_build`.

    Attributes
    ----------
    access_id:
        Globally unique, monotonically increasing id (assigned by the tracer).
    rank:
        The process *performing* the access (the origin of the put/get).
    address:
        The cell accessed.
    kind:
        Read or write.
    value:
        The value written (for writes) or observed (for reads).
    time:
        Simulated time at which the access took effect at the target memory.
    symbol:
        Symbolic name of the shared variable, when known.
    operation:
        The high-level operation that caused the access ("put", "get",
        "local_read", "local_write", "fetch_add", "compare_and_swap",
        "collective", ...).
    observed:
        For read-modify-write accesses only: the value the atomic *read*
        before depositing ``value``.  ``None`` for plain reads and writes.
    """

    access_id: int
    rank: int
    address: GlobalAddress
    kind: AccessKind
    value: object = None
    time: float = 0.0
    symbol: Optional[str] = None
    operation: str = ""
    observed: object = None

    def conflicts_with(self, other: "MemoryAccess") -> bool:
        """Two accesses conflict when they touch the same cell and at least one writes.

        This is exactly the paper's condition for a *potential* race
        (Section III-C); whether it is an actual race additionally requires
        the two accesses to be causally unordered.
        """
        if self.address != other.address:
            return False
        return self.kind.is_write or other.kind.is_write


class ConsistencyViolation(Exception):
    """Raised when an execution cannot be explained by sequential consistency."""


class SequentialConsistencyChecker:
    """Checks read values against the per-cell write history.

    The checker is deliberately simple (per-location coherence rather than a
    full SC search): a read must return either the initial value or the value
    of some write to the same cell that is not followed by another write
    before the read in the observed global (simulated-time) order.  The
    simulator serializes each cell's accesses under the NIC lock, so this
    property must hold for every run; the integration tests use the checker to
    catch simulator bugs.
    """

    def __init__(self, initial_values: Optional[Dict[GlobalAddress, object]] = None) -> None:
        self._initial: Dict[GlobalAddress, object] = dict(initial_values or {})

    def check(self, accesses: Iterable[MemoryAccess]) -> List[str]:
        """Validate *accesses*; return a list of human-readable violations.

        The list is empty for a coherent execution.  Accesses are considered
        in increasing ``(time, access_id)`` order.
        """
        ordered = sorted(accesses, key=lambda a: (a.time, a.access_id))
        last_write: Dict[GlobalAddress, Tuple[object, Optional[int]]] = {}
        violations: List[str] = []
        for access in ordered:
            if access.kind is AccessKind.WRITE:
                last_write[access.address] = (access.value, access.rank)
                continue
            expected, writer = last_write.get(
                access.address, (self._initial.get(access.address), None)
            )
            # An RMW validates like a read (its observed old value must be the
            # latest write) and then updates the cell like a write.
            seen = access.observed if access.kind is AccessKind.RMW else access.value
            if seen != expected:
                violations.append(
                    f"{access.kind.value} by P{access.rank} of {access.address} "
                    f"at t={access.time} observed {seen!r}, expected {expected!r} "
                    f"(last writer: {'initial' if writer is None else f'P{writer}'})"
                )
            if access.kind is AccessKind.RMW:
                last_write[access.address] = (access.value, access.rank)
        return violations

    def check_or_raise(self, accesses: Iterable[MemoryAccess]) -> None:
        """Like :meth:`check`, but raise :class:`ConsistencyViolation` on failure."""
        violations = self.check(accesses)
        if violations:
            raise ConsistencyViolation("; ".join(violations))

    @staticmethod
    def final_values(accesses: Iterable[MemoryAccess]) -> Dict[GlobalAddress, object]:
        """Return the last written value per cell, in observed order.

        Two executions of the same program that end with different final
        values demonstrate an *observable* race — the definition used by the
        ground-truth oracle (the paper: "a race condition is observed when
        the result of a computation differs between executions").
        """
        ordered = sorted(accesses, key=lambda a: (a.time, a.access_id))
        finals: Dict[GlobalAddress, object] = {}
        for access in ordered:
            if access.kind.is_write:
                finals[access.address] = access.value
        return finals
