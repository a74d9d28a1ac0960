"""Eraser-style lockset baseline.

Lockset algorithms (Savage et al.'s Eraser and its descendants) check a
*locking discipline*: every shared datum must be consistently protected by at
least one common lock across all accesses.  In the paper's DSM model every
one-sided operation is automatically serialized by the NIC lock of the target
cell (Section III-A), so the discipline is trivially satisfied: the candidate
lockset of every cell always contains its own NIC lock and never becomes
empty.

The consequence — which this baseline exists to demonstrate in benchmark E13 —
is that lockset analysis reports *no* races at all in this model, even for the
executions of Figures 5a and 5c whose outcome genuinely depends on message
timing.  Mutual exclusion gives atomicity of the individual accesses, not
ordering between them; detecting the missing ordering requires causality
tracking, which is the paper's argument for a clock-based detector.

The implementation still performs the full lockset computation (per-datum
candidate set intersection, with the refinement that read-only data never
warns) so that traces carrying *additional* application-level locks — the
``extra_locks_by_access`` hook used in tests — are analysed faithfully.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set

from repro.detectors.base import BaselineDetector, DetectedRace, DetectionResult
from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess

#: The implicit NIC lock protecting a cell is named after the cell itself.
def nic_lock_name(address: GlobalAddress) -> str:
    """Name of the NIC-provided lock covering *address*."""
    return f"nic-lock:{address.rank}:{address.offset}"


def _lock_names(access_id: int, names: object) -> FrozenSet[str]:
    """*names* as a lockset; refuses anything but an iterable of lock names.

    A bare string is refused rather than read as its characters: ``"lockA"``
    and ``"lockB"`` would share ``l``, ``o``, ``c`` and ``k``.
    """
    if not isinstance(names, str):
        try:
            locks = frozenset(names)  # type: ignore[arg-type]
        except TypeError:
            locks = None
        if locks is not None and all(isinstance(name, str) for name in locks):
            return locks
    raise TypeError(
        f"the locks of access {access_id} must be an iterable of lock names, "
        f"got {names!r}"
    )


class LocksetDetector(BaselineDetector):
    """Lockset (locking-discipline) analysis over a recorded trace."""

    name = "lockset"

    def __init__(
        self,
        model_nic_locks: bool = True,
        extra_locks_by_access: Optional[Mapping[int, Sequence[str]]] = None,
    ) -> None:
        #: Include the implicit per-cell NIC lock in every access's held set
        #: (the model's reality).  Setting this to ``False`` simulates an
        #: implementation without NIC locks, in which case lockset degenerates
        #: to "flag every multi-rank datum with a write".
        self.model_nic_locks = model_nic_locks
        #: Optional map ``access_id -> iterable of user-level lock names`` for
        #: traces of programs that use application locks, kept as frozensets.
        self.extra_locks_by_access: Dict[int, FrozenSet[str]] = {
            access_id: _lock_names(access_id, names)
            for access_id, names in (extra_locks_by_access or {}).items()
        }

    def detect(
        self, accesses: Sequence[MemoryAccess], world_size: int, syncs: Sequence = ()
    ) -> DetectionResult:
        """Run the lockset state machine per shared cell.

        ``syncs`` is accepted for interface uniformity and ignored: lockset
        analysis reasons about locking discipline, not happens-before.
        """
        if world_size <= 0:
            raise ValueError(f"world_size must be positive, got {world_size}")
        findings: List[DetectedRace] = []
        extra_locks = self.extra_locks_by_access
        for address, cell_accesses in self.group_by_address(accesses).items():
            # The cell's NIC lock is in every access's held set: built once.
            nic_locks: FrozenSet[str] = (
                frozenset((nic_lock_name(address),)) if self.model_nic_locks else frozenset()
            )
            candidate: Optional[FrozenSet[str]] = None
            writers: Set[int] = set()
            accessors: Set[int] = set()
            first_warned = False
            previous: Optional[MemoryAccess] = None
            for access in cell_accesses:
                accessors.add(access.rank)
                if access.kind.is_write:
                    writers.add(access.rank)
                extra = extra_locks.get(access.access_id)
                held = nic_locks if extra is None else nic_locks | extra
                candidate = held if candidate is None else candidate & held
                # Eraser's refinement: only warn once the datum is shared
                # (accessed by more than one rank) and written at least once.
                shared_and_written = len(accessors) > 1 and bool(writers)
                if shared_and_written and not candidate and not first_warned:
                    first_warned = True
                    findings.append(
                        DetectedRace(
                            address=address,
                            symbol=access.symbol,
                            ranks=(access.rank, previous.rank if previous else -1),
                            kinds=(
                                access.kind.value,
                                previous.kind.value if previous else AccessKind.WRITE.value,
                            ),
                            first_access_id=previous.access_id if previous else None,
                            second_access_id=access.access_id,
                            detail="lockset became empty: no common lock protects this datum",
                        )
                    )
                previous = access
        return DetectionResult(
            detector_name=self.name,
            findings=findings,
            accesses_analyzed=len(accesses),
        )
