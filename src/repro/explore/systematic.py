"""Bounded systematic schedule search (DPOR-lite).

Where the fuzzer samples the schedule space, the systematic searcher
*enumerates* a bounded slice of it: the delivery-order branchings around the
accesses that can actually conflict.  The moving parts:

* :class:`SystematicStrategy` — a controller strategy that treats the first
  ``max_branch_points`` branchable choice points of a run as branch points —
  *reorderable* deliveries (data messages and lock requests, see
  :func:`~repro.explore.controller.is_reorderable`) and every point of the
  other kinds except same-time ties — each with ``branch_factor`` slots, and
  forces a given partial assignment of slots.  Slot *k* is ``k * quantum``
  of extra delay or option *k* of an index kind (the barrier waiter
  released next; a datagram delivered, dropped or duplicated).  Everything
  else runs at the default,
  so a node of the search tree is just ``{choice-point key: slot}``;
* :func:`schedule_fingerprint` — the Mazurkiewicz-style equivalence class
  of a completed run: the per-cell order of conflicting accesses.  Two
  schedules with the same fingerprint order every racing pair identically,
  so running both teaches the detectors nothing new;
* the :class:`~repro.explore.runner.Explorer` drives the search: it expands
  children only for *novel* fingerprints — the sleep-set-style dedup that
  keeps equivalent subtrees from being re-explored — breadth-first, so the
  schedules nearest the baseline are tried first and a small budget already
  covers every single-perturbation delivery reordering.

Why delay slots rather than an explicit delivery permutation: the engine is
a timed discrete-event simulator, so "deliver B before A" *is* "stretch A's
flight past B's".  Slot enumeration reaches every cross-channel arrival
order the timing model can express while keeping each branch point's
options finite and replayable.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.explore.controller import ScheduleStrategy, is_reorderable
from repro.explore.decisions import Choice
from repro.memory.consistency import AccessKind, MemoryAccess
from repro.net.message import Message


def schedule_fingerprint(accesses: Sequence[MemoryAccess]) -> str:
    """The schedule's conflict-order equivalence class, as a stable digest.

    For every cell touched by at least one *conflicting pair* — two accesses
    to the cell, at least one of which writes
    (:meth:`~repro.memory.consistency.MemoryAccess.conflicts_with`, the
    paper's potential races, Section III-C) — take the cell's access
    sequence in observation order projected to ``(rank, kind)``.  The pair's
    ranks do not matter: a cell only one rank writes and reads is kept too.
    Cells with no possible conflict — one access, or reads only — are
    dropped: reordering commuting accesses does not change any detector's
    verdict, so schedules differing only there are equivalent.
    """
    read = AccessKind.READ
    by_cell: Dict[Tuple[int, int], List[str]] = {}
    written: Set[Tuple[int, int]] = set()
    for access in sorted(accesses, key=_OBSERVATION_ORDER):
        address = access.address
        cell = (address.rank, address.offset)
        kind = access.kind
        if kind is not read:
            written.add(cell)
        # ``kind.value``, without the enum descriptor's two frames.
        by_cell.setdefault(cell, []).append(f"{access.rank}:{kind._value_}")
    # One part per cell with a conflicting pair (two accesses, one writing),
    # led by ``repr(address)``.  No such text is a prefix of another (each
    # ends at its only ``)``), so sorting the parts sorts by that text.
    parts = sorted(
        [
            f"GlobalAddress(rank={rank}, offset={offset}):" + ",".join(order)
            for (rank, offset), order in by_cell.items()
            if len(order) > 1 and (rank, offset) in written
        ]
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


#: The sort key of :func:`schedule_fingerprint`'s observation order.
_OBSERVATION_ORDER = operator.attrgetter("time", "access_id")


class SystematicStrategy(ScheduleStrategy):
    """Forces a partial slot assignment; records the branch points it meets.

    Parameters
    ----------
    forced:
        Mapping from choice-point key to slot (``1`` to
        ``branch_factor - 1``); every other choice point runs at default.
    branch_factor:
        Delay slots per branch point, slot 0 being the default timing.
    quantum:
        Delay per slot, on the order of the fabric's one-hop latency.
    max_branch_points:
        How many choice points of one run are branchable; bounds
        the search tree's width (the "around conflicting accesses" budget —
        data messages carry the accesses, lock requests decide the order in
        which the target serializes conflicting ones).
    """

    def __init__(
        self,
        forced: Dict[str, int],
        branch_factor: int = 3,
        quantum: float = 1.0,
        max_branch_points: int = 8,
    ) -> None:
        if branch_factor < 2:
            raise ValueError(f"branch_factor must be at least 2, got {branch_factor}")
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if max_branch_points < 1:
            raise ValueError(
                f"max_branch_points must be at least 1, got {max_branch_points}"
            )
        for key, slot in forced.items():
            if not (1 <= slot < branch_factor):
                raise ValueError(
                    f"forced slot for {key} must be in [1, {branch_factor - 1}], "
                    f"got {slot}"
                )
        self.forced = dict(forced)
        self.branch_factor = branch_factor
        self.quantum = quantum
        self.max_branch_points = max_branch_points
        #: Branchable choice-point keys met during the run, in order.
        self.branch_points: List[str] = []

    def choose(
        self,
        kind: str,
        key: str,
        bound: Optional[int] = None,
        message: Optional[Message] = None,
    ) -> Choice:
        """The forced slot of a branch point, in its kind's own unit.

        A slot beyond the options an index kind has at this point is clamped
        to the last one.
        """
        if kind == "tie" or (kind == "latency" and not is_reorderable(message)):
            return 0
        if len(self.branch_points) < self.max_branch_points:
            self.branch_points.append(key)
        slot = self.forced.get(key, 0)
        if bound is not None:
            return min(slot, bound - 1)
        return slot * self.quantum

    def describe(self) -> str:
        return (
            f"systematic({len(self.forced)} forced, "
            f"bf={self.branch_factor}, depth={self.max_branch_points})"
        )
