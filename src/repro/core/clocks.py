"""Logical clocks: vector clocks.

The race-detection algorithm of the paper rests entirely on logical time:

* Lamport clocks [12] give a total order compatible with causality but cannot
  *characterize* it (which is why no scalar clock is implemented here);
* vector clocks (Fayet/Mattern [15]) characterize causality exactly
  (Lemma 1 / Mattern's Theorem 10): ``e < e'  iff  V(e) < V(e')`` and
  ``e ∥ e'  iff  V(e) ∥ V(e')``;
* the paper's processes each maintain a *clock matrix* ``V_Pi`` — row ``j`` is
  ``P_i``'s latest knowledge of ``P_j``'s vector clock — and increment the
  diagonal entry ``V_Pi[i, i]`` before every event (Section IV-B).

A process here holds only the principal row ``i`` of ``V_Pi``, as one
:class:`VectorClock`: every check, join and epoch probe reads that row and
no verdict reads another.  The other ``n - 1`` rows are modelled, not held
(:class:`repro.analysis.overhead.ClockStorageModel` keeps the paper's ``n³``);
their one classic use, garbage-collecting datum clocks below the column-wise
minimum, is unsound here because a posted access lands carrying a post-time
snapshot that may be older than that minimum.

Clock entries are stored as NumPy ``int64`` arrays: merges (component-wise
max, Algorithm 4) and comparisons are then single vectorized operations, which
matters because the detector performs one merge and up to two comparisons per
remote memory access.  An order test reduces its comparison mask by searching
the mask's bytes (``b"\x01" in mask.tobytes()``: is any component true?), not
with ``ndarray.all()`` / ``ndarray.any()``, which NumPy routes through a
Python-level wrapper (``numpy/_core/_methods.py``) on every call.

Validation boundary (docs/architecture.md): public constructors and methods
validate every rank and foreign :data:`ClockLike`; arrays this module produced
itself are wrapped by the private :func:`_adopt` unchecked, so every clock
value handed out costs exactly one array copy.  The underscore names
(:func:`_adopt`, ``VectorClock._entries``) are for ``repro``'s own detectors,
which index with ranks they validated on entry and read a snapshot only when
someone asked for one.

Charron-Bost's lower bound (Section IV-C of the paper) says vector clocks for
``n`` processes need at least ``n`` entries; :attr:`VectorClock.size` is that
``n`` and the overhead benchmarks report storage directly in clock entries.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.util.validation import require_positive, require_rank

ClockLike = Union["VectorClock", Sequence[int], np.ndarray]


class Epoch(NamedTuple):
    """A FastTrack-style ``(rank, scalar)`` annotation of one vector clock.

    An epoch ``(r, s)`` attached to a clock ``C`` asserts the *epoch validity
    invariant*: ``C[r] == s`` and every clock ``X`` the system can ever
    compare against ``C`` with ``X[r] >= s`` dominates ``C`` component-wise.
    Under the standard vector-clock protocol the invariant holds exactly when
    ``C``'s content equals rank ``r``'s principal vector at its ``s``-th own
    tick *as last captured before any copy of that state escaped* — a
    component can only reach ``s`` by (transitively) merging a copy of that
    state, and the principal row grows monotonically, so every escape
    dominates the annotated capture.

    The payoff is the O(1) exact test ``C <= X  iff  X[r] >= s``
    (:func:`repro.core.comparator.epoch_precedes`), which replaces the O(n)
    directional compares of the detection hot path wherever an annotation is
    in hand.  Epochs are an *exact shortcut*, never a lossy state: when the
    invariant cannot be established locally the annotation is simply dropped
    and the full vector comparison runs, so verdicts cannot depend on them.
    """

    rank: int
    scalar: int


_new = object.__new__

#: The bytes of a true and a false component in a comparison ufunc's boolean
#: mask: ``_TRUE in mask.tobytes()`` is ``mask.any()`` without its Python frame.
_TRUE, _FALSE = b"\x01", b"\x00"


def _adopt(entries: np.ndarray) -> "VectorClock":
    """Trusted constructor: wrap *entries* without validating or copying.

    Only for a fresh non-negative 1-D ``int64`` array that ``core`` produced
    itself and that nothing else references (the module docstring's
    validation boundary); everything else goes through ``VectorClock(...)``.
    """
    clock = _new(VectorClock)
    clock._entries = entries
    return clock


class VectorClock:
    """A fixed-size vector clock over ``n`` processes.

    The clock is mutable (``tick``/``merge_in_place``) because the detector
    updates per-datum clocks in place under the NIC lock; every value that is
    stored in a trace or a race record is an explicit :meth:`copy` (or
    :meth:`frozen` tuple) so later mutation cannot corrupt history.
    """

    __slots__ = ("_entries",)

    def __init__(self, size_or_entries: Union[int, ClockLike]) -> None:
        if isinstance(size_or_entries, VectorClock):
            self._entries = size_or_entries._entries.copy()
            return
        if isinstance(size_or_entries, (int, np.integer)) and not isinstance(size_or_entries, bool):
            size = int(size_or_entries)
            require_positive(size, "size")
            self._entries = np.zeros(size, dtype=np.int64)
            return
        entries = np.array(size_or_entries)  # the one copy
        if entries.ndim != 1 or entries.size == 0:
            raise ValueError(
                f"vector clock entries must be a non-empty 1-D sequence, got shape {entries.shape}"
            )
        if entries.dtype.kind not in "iu":
            # An int64 cast would silently truncate 1.7 to 1 and parse "3".
            raise TypeError(
                f"vector clock entries must be integers, got dtype {entries.dtype}"
            )
        entries = entries.astype(np.int64, copy=False)
        if (entries < 0).any():
            raise ValueError("vector clock entries must be non-negative")
        self._entries = entries

    # -- construction helpers --------------------------------------------------

    @classmethod
    def zeros(cls, size: int) -> "VectorClock":
        """An all-zero clock for ``size`` processes (the paper's initial state)."""
        return cls(size)

    @classmethod
    def from_entries(cls, entries: Iterable[int]) -> "VectorClock":
        """Build a clock from an explicit entry list (used heavily in tests)."""
        return cls(list(entries))

    # -- basic accessors --------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of entries ``n`` — cannot be smaller than the process count [3]."""
        return int(self._entries.size)

    @property
    def entries(self) -> np.ndarray:
        """A *copy* of the underlying entries."""
        return self._entries.copy()

    def component(self, rank: int) -> int:
        """Entry for process *rank*."""
        require_rank(rank, self.size, "rank")
        return int(self._entries[rank])

    def frozen(self) -> Tuple[int, ...]:
        """An immutable, hashable snapshot of the entries."""
        return tuple(self._entries.tolist())

    def total(self) -> int:
        """Sum of all entries — the number of causally known events."""
        return int(self._entries.sum())

    # -- updates -----------------------------------------------------------------

    def tick(self, rank: int) -> "VectorClock":
        """Increment the component of *rank* (a local event on that process)."""
        require_rank(rank, self.size, "rank")
        self._entries[rank] += 1
        return self

    def merge_in_place(self, other: ClockLike) -> "VectorClock":
        """Component-wise max with *other* (Algorithm 4), mutating ``self``."""
        entries = self._entries
        if type(other) is VectorClock and other._entries.size == entries.size:
            other_entries = other._entries
        else:
            other_entries = self._coerce(other)
        np.maximum(entries, other_entries, out=entries)
        return self

    def merged(self, other: ClockLike) -> "VectorClock":
        """Return a new clock equal to the component-wise max (Algorithm 4)."""
        other_entries = self._coerce(other)
        return _adopt(np.maximum(self._entries, other_entries))

    def copy(self) -> "VectorClock":
        """Return an independent copy."""
        return _adopt(self._entries.copy())

    # -- comparisons ---------------------------------------------------------------

    def _coerce(self, other: ClockLike) -> np.ndarray:
        if not isinstance(other, VectorClock):
            other = VectorClock(other)
        entries = other._entries
        if entries.shape != self._entries.shape:
            raise ValueError(
                f"clock size mismatch: {self._entries.size} vs {entries.size}"
            )
        return entries

    def dominates(self, other: ClockLike) -> bool:
        """True when ``self >= other`` component-wise (reflexive): no entry is below."""
        return _TRUE not in (self._entries < self._coerce(other)).tobytes()

    def happens_before(self, other: ClockLike) -> bool:
        """Mattern's strict order: ``self <= other`` everywhere and ``!=`` somewhere.

        No entry is above *other*'s and some entry is below it.
        """
        other_entries = self._coerce(other)
        return (
            _TRUE not in (self._entries > other_entries).tobytes()
            and _TRUE in (self._entries < other_entries).tobytes()
        )

    def strictly_less(self, other: ClockLike) -> bool:
        """The paper's literal Algorithm 3: strictly less in *every* component."""
        return _FALSE not in (self._entries < self._coerce(other)).tobytes()

    def concurrent_with(self, other: ClockLike) -> bool:
        """True when neither clock happens-before the other and they differ.

        One ``>`` and one ``<`` pass decide it: some entry above *other*'s
        rules out "before" and "equal", some entry below it "after" and
        "equal"; both at once is exactly Mattern's incomparability.
        """
        other_entries = self._coerce(other)
        return (
            _TRUE in (self._entries > other_entries).tobytes()
            and _TRUE in (self._entries < other_entries).tobytes()
        )

    # -- dunder ---------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (VectorClock, list, tuple, np.ndarray)):
            return NotImplemented
        try:
            return bool(np.array_equal(self._entries, self._coerce(other)))
        except (TypeError, ValueError):
            return False

    def __hash__(self) -> int:
        return hash(self.frozen())

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, rank: int) -> int:
        return self.component(rank)

    def __repr__(self) -> str:
        return f"VectorClock({self._entries.tolist()})"

    def __str__(self) -> str:
        """The paper's digit string (``110``) while it is unambiguous, else ``repr``."""
        if self.size <= 10 and self._entries.max() < 10:
            return "".join(map(str, self._entries.tolist()))
        return repr(self)
