"""The dual-clock race detector (Algorithms 1, 2 and 5 of the paper).

Every shared datum carries two vector clocks, stored in the owning rank's
public memory next to the data (``MemoryCell.access_clock`` /
``MemoryCell.write_clock``):

* ``V(x)`` — the *general-purpose clock*, advanced by every access to ``x``;
* ``W(x)`` — the *write clock*, advanced only by writes to ``x``.

Every process ``P_i`` maintains the principal row of the paper's clock matrix
``V_Pi`` — its own vector clock, the one row a verdict reads (see
:mod:`repro.core.clocks`) — and increments its local component before each
event (``update_local_clock``).  When a remote operation reaches the datum
(under the NIC lock, so the detection mechanism itself cannot race — paper,
end of Section IV-B), the detector compares the event's clock with the
datum's clock:

* a **write** (``put``) is compared against the datum's access clock ``V(x)``
  — a write races with *any* unordered earlier access;
* a **read** (``get``) is compared against the datum's write clock ``W(x)`` —
  a read races only with an unordered earlier *write*, so concurrent reads are
  never flagged (Figure 4, Section IV-D).

If the two clocks are incomparable (Corollary 1) a :class:`RaceRecord` is
emitted through the configured :class:`~repro.core.races.RaceReport`.  After
the check the origin process's clock merges the datum's access clock ``V(x)``
(a writer fetched it for the check; a reader's data — and therefore its
causal history — flowed back with it) and the datum's clocks are merged with
the event clock (Algorithm 5 / ``max_clock``).

Clock-update conventions (calibrated against the clock values printed in
Figures 4 and 5a–5c; see DESIGN.md "Interpretation notes"):

* the *arrival* of a remote write at the owner's memory is an event of the
  owning process: the owner's clock merges the incoming clock and ticks, and
  the datum clocks record that reception (``write_effect_ticks_owner``,
  default on).  This matches the clock values printed on the space-time
  diagrams of Figure 5 (``110`` on the P1 line after ``m1(100)``), makes the
  second put of Figure 5a a detected race, keeps the causally chained accesses
  of Figure 5b ordered, and makes the unordered *arrivals* of Figure 5c a
  detected race even though the two puts are ordered at their issuers;
* servicing a ``get`` ticks nothing (Figure 5b shows ``P0`` merely merging
  ``010``); the reader learns the datum's access clock from the reply;
* a process never races with its own immediately preceding access to the same
  datum (program order plus FIFO delivery) — this is what keeps Figure 2's
  put-then-get by P2 silent;
* a writer learns the datum clock it fetched for the check, but not the
  owner's new tick: one-sided writes are fire-and-forget, and treating put
  completion as a synchronization would hide Figure 5c's arrival race.  An
  atomic's reply leaves the owner after the reception event, so its origin
  learns that tick too.

The paper's pseudo-code also admits a stricter comparison that we keep for
ablations (benchmark E9): ``comparison = STRICT`` uses the literal Algorithm 3
(strictly smaller in every component) instead of Mattern's order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from time import perf_counter_ns as _perf_counter_ns
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.clocks import Epoch, VectorClock, _adopt
from repro.core.comparator import compare_clocks, compare_clocks_strict
from repro.core.races import RaceRecord, RaceReport, SignalPolicy
from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind
from repro.memory.public import MemoryCell
from repro.obs.profiler import DetectionProfiler
from repro.util.records import trusted_build
from repro.util.validation import require_positive, require_rank

_maximum = np.maximum
_zeros = np.zeros
_int64 = np.int64
#: ``Epoch`` built in C: a NamedTuple's own ``__new__`` is a Python frame.
_tuple_new = tuple.__new__

#: Enum members the hot path compares against, read once (a module global is
#: one dict probe; an ``AccessKind.WRITE`` attribute read costs ~15×).
_WRITE_KIND, _READ_KIND, _RMW_KIND = AccessKind.WRITE, AccessKind.READ, AccessKind.RMW

#: The three per-datum clocks a check can take as its reference.
_ACCESS, _WRITE, _PLAIN = "V(x)", "W(x)", "plain"


def _covers(entries: np.ndarray, epoch: Optional[Epoch]) -> bool:
    """O(1) probe: do *entries* dominate the clock *epoch* annotates?

    The unchecked twin of :func:`repro.core.comparator.epoch_precedes`, for
    epochs this module built from ranks it validated.
    """
    return epoch is not None and entries.item(epoch[0]) >= epoch[1]


def _merged_annotation(
    current_epoch: Optional[Epoch],
    covered: bool,
    event_epoch: Optional[Epoch],
    datum: np.ndarray,
) -> Optional[Epoch]:
    """Annotation for ``datum := datum ∪ event``, computed *before* the merge.

    Three exact O(1) cases: the old content was *covered* by the event
    (merged content == event, so the event's own epoch — if it has one —
    annotates the result); the event was already contained in the datum
    clock (witnessed by probing the event's epoch against the pre-merge
    content: content unchanged, the standing annotation survives); otherwise
    the merge is a genuine join with no O(1) witness and the annotation drops
    to the full-vector state.
    """
    if covered:
        return event_epoch
    if event_epoch is not None and datum.item(event_epoch[0]) >= event_epoch[1]:
        return current_epoch
    return None


class ComparisonMode(enum.Enum):
    """Which clock comparison implements ``compare_clocks``."""

    MATTERN = "mattern"   # component-wise <= with at least one <  (Lemma 1)
    STRICT = "strict"     # component-wise <  in every entry       (Algorithm 3, literal)


_MATTERN = ComparisonMode.MATTERN


@dataclass(frozen=True)
class DetectorConfig:
    """Tunable knobs of the detector.

    Frozen: a detector's semantics are fixed when its config is built, and
    one object may be shared (a runtime's ``config.detector`` *is* its
    detector's ``config``).  Detection off is no detector at all
    (``RuntimeConfig(detector=None)``), not a mode of this one.

    Attributes
    ----------
    comparison:
        See :class:`ComparisonMode`.
    write_effect_ticks_owner:
        Treat the arrival of a remote write at the owner's memory as an event
        of the owning process: the owner's clock merges the incoming clock and
        ticks, and the datum clocks record that reception (the convention
        behind the clock values of Figures 5a–5c, e.g. ``110`` on the P1 line
        after ``m1(100)``).  Default on; turning it off reduces detection to
        pure issuing-side happens-before, which misses the arrival-order race
        of Figure 5c (ablation benchmark).
    treat_rmw_pairs_as_ordered:
        One-sided atomics (``fetch_add``, ``compare_and_swap``) are serviced
        atomically by the target NIC, so two RMW operations on the same cell
        can never interleave destructively even when causally unordered.
        When this knob is on, an RMW is checked only against the cell's
        *plain* (non-RMW) accesses — unordered RMW/RMW pairs are silenced,
        the hardware-serialization analogue of the paper's benign
        master-worker races.  Default off: the paper's happens-before
        discipline signals every unordered conflicting pair, atomic or not,
        leaving benignity to the signal policy.
    epochs:
        Enable the FastTrack-style epoch fast path: per-datum clocks whose
        content is known to equal a single rank's captured principal vector
        carry a ``(rank, scalar)`` annotation, and checks against an
        annotated clock run as one O(1) component probe instead of O(n)
        directional compares.  The annotation is dropped (promotion to a
        full vector) whenever a merge produces content with no O(1) epoch
        witness — the read-share case — and re-established by the next
        owner-event write (demotion back to an epoch).  Verdicts, clock
        contents, and join counts are identical with the knob on or off;
        only ``compares`` drop (traded for ``epoch_hits`` in the
        detection profile).  Only active under the Mattern comparison —
        the STRICT ablation always runs the full-vector path.  Default on.
        In a runtime the ``detector_epochs`` knob alone decides it: the
        runtime builds its detector's config with the knob's value.
    """

    comparison: ComparisonMode = ComparisonMode.MATTERN
    write_effect_ticks_owner: bool = True
    treat_rmw_pairs_as_ordered: bool = False
    epochs: bool = True

    def compare(self, first: VectorClock, second: VectorClock) -> bool:
        """``compare_clocks`` under the configured comparison mode."""
        if self.comparison is ComparisonMode.STRICT:
            return compare_clocks_strict(first, second)
        return compare_clocks(first, second)

    def clocks_unordered(self, first: VectorClock, second: VectorClock) -> bool:
        """The race test of Algorithms 1–2: neither clock precedes the other.

        Equal clocks are considered ordered (identical causal history cannot
        constitute a race) under the Mattern comparison; under the literal
        strict comparison equality is *not* an ordering, exactly as the
        paper's Algorithm 3 would compute.
        """
        if self.comparison is _MATTERN:
            return first.concurrent_with(second)
        return not self.compare(first, second) and not self.compare(second, first)

    def reference_unknown(self, reference: VectorClock, event: VectorClock) -> bool:
        """The race test for *carried* events: datum history not in the snapshot.

        A carried operation takes effect at the memory *now*, after every
        access the datum clock records — but its event clock is the
        post-time snapshot, which may be arbitrarily stale.  The pair is
        ordered only when the snapshot already contains the datum's history
        (``reference <= event``); mere incomparability-freedom is not
        enough, because a dominated snapshot (``event < reference``) means
        the effect is landing after accesses the poster never knew about —
        Figure 5c's arrival-order race, same-origin edition.  For live
        events the two tests coincide (a freshly ticked clock can never be
        dominated by the datum clock), which is why
        :meth:`clocks_unordered` is stated symmetrically in the paper.
        """
        if self.comparison is _MATTERN:
            # Equal or strictly before: one ``reference <= event`` pass.
            return not event.dominates(reference)
        return not self.compare(reference, event)


@trusted_build
@dataclass(frozen=True, slots=True)
class AccessCheckResult:
    """Outcome of one instrumented remote access."""

    race: Optional[RaceRecord]
    event_clock: Tuple[int, ...]
    datum_access_clock: Tuple[int, ...]
    datum_write_clock: Optional[Tuple[int, ...]]
    #: Epoch annotation of ``datum_access_clock`` at result time, when the
    #: fast path could establish one — lets downstream consumers (the queue
    #: pair's drain) chain O(1) domination probes across a burst.
    datum_epoch: Optional[Epoch] = None

    @property
    def raced(self) -> bool:
        """True when this access was flagged."""
        return self.race is not None


#: A race record's explanation, per comparison mode.
_DETAIL = {
    mode: f"compare_clocks failed both ways ({mode.value})" for mode in ComparisonMode
}
#: ``_signal`` picks between these by identity: an Enum hashes in Python.
_MATTERN_DETAIL, _STRICT_DETAIL = _DETAIL[_MATTERN], _DETAIL[ComparisonMode.STRICT]

#: What is fixed per kind of access: ``(kind, profiler bucket of a live and of
#: a carried check, advances W(x) too, counts as a plain — non-atomic —
#: access)``.
_WRITE_ACCESS = (_WRITE_KIND, ("write", "live"), ("write", "carried"), True, True)
_READ_ACCESS = (_READ_KIND, ("read", "live"), ("read", "carried"), False, True)
_RMW_ACCESS = (_RMW_KIND, ("rmw", "live"), ("rmw", "carried"), True, False)

#: ``(rank, kind, live, origin component)`` of an access that never happened.
_UNTOUCHED = (None, _WRITE_KIND, True, 0)


class _DatumState:
    """Detector-side memory of who last touched a datum; lives on its cell
    (``MemoryCell.detector_state``), next to the clocks it describes.

    Each "last X" is ``(rank, kind, live, component)``: beyond the reporting
    fields it records whether that access was *live* (the process's own
    clock ticked at the access — blocking operations) or *carried* (the NIC
    engine acted from a post-time snapshot the message physically carried —
    posted one-sided work and two-sided scatter writes), plus the
    origin-component of its event clock.  The program-order guard needs
    both: program order only orders same-origin pairs whose issue-to-effect
    paths are themselves ordered (live/live, carried/carried on one queue
    pair, or live-then-post where the snapshot proves the post came after
    the blocking access returned) —
    a posted-but-unwaited operation and a later live access by the same rank
    are NOT ordered, which is exactly the async blind spot the
    clock-transport refactor closes.

    ``last_access`` goes with ``V(x)``, ``last_write`` with ``W(x)`` and
    ``last_plain`` — the last *non-atomic* access — with the plain clock an
    RMW is checked against under ``treat_rmw_pairs_as_ordered``.

    The epochs are FastTrack-style annotations of the same three clocks:
    ``(r, s)`` asserts the clock's content equals rank ``r``'s principal as
    captured at its ``s``-th own tick (see :class:`repro.core.clocks.Epoch`);
    None is the promoted-to-full-vector state.  They are maintained in
    lockstep with the clock contents, which presumes the detector is the
    only mutator of a cell's clocks.
    """

    __slots__ = (
        "last_access", "last_write", "last_plain",
        "access_epoch", "write_epoch", "plain_epoch",
    )

    def __init__(self) -> None:
        self.last_access = self.last_write = self.last_plain = _UNTOUCHED
        self.access_epoch: Optional[Epoch] = None
        self.write_epoch: Optional[Epoch] = None
        self.plain_epoch: Optional[Epoch] = None


class DualClockRaceDetector:
    """Per-execution race detector implementing the paper's algorithm."""

    def __init__(
        self,
        world_size: int,
        config: Optional[DetectorConfig] = None,
        report: Optional[RaceReport] = None,
    ) -> None:
        require_positive(world_size, "world_size")
        self._world_size = world_size
        self.config = config if config is not None else DetectorConfig()
        # Note: RaceReport is falsy while empty, so test for None explicitly.
        self.report = report if report is not None else RaceReport(SignalPolicy.COLLECT)
        self._process_clocks: List[VectorClock] = [
            _adopt(np.zeros(world_size, dtype=np.int64)) for _ in range(world_size)
        ]
        # Per-datum clock covering only the *plain* (non-RMW) accesses; built
        # lazily and only consulted when ``treat_rmw_pairs_as_ordered`` is on.
        self._plain_clocks: Dict[GlobalAddress, VectorClock] = {}
        self._checks_performed = 0
        # Per-check-type cost attribution; a private profiler until the
        # runtime binds the simulator-wide one (bind_observability).
        self._profiler = DetectionProfiler()
        self._spans = None

    def bind_observability(self, obs: object) -> None:
        """Route hot-path profiling and race instants into a shared bundle."""
        profiler = getattr(obs, "profiler", None)
        if profiler is not None:
            self._profiler = profiler
        self._spans = getattr(obs, "spans", None)

    @property
    def profiler(self) -> DetectionProfiler:
        """The per-check-type cost profiler in use."""
        return self._profiler

    # -- clocks ---------------------------------------------------------------

    @property
    def world_size(self) -> int:
        """Number of processes the clocks cover."""
        return self._world_size

    def process_clock(self, rank: int) -> VectorClock:
        """*rank*'s live vector clock (the principal row of the paper's ``V_Pi``)."""
        require_rank(rank, self._world_size, "rank")
        return self._process_clocks[rank]

    def current_clock(self, rank: int) -> VectorClock:
        """A copy of *rank*'s current vector clock."""
        return self.process_clock(rank).copy()

    def local_event(self, rank: int) -> VectorClock:
        """``update_local_clock``: tick *rank* for a purely local event."""
        return self.process_clock(rank).tick(rank).copy()

    def transfer_clock(self, from_rank: int, to_rank: int) -> VectorClock:
        """Merge *from_rank*'s clock into *to_rank*'s (explicit synchronization).

        Used by the runtime's collectives (barrier, point-to-point
        notifications): any explicit synchronization creates a happens-before
        edge, which is what makes subsequent accesses ordered.
        """
        source = self.process_clock(from_rank)
        return self.process_clock(to_rank).merge_in_place(source).copy()

    def on_recv_complete(
        self, receiver: int, carried_clock: Optional[VectorClock] = None
    ) -> Optional[VectorClock]:
        """Retiring a receive completion: the happens-before of message passing.

        Two-sided delivery synchronizes the receiving *process* at the moment
        it retires the receive completion — not when the payload lands in its
        memory (the NIC scatters without the process's involvement, exactly
        like a one-sided put; but unlike a put, the landing is NOT treated as
        an owner event, because the two-sided contract gives the receiver an
        explicit synchronization point and treating the landing as one would
        hide a receiver that touches the posted buffer between landing and
        retirement).  At retirement the receiver merges *carried_clock* — the
        clock the message carried: the sender's post-time snapshot joined
        with the receive buffer's post-time snapshot — a *directional*
        transfer; the sender learns nothing back.

        Post-time snapshots, not live clocks, are essential on both sides:
        the sender's later events must not leak into the match (the
        same-origin blind spot the ROADMAP documents), and the receiver's
        buffer scribbles after posting must stay unordered with the scatter
        so the detector keeps seeing them — in *every* schedule, whether the
        scribble lands before or after the payload.  For the same reason a
        missing snapshot merges *nothing*: substituting the sender's live
        clock would manufacture exactly the happens-before this method
        exists to avoid.
        """
        if carried_clock is None:
            return None
        return self.process_clock(receiver).merge_in_place(carried_clock).copy()

    def on_completion_retired(
        self, origin: int, carried_clock: Optional[VectorClock] = None
    ) -> Optional[VectorClock]:
        """Retiring a one-sided work completion: the initiator learns the datum.

        The completion of a posted put/get/atomic carries the datum's clock
        back to the initiator (piggybacked on the ack/reply, or fetched by
        the roundtrip transport); merging it at *retirement* — not at
        service — is the one-sided twin of :meth:`on_recv_complete`.  Until
        the initiator waits, nothing orders it after the operation's effect
        at the owner's memory, so a posted-but-unwaited operation and a
        later same-rank access to the same cell stay causally unordered —
        the false-negative class the post-time snapshot discipline closes.

        Under the per-queue-pair batched transport the carried clock is the
        join of every datum clock the drain serviced so far on that queue
        pair, which is sound because RC completes requests in order: one
        merge per retirement batch covers the whole burst.
        """
        if carried_clock is None:
            return None
        return self.process_clock(origin).merge_in_place(carried_clock).copy()

    # -- bookkeeping helpers ------------------------------------------------------

    def _plain_clock(self, address: GlobalAddress) -> VectorClock:
        """Clock covering only the non-RMW accesses to *address* (lazy)."""
        clock = self._plain_clocks.get(address)
        if clock is None:
            clock = self._plain_clocks[address] = _adopt(_zeros(self._world_size, _int64))
        return clock

    def _note_plain_access(
        self,
        address: GlobalAddress,
        state: _DatumState,
        event: np.ndarray,
        event_epoch: Optional[Epoch],
        epochs: bool,
    ) -> None:
        """Fold a plain access into the per-datum non-RMW clock (one join)."""
        plain = self._plain_clock(address)._entries
        if epochs:
            covered = not any(plain.tolist()) or _covers(event, state.plain_epoch)
            state.plain_epoch = _merged_annotation(
                state.plain_epoch, covered, event_epoch, plain
            )
        _maximum(plain, event, out=plain)

    # -- the instrumented operations ------------------------------------------------

    def _validate_access(
        self,
        origin: int,
        address: GlobalAddress,
        carried_clock: Optional[VectorClock],
    ) -> None:
        """The one validation of an instrumented access, on entry.

        Everything the kernel indexes afterwards — ``_process_clocks`` by
        the origin and by the datum's owner, clock entries by either, epoch
        ranks derived from them — is covered here, so the lookups below are
        unchecked (``ndarray.item``, ``VectorClock._entries``).
        """
        size = self._world_size
        # ``require_rank``'s own test, inline: it runs only to raise.
        if not (type(origin) is int and 0 <= origin < size):
            require_rank(origin, size, "origin")
        rank = address.rank
        if not (type(rank) is int and 0 <= rank < size):
            require_rank(rank, size, "address.rank")
        if carried_clock is not None and carried_clock.size != size:
            raise ValueError(
                f"carried clock has {carried_clock.size} entries, world size is {size}"
            )

    def on_write(
        self,
        origin: int,
        address: GlobalAddress,
        cell: MemoryCell,
        *,
        symbol: Optional[str] = None,
        time: float = 0.0,
        operation: str = "put",
        carried_clock: Optional[VectorClock] = None,
        owner_event: Optional[bool] = None,
    ) -> AccessCheckResult:
        """Algorithm 1: instrument a remote write (``put``) into *cell*.

        Must be called while the NIC lock on *address* is held.

        *carried_clock* is for writes the NIC engine performs on the origin's
        behalf from a clock the message physically carried — the scattered
        cells of a matched two-sided SEND, and every *posted* one-sided put
        under the clock-transport discipline.  The check then uses that
        snapshot as the event clock instead of ticking the origin's live
        clock, and the origin learns nothing back at service time (it is not
        there to learn — it synchronizes later, at completion retirement): a
        buffer scribble or same-origin access concurrent with the in-flight
        operation stays causally unordered with it, so the detector keeps
        seeing it.

        *owner_event* controls whether the write's arrival still counts as an
        event of the owning process when a carried clock is in play.  Posted
        one-sided puts pass ``True`` — their landing is an owner event
        exactly like a blocking put's (the ``write_effect_ticks_owner``
        convention) — while two-sided scatter writes keep the default
        exemption: their owner synchronizes explicitly at completion
        retirement (:meth:`on_recv_complete`), and an implicit owner event
        would order — and hide — buffer accesses the receiver makes between
        landing and retirement.  ``None`` (the default) resolves to "owner
        event iff no carried clock", the pre-existing behaviour.
        """
        self._validate_access(origin, address, carried_clock)
        race = self._check(
            _WRITE_KIND, origin, address, cell, symbol, time, operation,
            carried_clock, owner_event,
        )
        return self._result(race, origin, cell, carried_clock)

    def on_read(
        self,
        origin: int,
        address: GlobalAddress,
        cell: MemoryCell,
        *,
        symbol: Optional[str] = None,
        time: float = 0.0,
        operation: str = "get",
        carried_clock: Optional[VectorClock] = None,
    ) -> AccessCheckResult:
        """Algorithm 2: instrument a remote read (``get``) of *cell*.

        Must be called while the NIC lock on *address* is held.

        *carried_clock* is the post-time snapshot of a *posted* get, carried
        to the target by the request message: the check uses it as the event
        clock instead of ticking the origin's live clock, and the datum's
        causal history flows back at completion retirement
        (:meth:`on_completion_retired`) rather than at service.  The arrival
        of a carried read additionally counts as an owner event folded into
        the *access* clock only (never the write clock — a read is not a
        write): later writes (checked against ``V(x)``) see it, later reads
        (checked against ``W(x)``) do not, so concurrent reads stay silent
        (Figure 4).  That tick is what a later unwaited same-origin write to
        the cell cannot know about, making the read side of the async blind
        spot detectable.  A blocking get keeps the paper's calibration —
        servicing it ticks nobody (Figure 5b).
        """
        self._validate_access(origin, address, carried_clock)
        race = self._check(
            _READ_KIND, origin, address, cell, symbol, time, operation,
            carried_clock,
        )
        return self._result(race, origin, cell, carried_clock)

    def on_rmw(
        self,
        origin: int,
        address: GlobalAddress,
        cell: MemoryCell,
        *,
        symbol: Optional[str] = None,
        time: float = 0.0,
        operation: str = "fetch_add",
        carried_clock: Optional[VectorClock] = None,
    ) -> AccessCheckResult:
        """Instrument a one-sided atomic read-modify-write of *cell*.

        Must be called while the NIC lock on *address* is held.  An RMW both
        observes and deposits a value, so by default it is checked against the
        datum's general-purpose clock ``V(x)`` (like a write: any unordered
        earlier access conflicts) and, like a ``get``, its reply carries the
        datum's causal history back to the origin.  With
        ``treat_rmw_pairs_as_ordered`` the check only consults the plain
        (non-RMW) accesses, modelling the target NIC's atomic execution unit
        serializing RMW/RMW pairs; the plain clock is deliberately *not*
        advanced by the RMW itself.

        *carried_clock* is the post-time snapshot of a *posted* atomic: the
        event clock is the snapshot, the origin learns the reply's history at
        completion retirement (:meth:`on_completion_retired`) instead of at
        service, and the effect at the owner's memory still counts as an
        owner event (an RMW writes, exactly as a posted put does).
        """
        self._validate_access(origin, address, carried_clock)
        race = self._check(
            _RMW_KIND, origin, address, cell, symbol, time, operation,
            carried_clock,
        )
        return self._result(race, origin, cell, carried_clock)

    # -- per-kind resolution: what each kind of access asks of the kernel ------------

    def _check(
        self,
        kind: AccessKind,
        origin: int,
        address: GlobalAddress,
        cell: MemoryCell,
        symbol: Optional[str],
        time: float,
        operation: str,
        carried_clock: Optional[VectorClock],
        owner_event: Optional[bool] = None,
    ) -> Optional[RaceRecord]:
        """Check one access of *kind*; returns the race, if any.

        Resolves what differs per kind — the reference clock and whether the
        effect is an owner event — and runs the kernel.  The entry points
        come through here and then build their result record;
        ``TraceReplayer.replay`` comes through here and builds none.  The
        caller has validated the access (:meth:`_validate_access`).
        *owner_event* is :meth:`on_write`'s and is ignored for the other
        kinds.
        """
        if kind is _WRITE_KIND:
            return self._instrument(
                _WRITE_ACCESS, origin, address, cell, symbol, time, operation,
                carried_clock,
                _ACCESS,
                carried_clock is None if owner_event is None else owner_event,
            )
        if kind is _READ_KIND:
            return self._instrument(
                _READ_ACCESS, origin, address, cell, symbol, time, operation,
                carried_clock,
                _WRITE,
                carried_clock is not None,
            )
        return self._instrument(
            _RMW_ACCESS, origin, address, cell, symbol, time, operation,
            carried_clock,
            _PLAIN if self.config.treat_rmw_pairs_as_ordered else _ACCESS,
            True,
        )

    def _result(
        self,
        race: Optional[RaceRecord],
        origin: int,
        cell: MemoryCell,
        carried_clock: Optional[VectorClock],
    ) -> AccessCheckResult:
        """The record of the check just made, built from the state it left.

        The event clock is the carried snapshot, or the origin's live clock
        as the kernel left it.  The datum clocks and their access epoch are
        the cell's, as merged.
        """
        if carried_clock is not None:
            event = tuple(carried_clock._entries.tolist())
        else:
            event = tuple(self._process_clocks[origin]._entries.tolist())
        return AccessCheckResult._build(
            race,
            event,
            tuple(cell.access_clock._entries.tolist()),
            tuple(cell.write_clock._entries.tolist()),
            cell.detector_state.access_epoch,
        )

    def _instrument(
        self,
        access_kind: Tuple[AccessKind, Tuple[str, str], Tuple[str, str], bool, bool],
        origin: int,
        address: GlobalAddress,
        cell: MemoryCell,
        symbol: Optional[str],
        time: float,
        operation: str,
        carried_clock: Optional[VectorClock],
        reference_slot: str,
        owner_event: bool,
    ) -> Optional[RaceRecord]:
        """The check kernel behind :meth:`on_write`, :meth:`on_read`, :meth:`on_rmw`.

        What differs per kind arrives resolved: *reference_slot* names the
        datum clock the event is compared against (its "previous access"
        fields and epoch go with it); *owner_event* whether the effect at the
        owner's memory is an event of the owning process.  *access_kind*
        (one of the three module constants) carries what the kind itself
        fixes — its profile buckets and which datum clocks advance: every
        access joins ``V(x)``, writes and RMWs ``W(x)`` too, reads and writes
        the plain clock.  A live origin absorbs ``V(x)`` with the check's
        reply, and an atomic's origin once more after the owner event its
        reply follows.

        The kernel works on the ``int64`` rows directly — ranks were
        validated on entry and every array here was built by ``core`` — and
        books the *algorithm's* operations in the profile (one join per
        Algorithm-4 merge, one or two compares per directional vector
        comparison), whatever the number of NumPy calls that took.  A live
        event clock is the origin's principal row itself, read in place.  The
        kernel returns the race, if any, and builds no result record: the
        entry points build theirs from the state it leaves (:meth:`_result`).

        **The check** (Corollary 1: signal a race when the clocks are
        incomparable).  A virgin datum (all-zero reference clock) has never
        been accessed: the zero clock happens-before every non-zero clock, so
        no race can be reported for a first access.  A non-zero origin
        component recorded for the reference's last access witnesses a
        non-zero clock without a reduction.  When the last conflicting
        access was made by the same process AND the pair is ordered by an
        issue-to-effect path, the check is skipped (program order):

        * live → live: program order — the process issued both and the first
          completed before the second was issued;
        * live → carried: ordered iff the current post's snapshot already
          contains the previous event's tick (the post was made after the
          blocking access returned); a snapshot older than the previous
          event means the operation was posted *before* it, and the NIC
          engine may service it on either side;
        * carried → carried: same origin + same cell implies the same queue
          pair, whose drain services posts in order (the RC guarantee);
        * carried → live: nothing orders the NIC engine's effect against the
          process's later access — the posted-but-unwaited blind spot, so
          the clock comparison must run.

        With a valid epoch annotation of the reference clock, both
        provenance variants collapse to one O(1) probe.  For a carried event
        ``reference_unknown`` is literally ``not (reference <= event)``,
        which the probe decides exactly.  For a live event the freshly
        ticked origin component cannot appear in the reference yet, so
        ``event <= reference`` and equality are impossible and
        ``clocks_unordered`` reduces to the same ``not (reference <=
        event)`` — identical verdicts by construction, no confirming full
        compare.
        """
        config = self.config
        profiler = self._profiler
        started = _perf_counter_ns() if profiler.wall_clock else None
        kind, live_bucket, carried_bucket, writes, is_plain = access_kind
        plain = is_plain and config.treat_rmw_pairs_as_ordered
        # Epoch annotations presume Mattern semantics (equality is ordered,
        # and the O(1) probe is exact for ``<=``); the STRICT ablation always
        # runs the full-vector path.
        epochs = config.epochs and config.comparison is _MATTERN

        state = cell.detector_state
        if state is None:
            state = cell.detector_state = _DatumState()
        access_clock = cell.access_clock
        if access_clock is None:
            access_clock = cell.access_clock = _adopt(_zeros(self._world_size, _int64))
        write_clock = cell.write_clock
        if write_clock is None:
            write_clock = cell.write_clock = _adopt(_zeros(self._world_size, _int64))
        access = access_clock._entries
        write = write_clock._entries

        live = carried_clock is None
        if live:
            event = self._process_clocks[origin]._entries
            component = event.item(origin) + 1
            event[origin] = component
        else:
            event = carried_clock._entries
            component = event.item(origin)

        pre_access_epoch = state.access_epoch if epochs else None
        pre_write_epoch = state.write_epoch if epochs else None
        if reference_slot is _ACCESS:
            reference_clock, reference_epoch = access_clock, pre_access_epoch
            previous_rank, previous_kind, previous_live, previous_component = (
                state.last_access
            )
        elif reference_slot is _WRITE:
            reference_clock, reference_epoch = write_clock, pre_write_epoch
            # Whatever advanced W(x) — an RMW included — is reported as a write.
            previous_rank, _, previous_live, previous_component = state.last_write
            previous_kind = _WRITE_KIND
        else:
            reference_clock = self._plain_clock(address)
            reference_epoch = state.plain_epoch if epochs else None
            previous_rank, previous_kind, previous_live, previous_component = (
                state.last_plain
            )
        reference = reference_clock._entries

        compares = epoch_hits = 0
        # Tri-state: True when the check established ``reference <= event``
        # (virgin reference, or a non-racy verdict), False when racy, None
        # when it was skipped and nothing is known.
        covered: Optional[bool] = None
        race: Optional[RaceRecord] = None
        # V(x) and W(x) absorbed their last access's event clock, so its
        # origin component, when non-zero, stands for the whole reduction;
        # the plain clock only advances while its knob is on.
        if (
            previous_component == 0 or reference_slot is _PLAIN
        ) and not any(reference.tolist()):
            covered = True
        elif not (
            previous_rank == origin
            and (
                (live or component > previous_component)
                if previous_live
                else not live
            )
        ):
            if reference_epoch is not None:
                # The FastTrack fast path: one O(1) component probe.
                epoch_hits = 1
                racy = event.item(reference_epoch[0]) < reference_epoch[1]
            elif live:
                # Two directional O(n) comparisons (neither clock precedes the other).
                compares = 2
                racy = config.clocks_unordered(_adopt(event), reference_clock)
            else:
                # One directional O(n) comparison (is the datum history in the snapshot?).
                compares = 1
                racy = config.reference_unknown(reference_clock, carried_clock)
            # A non-racy verdict establishes ``reference <= event`` in both
            # provenances: directly for carried events, and by the fresh-tick
            # argument (the other two Mattern outcomes are impossible) for
            # live ones.  Consumed only by the epoch annotation maintenance.
            covered = not racy
            if racy:
                race = self._signal(
                    origin, address, kind, event, previous_rank, previous_kind,
                    reference, time, symbol, operation,
                )

        joins = 0
        event_epoch: Optional[Epoch] = None
        if live:
            # The check's reply carries V(x) back: a writer fetched it for the
            # check, a reader's data (and its causal history) flows back.
            _maximum(event, access, out=event)
            joins = 1
            if epochs:
                # The event now covers V(x) ⊇ W(x), so both merged datum
                # clocks equal it, and a freshly ticked, datum-enriched live
                # event clock IS the origin's principal at its current tick.
                event_epoch = _tuple_new(Epoch, (origin, component))
        # A carried event learns nothing, so the merge below is a genuine
        # join with no O(1) witness: the annotation drops (None).

        # Algorithm 5 (update_clock / update_clock_W): merge the event clock
        # into the per-datum clocks.  When the arrival is an owner event
        # (below), the owner's row absorbs the event first and the datum
        # clocks then absorb that row, which leaves the same content: the
        # joins are booked, not made.
        owner = address.rank
        owner_ticks = (
            owner_event and owner != origin and config.write_effect_ticks_owner
        )
        joins += 2 if writes else 1
        if not owner_ticks:
            _maximum(access, event, out=access)
            if writes:
                _maximum(write, event, out=write)
            if epochs:
                state.access_epoch = event_epoch
                if writes:
                    state.write_epoch = event_epoch
        else:
            # The arrival at the owner's memory is an event of the owning
            # process (this is how the paper's Figure 5 space-time diagrams
            # advance the target's clock on reception of a put): the owner
            # merges the incoming clock, ticks its own component, and the
            # datum clocks record that reception event.  Posted operations
            # keep it: the tick is what a later unwaited same-origin access
            # cannot know about, making the async race detectable.
            owner_view = self._process_clocks[owner]._entries
            _maximum(owner_view, event, out=owner_view)
            owner_component = owner_view.item(owner) + 1
            owner_view[owner] = owner_component
            _maximum(access, owner_view, out=access)
            joins += 2
            if writes:
                _maximum(write, owner_view, out=write)
                joins += 1
            owner_epoch = _tuple_new(Epoch, (owner, owner_component)) if epochs else None
            if plain:
                self._note_plain_access(address, state, owner_view, owner_epoch, epochs)
                joins += 1
            if epochs:
                # The owner view dominates the event clock, so the datum
                # clocks now hold exactly ``owner_view`` whenever their
                # pre-tick content was covered by the event: always for a
                # live event (it absorbed V(x) ⊇ W(x)); for a carried one
                # when the check said so, or by an O(1) probe of the
                # standing annotation.  This is the demotion back to an
                # epoch after a read-share.
                if live:
                    state.access_epoch = owner_epoch
                    if writes:
                        state.write_epoch = owner_epoch
                else:
                    if reference_slot is _ACCESS and covered is not None:
                        access_covered = covered
                    else:
                        access_covered = (
                            pre_access_epoch is not None
                            and event.item(pre_access_epoch[0]) >= pre_access_epoch[1]
                        )
                    state.access_epoch = owner_epoch if access_covered else None
                    if writes:
                        if access_covered:
                            write_covered = True
                        elif reference_slot is _WRITE and covered is not None:
                            write_covered = covered
                        else:
                            write_covered = (
                                pre_write_epoch is not None
                                and event.item(pre_write_epoch[0]) >= pre_write_epoch[1]
                            )
                        state.write_epoch = owner_epoch if write_covered else None
            if kind is _RMW_KIND and live:
                # The atomic's reply leaves the owner after the reception
                # event, and carries V(x) back with it.
                _maximum(event, access, out=event)
                joins += 1

        if plain:
            self._note_plain_access(address, state, event, event_epoch, epochs)
            joins += 1

        last = (origin, kind, live, component)
        state.last_access = last
        if writes:
            state.last_write = last
        if is_plain:
            state.last_plain = last

        # Profile the check.  The clock traffic it costs is the fabric's to
        # count, where the clock is sent (``ClockTransport``).
        self._checks_performed += 1
        bucket = profiler._buckets[live_bucket if live else carried_bucket]
        bucket.checks += 1
        bucket.compares += compares
        bucket.joins += joins
        bucket.epoch_hits += epoch_hits
        if started is not None:
            bucket.wall_ns += _perf_counter_ns() - started
        return race

    def _signal(
        self,
        origin: int,
        address: GlobalAddress,
        kind: AccessKind,
        event: np.ndarray,
        previous_rank: Optional[int],
        previous_kind: AccessKind,
        reference: np.ndarray,
        time: float,
        symbol: Optional[str],
        operation: str,
    ) -> RaceRecord:
        """Record the race between the event and the reference's last access."""
        record = RaceRecord._build(
            address,
            origin,
            kind,
            tuple(event.tolist()),
            previous_rank,
            previous_kind,
            tuple(reference.tolist()),
            time,
            symbol,
            operation,
            _MATTERN_DETAIL if self.config.comparison is _MATTERN else _STRICT_DETAIL,
        )
        self.report.signal(record)
        if self._spans is not None:
            self._spans.instant(
                f"rank-P{origin}",
                "race_signal",
                time,
                symbol=symbol or str(address),
                operation=operation,
                previous=f"P{previous_rank}" if previous_rank is not None else "?",
            )
        return record

    # -- overhead accounting ---------------------------------------------------------

    @property
    def checks_performed(self) -> int:
        """Number of instrumented remote accesses."""
        return self._checks_performed

    def clock_storage_entries(self) -> int:
        """Vector-clock entries the detector holds: ``n`` per process clock.

        Includes the per-datum plain-access clocks maintained when
        ``treat_rmw_pairs_as_ordered`` is enabled (``n`` entries per touched
        cell), so the overhead accounting reflects that configuration's cost.
        The paper's ``n × n`` matrices are modelled, not held
        (:class:`repro.analysis.overhead.ClockStorageModel`).
        """
        return sum(c.size for c in self._process_clocks) + sum(
            c.size for c in self._plain_clocks.values()
        )

    def races(self) -> List[RaceRecord]:
        """All race records signalled so far."""
        return self.report.records()

    def race_count(self) -> int:
        """Number of race signals so far."""
        return len(self.report)
