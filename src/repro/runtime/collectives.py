"""Synchronization and collective patterns built on the model's primitives.

The model offers nothing but one-sided memory operations and notifications, so
every higher-level pattern must be expressed with them — exactly the situation
of SHMEM/UPC programs.  Three are provided:

* :class:`Barrier` — a centralized barrier: every rank notifies the root, the
  root releases everyone.  A barrier is a synchronization point, so the
  participants' vector clocks are merged (the detector's
  :meth:`~repro.core.detector.DualClockRaceDetector.transfer_clock`), which is
  what makes post-barrier accesses causally ordered after pre-barrier ones.
* :func:`broadcast_via_puts` — the root writes a value into a shared array
  slot owned by each rank.
* :func:`one_sided_reduction` — the paper's future-work operation
  (Section V-B): one process performs a global reduction *"without any
  participation of the other processes, by fetching the data remotely"*.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.core.clocks import VectorClock
from repro.core.detector import DualClockRaceDetector
from repro.net.fabric import Fabric
from repro.net.message import MessageKind
from repro.obs.observability import Observability
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.util.validation import require_positive, require_rank


class Barrier:
    """A reusable centralized barrier over all ranks.

    One :class:`Barrier` instance is shared by the whole runtime; it can be
    crossed any number of times (generations).  Rank 0 is the root.  Message
    accounting: each non-root arrival costs one NOTIFY to the root and each
    release costs one NOTIFY from the root, i.e. ``2·(n−1)`` messages per
    crossing.
    """

    _root = 0

    def __init__(
        self,
        sim: Simulator,
        world_size: int,
        fabric: Fabric,
        detector: Optional[DualClockRaceDetector] = None,
        recorder: Optional[object] = None,
    ) -> None:
        require_positive(world_size, "world_size")
        self._sim = sim
        self._world_size = world_size
        self._fabric = fabric
        self._detector = detector
        self._recorder = recorder
        self._generation = 0
        self._arrived = 0
        self._release_events: Dict[int, Event] = {}
        self._crossings = 0
        #: The latest open: (release clock, last-arriving rank, open sim
        #: time).  The release clock is what every waiter merges; the rank
        #: and time are the fan-in edge the critical-path analyzer hops
        #: across.  One slot suffices: generation g+1 cannot open before
        #: every waiter of g has resumed and read it.
        self._opened: tuple = (None, None, None)
        self._obs = Observability.of(sim)
        #: rank -> its ``barrier.wait_time`` histogram, bound on first use.
        self._wait_times: Dict[int, object] = {}

    @cached_property
    def _crossings_counter(self):
        return self._obs.metrics.counter("barrier.crossings")

    @property
    def crossings(self) -> int:
        """Number of completed barrier generations."""
        return self._crossings

    @property
    def generation(self) -> int:
        """Current (possibly in-progress) generation index."""
        return self._generation

    def wait(self, rank: int) -> Generator:
        """Generator a rank yields from to cross the barrier."""
        require_rank(rank, self._world_size, "rank")
        if self._world_size == 1:
            self._crossings += 1
            return self._generation
        generation = self._generation
        arrived_at = self._sim._now
        # Arrival notification to the root (charged as a message for non-root ranks).
        if rank != self._root:
            event, _ = self._fabric.send(
                MessageKind.NOTIFY, rank, self._root, payload=("barrier", generation),
                payload_bytes=8,
            )
            yield event
        release = self._release_events.setdefault(
            rank, self._sim.event(name=f"barrier-release-g{generation}-P{rank}")
        )
        self._arrived += 1
        if self._arrived == self._world_size:
            self._open(generation, rank)
        yield release
        # Every participant leaves knowing everything every participant knew
        # when the barrier opened — and nothing a released rank did since.
        merged, opener, opened_at = self._opened
        if merged is not None:
            self._detector.process_clock(rank).merge_in_place(merged)
        # The fan-in span: from this rank's arrival to its release — the
        # straggler's span is ~zero, the first arrival's spans the longest.
        # The opener args name the true fan-in edge: wait time before the
        # open was the last arriver's fault, time after it is release flight.
        span_args: Dict[str, object] = {"generation": generation}
        if opener is not None:
            span_args["opener"] = f"P{opener}"
            span_args["opened_at"] = opened_at
        self._obs.spans.complete(
            f"rank-P{rank}",
            "barrier_wait",
            arrived_at,
            self._sim._now,
            **span_args,
        )
        wait_time = self._wait_times.get(rank)
        if wait_time is None:
            wait_time = self._wait_times[rank] = self._obs.metrics.histogram(
                "barrier.wait_time", layout="sim_time", rank=rank
            )
        wait_time.observe(self._sim._now - arrived_at)
        return generation

    def _open(self, generation: int, opener: int) -> None:
        """Last arrival: release every waiter, after the release messages land.

        The release clock is the join of every participant's *current* clock
        at open time, not of arrival-time snapshots: while a process waits
        at the barrier its clock can still advance (remote writes landing in
        its public memory count as reception events), and all of those
        events precede the release, so folding them in is sound and spares
        third-party readers a conservative report for writes that
        demonstrably completed before the barrier opened.  It is a fresh
        object per open, so a rank released early that runs on (and
        re-arrives) cannot leak its later events into a slower waiter's
        release.
        """
        merged: Optional[VectorClock] = None
        if self._detector is not None:
            merged = self._detector.current_clock(0)
            for rank in range(1, self._world_size):
                merged.merge_in_place(self._detector.process_clock(rank))
        if self._recorder is not None:
            # Synchronization events are part of the trace so that offline
            # (post-mortem) detection reconstructs the same happens-before.
            self._recorder.record_sync(
                range(self._world_size), time=self._sim._now, kind="barrier"
            )
        self._opened = (merged, opener, self._sim._now)
        releases = dict(self._release_events)
        # Reset state for the next generation before any waiter resumes.
        self._generation = generation + 1
        self._arrived = 0
        self._release_events = {}
        self._crossings += 1
        self._crossings_counter.inc()
        # Barrier fan-out order is a controlled choice point: with a
        # schedule controller installed, which waiter's release fires (or is
        # put on the wire) next is a logged, replayable decision — the last
        # previously-uncontrolled ordering.  The default (index 0 at every
        # pick) reproduces arrival order, the uncontrolled behaviour.
        order = list(releases.items())
        controller = self._sim.controller
        while order:
            index = 0
            if controller is not None and len(order) > 1:
                index = controller.on_barrier_release(generation, len(order))
            rank, release = order.pop(index)
            if rank != self._root:
                event, _ = self._fabric.send(
                    MessageKind.NOTIFY, self._root, rank,
                    payload=("barrier-release", generation), payload_bytes=8,
                )
                event.callbacks.append(
                    lambda _ev, rel=release: rel.succeed(generation)
                )
            else:
                release.succeed(generation)


def broadcast_via_puts(api: Any, symbol: str, value: Any, root: Optional[int] = None) -> Generator:
    """Root writes *value* into element ``rank`` of shared array *symbol*.

    The array must have at least ``world_size`` elements (one slot per rank).
    Non-root ranks do nothing; the caller typically follows the broadcast with
    a barrier before readers consume their slot.
    """
    root = 0 if root is None else root
    if api.rank != root:
        return None
    for rank in range(api.world_size):
        yield from api.put(symbol, value, index=rank)
    return value


def one_sided_reduction(
    api: Any,
    symbol: str,
    length: int,
    operator: Callable[[Any, Any], Any],
    initial: Any = 0,
) -> Generator:
    """The paper's future-work non-collective reduction (Section V-B).

    The calling process fetches every element of shared array *symbol* with
    remote ``get`` operations — no participation from the owners — and folds
    them locally with *operator*.  Returns the reduced value.
    """
    require_positive(length, "length")
    accumulator = initial
    for index in range(length):
        value = yield from api.get(symbol, index=index)
        accumulator = operator(accumulator, value)
    return accumulator
