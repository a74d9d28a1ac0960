"""NIC-provided locks on public memory areas.

The paper (Section III-A) states that since NICs manage the public memory
space, they can provide locks on memory areas guaranteeing exclusive access:
"when a lock is taken by a process, other processes must wait for the release
of this lock before they can access the data".  Figure 3 shows the observable
consequence: a ``put`` on a datum is delayed until a concurrent ``get`` on the
same datum completes.

:class:`MemoryLockTable` implements per-address FIFO mutual exclusion
integrated with the simulation kernel: ``acquire`` returns an
:class:`~repro.sim.events.Event` that fires when the lock is granted, so NIC
operations simply ``yield`` it.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappush
from typing import Deque, Dict, Optional

from repro.memory.address import GlobalAddress
from repro.obs.observability import Observability
from repro.sim.engine import Simulator
from repro.sim.events import Event, SimulationError
from repro.util.validation import require_type


class LockState(enum.Enum):
    """State of one lock request."""

    QUEUED = "queued"
    GRANTED = "granted"
    RELEASED = "released"


#: Read off the class once, as ``sim.process`` does its states (an ``Enum``
#: member read is slow on Python 3.11).
_QUEUED, _GRANTED, _RELEASED = LockState.QUEUED, LockState.GRANTED, LockState.RELEASED


class _GrantEvent(Event):
    """The event of one lock request.

    It keeps what its label is made of, not the label: nobody reads the name
    of an event that fires without trouble, and formatting one per access
    cost more than building the event.
    """

    def __init__(self, sim: Simulator, address: GlobalAddress, requester: int) -> None:
        # One frame: the rest is Event's class-level defaults.
        self.sim = sim
        self.callbacks = []
        self._address = address
        self._requester = requester

    def _default_name(self) -> str:
        return f"lock({self._address})byP{self._requester}"


@dataclass(slots=True)
class LockRequest:
    """One pending or granted request for exclusive access to an address.

    A request lives as long as whoever asked for it holds on to it — the NIC
    operation, until it has released the lock; the table keeps a request only
    while it holds or waits for the lock.
    """

    request_id: int
    address: GlobalAddress
    requester: int
    purpose: str
    event: Event
    state: LockState = LockState.QUEUED
    granted_at: Optional[float] = None
    released_at: Optional[float] = None
    queued_at: float = 0.0

    @property
    def wait_time(self) -> Optional[float]:
        """Time spent queued before the grant, if granted."""
        if self.granted_at is None:
            return None
        return self.granted_at - self.queued_at


class MemoryLockTable:
    """Per-address FIFO locks for one rank's public memory segment.

    The table is one rank's, so it files holders and queues under the
    address's *offset*: an integer hashes itself, a ``GlobalAddress`` hashes
    through a Python-level ``__hash__``.  ``acquire`` refuses an address of
    another rank; the inspection methods answer that nobody holds it.
    """

    def __init__(self, sim: Simulator, rank: int) -> None:
        require_type(rank, int, "rank")
        self._sim = sim
        self._rank = rank
        self._holders: Dict[int, LockRequest] = {}
        self._queues: Dict[int, Deque[LockRequest]] = {}
        self._next_id = itertools.count().__next__
        self._contended_acquisitions = 0
        self._obs = Observability.of(sim)

    @property
    def rank(self) -> int:
        """Rank whose public memory this table protects."""
        return self._rank

    # The table's instruments, each bound on first use: a label-sorting
    # registry lookup per acquire is avoided, and a table nobody locks (or
    # contends) still adds no zero-valued instrument to a snapshot.

    @cached_property
    def _requests(self):
        return self._obs.metrics.counter("memory.lock_requests", rank=self._rank)

    @cached_property
    def _contended(self):
        return self._obs.metrics.counter("memory.lock_contended", rank=self._rank)

    @cached_property
    def _wait_time(self):
        return self._obs.metrics.histogram(
            "memory.lock_wait_time", layout="sim_time", rank=self._rank
        )

    # -- acquisition ----------------------------------------------------------

    def acquire(self, address: GlobalAddress, requester: int, purpose: str = "") -> LockRequest:
        """Request exclusive access to *address*.

        Returns a :class:`LockRequest` whose ``event`` fires once the lock is
        granted (without a value: the request holds the event, and the event
        holding the request back would make every acquisition a reference
        cycle).  Grants are strictly FIFO
        per address, which is what serializes the put behind the get in
        Figure 3 of the paper.
        """
        if type(address) is not GlobalAddress:  # inline: no call per acquire
            require_type(address, GlobalAddress, "address")
        if address.rank != self._rank:
            raise ValueError(
                f"lock table of rank {self._rank} cannot lock {address} owned by rank {address.rank}"
            )
        sim = self._sim
        now = sim._now
        event = _GrantEvent(sim, address, requester)
        self._requests.value += 1
        offset = address.offset
        # Every field positionally: a keyword argument costs the dataclass
        # ``__init__`` more than its other eight stores together.
        if offset in self._holders:
            request = LockRequest(
                self._next_id(), address, requester, purpose, event,
                _QUEUED, None, None, now,
            )
            self._contended_acquisitions += 1
            self._contended.inc()
            self._queues.setdefault(offset, deque()).append(request)
            return request
        # Uncontended: granted in this frame — what ``_grant`` does, the
        # request born holding the lock and its event triggered and pushed
        # as ``Event.succeed`` would.
        request = self._holders[offset] = LockRequest(
            self._next_id(), address, requester, purpose, event,
            _GRANTED, now, None, now,
        )
        event._triggered = event._ok = True
        heappush(sim._queue, (now, sim._sequence, event))
        sim._sequence += 1
        self._wait_time.observe(0.0)
        if self._obs.spans.enabled:
            self._wait_span(request)
        return request

    def _grant(self, request: LockRequest) -> None:
        """Grant a request that waited behind a released holder."""
        self._holders[request.address.offset] = request
        request.state = _GRANTED
        request.granted_at = self._sim._now
        request.event.succeed()
        self._wait_time.observe(request.granted_at - request.queued_at)
        if self._obs.spans.enabled:
            self._wait_span(request)

    def _wait_span(self, request: LockRequest) -> None:
        # The request→grant interval as a span on the owner's NIC track —
        # zero-length for uncontended grants, the Figure 3 serialization
        # otherwise.
        self._obs.spans.complete(
            f"nic-P{self._rank}",
            "lock_wait",
            request.queued_at,
            request.granted_at,
            address=str(request.address),
            requester=f"P{request.requester}",
            purpose=request.purpose,
        )

    # -- release ----------------------------------------------------------------

    def release(self, request: LockRequest) -> None:
        """Release a previously granted lock and grant the next waiter, if any."""
        if type(request) is not LockRequest:
            require_type(request, LockRequest, "request")
        offset = request.address.offset
        if self._holders.get(offset) is not request:
            # Asked by address: a request of another rank's table names a
            # cell nobody holds here, whatever sits at its offset.
            holder = self.holder(request.address)
            raise SimulationError(
                f"release of {request.address} by P{request.requester} "
                f"but the lock is held by "
                f"{'nobody' if holder is None else f'P{holder.requester}'}"
            )
        request.state = _RELEASED
        request.released_at = self._sim._now
        del self._holders[offset]
        queue = self._queues.get(offset)
        if queue:
            nxt = queue.popleft()
            if not queue:
                del self._queues[offset]
            self._grant(nxt)

    def release_delivered(self, delivery: Event) -> None:
        """Release the request an UNLOCK message carries, once it has landed.

        The delivery event's callback, in place of a closure built per
        remote unlock.
        """
        self.release(delivery._value.payload)

    # -- inspection ---------------------------------------------------------------

    def holder(self, address: GlobalAddress) -> Optional[LockRequest]:
        """The currently granted request for *address*, or ``None``."""
        if address.rank != self._rank:
            return None
        return self._holders.get(address.offset)

    def is_locked(self, address: GlobalAddress) -> bool:
        """True when some process currently holds the lock on *address*."""
        return self.holder(address) is not None

    def queue_length(self, address: GlobalAddress) -> int:
        """Number of requests waiting behind the holder for *address*."""
        if address.rank != self._rank:
            return 0
        return len(self._queues.get(address.offset, ()))

    def outstanding(self) -> int:
        """Total number of granted-but-unreleased locks."""
        return len(self._holders)

    @property
    def contended_acquisitions(self) -> int:
        """How many acquisitions had to wait behind another holder."""
        return self._contended_acquisitions

    def assert_quiescent(self) -> None:
        """Raise :class:`SimulationError` unless every lock has been released.

        The runtime calls this at the end of a run: a held lock at completion
        indicates an unbalanced lock/unlock in a NIC operation.
        """
        if self._holders:
            held = ", ".join(
                f"{req.address} by P{req.requester}" for req in self._holders.values()
            )
            raise SimulationError(f"locks still held on rank {self._rank}: {held}")
