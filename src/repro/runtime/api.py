"""The per-rank programming interface.

A user program is a generator function receiving a :class:`ProcessAPI`; every
operation that involves communication or waiting is itself a generator and is
invoked with ``yield from``::

    def program(api):
        yield from api.put("x", api.rank)          # remote write by symbol
        value = yield from api.get("x")            # remote read
        yield from api.compute(5.0)                # local work
        yield from api.barrier()                   # synchronization
        api.private.write("result", value)

Blocking operations suspend the program for the whole round trip.  The
nonblocking (verbs) surface posts instead and retires later, so computation
overlaps communication, and adds the one-sided atomics::

    def overlapped(api):
        left = api.iput("halo", 1.0, index=0)      # posts, returns immediately
        right = api.iput("halo", 2.0, index=1)
        yield from api.compute(5.0)                # overlaps both puts
        yield from api.wait(left, right)           # retire the completions
        old = yield from api.fetch_add("counter")  # atomic read-modify-write

The two-sided (SEND/RECV) surface adds receiver-directed delivery: the
receiver posts buffers (per-source with :meth:`ProcessAPI.irecv`, or to a
shared receive queue with :meth:`ProcessAPI.post_srq_recv`), the sender
:meth:`ProcessAPI.isend`\\ s a multi-cell payload naming only the peer, and
matching is FIFO::

    def receiver(api):
        api.irecv(source=0, symbol="inbox", indices=range(4))  # scatter list
        (message,) = yield from api.wait_recv(1)               # blocking retire
        use(message.value)                                     # the payload

    def sender(api):
        request = api.isend(1, [10, 20, 30, 40])   # lands where P1 said
        yield from api.wait(request)

The API resolves symbolic names through the
:class:`~repro.memory.directory.SymbolDirectory` (the paper's "compiler") and
hands the access to the origin NIC, which decides whether the address
crosses the wire: remote targets become RDMA operations, targets owned by
the calling rank become local public-memory accesses — the paper makes no
semantic distinction between the two (Section III-A), and neither do this
layer and the detector.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence, Union

from repro.memory.address import GlobalAddress
from repro.memory.directory import SymbolDirectory
from repro.memory.private import PrivateMemory
from repro.net.nic import NIC, RemoteOperationResult
from repro.runtime.collectives import Barrier, one_sided_reduction
from repro.sim.engine import Simulator
from repro.sim.events import Timeout
from repro.util.validation import require_non_negative
from repro.verbs.context import VerbsContext
from repro.verbs.memory_registration import RemoteAccessError
from repro.verbs.receive_queue import ReceiveWorkRequest
from repro.verbs.work import (
    CompletionError,
    CompletionStatus,
    WorkCompletion,
    WorkRequest,
)


class ProcessAPI:
    """Handle through which one rank's program touches the DSM."""

    def __init__(
        self,
        rank: int,
        sim: Simulator,
        nic: NIC,
        directory: SymbolDirectory,
        private: PrivateMemory,
        barrier: Optional[Barrier] = None,
        recorder: Optional[Any] = None,
        verbs: Optional[VerbsContext] = None,
    ) -> None:
        self.rank = rank
        self._sim = sim
        self._nic = nic
        self._directory = directory
        self.private = private
        self._barrier = barrier
        self._recorder = recorder
        self._verbs = verbs
        #: The label of this rank's compute events, built once, not per call.
        self._compute_label = f"compute-P{rank}"

    # -- introspection -----------------------------------------------------------

    @property
    def world_size(self) -> int:
        """Number of ranks in the application."""
        return self._directory.world_size

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._sim.now

    def random_stream(self, name: str):
        """The run's seeded random stream called *name* (``sim.rng.stream``).

        For a program's think times and choices: a program that reached for
        ``runtime.sim.rng`` instead would close over the runtime that holds
        it, and that cycle keeps a finished run alive until the collector
        finds it.
        """
        return self._sim.rng.stream(name)

    @property
    def nic(self) -> NIC:
        """The rank's NIC (exposed for advanced workloads and tests)."""
        return self._nic

    @property
    def directory(self) -> SymbolDirectory:
        """The shared-symbol directory."""
        return self._directory

    def clock_transport_stats(self) -> dict:
        """This rank's clock-traffic accounting, as a flat dictionary.

        The per-rank slice of ``RunResult.clock_transport_stats``: round
        trips charged, piggybacked riders and their wire-format bytes,
        completion events (coalesced or not), and retirement joins.  Useful
        inside a program to observe how the ``clock_transport`` /
        ``clock_wire`` / ``cq_moderation`` knobs change what this rank pays.
        """
        return self._nic.clock_transport.stats.as_dict()

    def metrics(self) -> dict:
        """This rank's slice of the run's metric snapshot.

        Every instrument in ``sim.obs.metrics`` whose labels include
        ``rank=<this rank>`` — NIC operation counters, clock-transport
        accounting, queue occupancy — keyed ``name{label=value,...}`` and
        sorted, exactly as in ``RunResult.metrics``.  Useful inside a
        program to observe what this rank has paid so far.
        """
        from repro.obs.observability import Observability

        return Observability.of(self._sim).metrics.snapshot_for_rank(self.rank)

    def owner_of(self, symbol: str, index: int = 0) -> int:
        """Rank that physically holds ``symbol[index]``."""
        return self._directory.owner_of(symbol, index)

    def address_of(self, symbol: str, index: int = 0) -> GlobalAddress:
        """Global address of ``symbol[index]``."""
        return self._directory.resolve(symbol, index)

    # -- shared-memory operations ----------------------------------------------------

    def _finish(self, result: RemoteOperationResult, symbol: Optional[str]) -> RemoteOperationResult:
        # The result is the caller's; what the run keeps of a completed
        # operation is its trace record.
        if self._recorder is not None:
            self._recorder.record_operation(result, symbol=symbol)
        return result

    def put(self, symbol: str, value: Any, index: int = 0) -> Generator:
        """Write *value* into shared ``symbol[index]`` (one-sided put).

        Returns the :class:`RemoteOperationResult`.
        """
        address = self._directory.resolve(symbol, index)
        return self.put_address(address, value, symbol=symbol)

    def put_address(
        self, address: GlobalAddress, value: Any, symbol: Optional[str] = None
    ) -> Generator:
        """Write *value* at an explicit global address."""
        result = yield from self._nic.rdma_put(value, address, symbol=symbol)
        return self._finish(result, symbol)

    def get(self, symbol: str, index: int = 0) -> Generator:
        """Read shared ``symbol[index]`` (one-sided get); returns the value."""
        address = self._directory.resolve(symbol, index)
        value = yield from self.get_address(address, symbol=symbol)
        return value

    def get_address(self, address: GlobalAddress, symbol: Optional[str] = None) -> Generator:
        """Read the value at an explicit global address; returns the value."""
        result = yield from self._nic.rdma_get(address, symbol=symbol)
        self._finish(result, symbol)
        return result.value

    def get_result(self, symbol: str, index: int = 0) -> Generator:
        """Like :meth:`get` but returns the full :class:`RemoteOperationResult`."""
        address = self._directory.resolve(symbol, index)
        result = yield from self._nic.rdma_get(address, symbol=symbol)
        return self._finish(result, symbol)

    def copy_shared(
        self, source_symbol: str, source_index: int, dest_symbol: str, dest_index: int
    ) -> Generator:
        """Copy one shared cell to another ("communication within the public space").

        Implemented as a get followed by a put, which is how a run-time
        library would realize it with RDMA verbs.
        """
        value = yield from self.get(source_symbol, index=source_index)
        result = yield from self.put(dest_symbol, value, index=dest_index)
        return result

    # -- one-sided atomics (blocking) --------------------------------------------------

    def fetch_add(self, symbol: str, amount: Any = 1, index: int = 0) -> Generator:
        """Atomically add *amount* to shared ``symbol[index]``; returns the old value.

        Serviced entirely by the owning NIC under the cell's lock — no
        read-modify-write window exists, so concurrent ``fetch_add`` calls
        never lose updates (unlike the get-then-put idiom of the master/worker
        ticket, which races by construction).
        """
        address = self._directory.resolve(symbol, index)
        result = yield from self._nic.fetch_add(address, amount, symbol=symbol)
        self._finish(result, symbol)
        return result.value

    def compare_and_swap(
        self, symbol: str, expected: Any, desired: Any, index: int = 0
    ) -> Generator:
        """Atomic compare-and-swap on shared ``symbol[index]``.

        Deposits *desired* iff the cell holds *expected*; returns the prior
        value (the swap succeeded iff the returned value equals *expected*).
        """
        address = self._directory.resolve(symbol, index)
        result = yield from self._nic.compare_and_swap(
            address, expected, desired, symbol=symbol
        )
        self._finish(result, symbol)
        return result.value

    # -- nonblocking (verbs) interface --------------------------------------------------

    @property
    def verbs(self) -> VerbsContext:
        """This rank's verbs context (exposed for advanced workloads and tests)."""
        if self._verbs is None:
            raise RuntimeError("this runtime was built without a verbs subsystem")
        return self._verbs

    def iput(self, symbol: str, value: Any, index: int = 0) -> WorkRequest:
        """Post a nonblocking put to shared ``symbol[index]``; returns immediately.

        The returned :class:`~repro.verbs.work.WorkRequest` is retired with
        :meth:`wait` or :meth:`wait_all`; until then the operation proceeds in
        the background while this program keeps computing.

        Posting captures a post-time clock snapshot (the unified
        clock-transport discipline, all opcodes): the NIC checks the access
        with the carried snapshot, and this rank synchronizes with the
        operation's effect only when it retires the completion — so an
        access to the same *remote* cell before waiting is a detectable
        race, under either ``RuntimeConfig.clock_transport`` mode.  (A
        posted operation on this rank's own memory shares the poster's
        clock identity and keeps the pre-existing blind spot — see
        :mod:`repro.verbs.queue_pair`.)
        """
        address = self._directory.resolve(symbol, index)
        return self.verbs.post_put(address, value, symbol=symbol)

    def iget(self, symbol: str, index: int = 0) -> WorkRequest:
        """Post a nonblocking get; the completion's ``value`` is the value read."""
        address = self._directory.resolve(symbol, index)
        return self.verbs.post_get(address, symbol=symbol)

    def ifetch_add(self, symbol: str, amount: Any = 1, index: int = 0) -> WorkRequest:
        """Post a nonblocking fetch-and-add; the completion carries the old value."""
        address = self._directory.resolve(symbol, index)
        return self.verbs.post_fetch_add(address, amount, symbol=symbol)

    def icompare_and_swap(
        self, symbol: str, expected: Any, desired: Any, index: int = 0
    ) -> WorkRequest:
        """Post a nonblocking compare-and-swap; the completion carries the old value."""
        address = self._directory.resolve(symbol, index)
        return self.verbs.post_compare_and_swap(address, expected, desired, symbol=symbol)

    # -- throttled posting (send backpressure) ---------------------------------------------

    def iput_throttled(self, symbol: str, value: Any, index: int = 0) -> Generator:
        """Post a put once the send queue has a free slot (generator).

        Where :meth:`iput` raises
        :class:`~repro.verbs.queue_pair.SendQueueFull` on a full send queue
        (it cannot yield), the program here waits until a completion frees a
        slot, then posts — the blocking-post mode of many runtime libraries,
        which keeps a saturating producer free of exception plumbing.  Use
        with ``yield from``; returns the posted work request.
        """
        address = self._directory.resolve(symbol, index)
        request = yield from self.verbs.post_put_throttled(address, value, symbol=symbol)
        return request

    def isend_throttled(
        self,
        destination: int,
        values: Union[Any, Sequence[Any]],
        symbol: Optional[str] = None,
    ) -> Generator:
        """Post a two-sided SEND once the send queue has a free slot.

        The waiting counterpart of :meth:`isend`; see :meth:`iput_throttled`.
        """
        payload = list(values) if isinstance(values, (list, tuple)) else [values]
        request = yield from self.verbs.post_send_throttled(
            destination, payload, symbol=symbol
        )
        return request

    # -- two-sided (SEND/RECV) interface --------------------------------------------------

    def _resolve_local_scatter(
        self, symbol: str, indices: Optional[Iterable[int]], index: int
    ) -> List[GlobalAddress]:
        chosen = list(indices) if indices is not None else [index]
        addresses = [self._directory.resolve(symbol, i) for i in chosen]
        for address in addresses:
            if address.rank != self.rank:
                raise ValueError(
                    f"receive buffer cell {symbol}[{address.offset}] lives on rank "
                    f"{address.rank}, not on this rank ({self.rank}); a receive "
                    f"buffer must be the receiver's own memory"
                )
        return addresses

    def isend(
        self,
        destination: int,
        values: Union[Any, Sequence[Any]],
        symbol: Optional[str] = None,
    ) -> WorkRequest:
        """Post a two-sided SEND of *values* to *destination*; returns immediately.

        A scalar is a one-cell payload; a list/tuple is a gathered multi-cell
        payload carried by a single message.  Where it lands is decided by
        the receive buffer *destination* posted (:meth:`irecv` /
        :meth:`post_srq_recv`); matching is FIFO.  Retire the returned
        request with :meth:`wait` / :meth:`wait_all` like any posted work.
        """
        payload = list(values) if isinstance(values, (list, tuple)) else [values]
        return self.verbs.post_send(destination, payload, symbol=symbol)

    def isend_gather(
        self,
        destination: int,
        symbol: str,
        indices: Optional[Iterable[int]] = None,
        index: int = 0,
    ) -> WorkRequest:
        """Post a SEND gathering its payload from this rank's own shared cells.

        The gather reads happen at service time through the NIC (instrumented
        local reads), modelling the DMA gather of a real SGE list.
        """
        addresses = self._resolve_local_scatter(symbol, indices, index)
        return self.verbs.post_send(destination, gather_from=addresses, symbol=symbol)

    def irecv(
        self,
        source: int,
        symbol: str,
        indices: Optional[Iterable[int]] = None,
        index: int = 0,
    ) -> ReceiveWorkRequest:
        """Post a receive buffer for the next unmatched SEND from *source*.

        ``symbol[indices]`` (this rank's own cells) is the scatter list; a
        shorter payload leaves the tail untouched, a longer one is a length
        error.  The buffer is consumed in FIFO order; the matching
        completion arrives on the receive CQ (:meth:`wait_recv` /
        :meth:`poll_recv`) carrying the payload values and this request's
        ``wr_id``.
        """
        addresses = self._resolve_local_scatter(symbol, indices, index)
        return self.verbs.post_recv(source, addresses, symbol=symbol)

    def post_srq_recv(
        self,
        symbol: str,
        indices: Optional[Iterable[int]] = None,
        index: int = 0,
    ) -> ReceiveWorkRequest:
        """Post a receive buffer to this rank's shared receive queue.

        The SRQ is declared at build (``DSMRuntime.declare_srq``).  SRQ
        buffers are consumed, in posting order, by sends from *any* peer —
        the server-side pattern that sizes buffering for aggregate load.
        """
        addresses = self._resolve_local_scatter(symbol, indices, index)
        return self.verbs.post_srq_recv(addresses, symbol=symbol)

    def arm_srq_limit(self, threshold: int) -> None:
        """Arm the SRQ low-watermark event (fires once below *threshold*)."""
        self.verbs.arm_srq_limit(threshold)

    def take_srq_limit_event(self) -> bool:
        """Consume one pending SRQ limit event (the bulk-replenish trigger)."""
        return self.verbs.take_srq_limit_event()

    def wait_recv(self, count: int = 1) -> Generator:
        """Block until *count* receive completions retire; returns them in order.

        A completion with a non-success status (e.g. a length error) raises
        :class:`~repro.verbs.work.CompletionError` — with *all* retired
        completions attached as ``error.completions``, because the
        successful siblings were already claimed from the CQ and cannot be
        re-waited; a server recovers their payloads (and reposts their
        buffers) from the exception.
        """
        completions = yield from self.verbs.wait_recv(count)
        failed = next((c for c in completions if not c.ok), None)
        if failed is not None:
            raise CompletionError(
                f"receive wr#{failed.wr_id} failed: {failed.detail}",
                completions=completions,
            )
        return completions

    def poll_recv(self) -> List[WorkCompletion]:
        """Retire whatever receive completions are ready, without blocking."""
        return self.verbs.poll_recv()

    @staticmethod
    def _raise_first_failure(completions: List[WorkCompletion]) -> None:
        # The successful siblings lose nothing: each was recorded in the
        # trace when the NIC serviced it.
        for completion in completions:
            if not completion.ok:
                message = f"work request {completion.wr_id} failed: {completion.detail}"
                if completion.status is CompletionStatus.REMOTE_ACCESS_ERROR:
                    raise RemoteAccessError(message)
                raise CompletionError(message)

    def wait(self, *requests: WorkRequest, raise_on_error: bool = True) -> Generator:
        """Block until every given work request completes; returns the completions.

        Completions are returned in the order of *requests*.  A failed request
        (for example, a bad rkey) raises
        :class:`~repro.verbs.memory_registration.RemoteAccessError` unless
        ``raise_on_error=False``, in which case the caller inspects the
        completion statuses.
        """
        completions = yield from self.verbs.wait(requests)
        if raise_on_error:
            self._raise_first_failure(completions)
        return completions

    def wait_all(self, raise_on_error: bool = True) -> Generator:
        """Block until every outstanding posted operation completes.

        Returns all completions not yet claimed, in posting order.
        """
        completions = yield from self.verbs.wait_all()
        if raise_on_error:
            self._raise_first_failure(completions)
        return completions

    def poll_completions(self) -> List[WorkCompletion]:
        """Retire whatever completions are ready, without blocking."""
        return self.verbs.poll()

    # -- local behaviour ----------------------------------------------------------------

    def compute(self, duration: float) -> Generator:
        """Model *duration* units of purely local computation."""
        # Checked once, here where it is admitted (inline for the exact
        # non-negative float), so the ``Timeout`` is built directly.
        if not (type(duration) is float and duration >= 0.0):
            require_non_negative(duration, "duration")
        yield Timeout(self._sim, duration, None, self._compute_label)
        return duration

    def barrier(self) -> Generator:
        """Cross the global barrier (a synchronization / happens-before edge)."""
        if self._barrier is None:
            raise RuntimeError("this runtime was built without a barrier")
        generation = yield from self._barrier.wait(self.rank)
        return generation

    def notify(self, destination: int, payload: Any = None) -> Generator:
        """Send a runtime notification message to *destination*."""
        message = yield from self._nic.send_notification(destination, payload)
        return message

    def log(self, message: str) -> None:
        """Emit a structured log line tagged with this rank."""
        self._sim.logger.log("app", message, rank=self.rank)

    # -- composite patterns ----------------------------------------------------------------

    def reduce_shared(
        self,
        symbol: str,
        length: int,
        operator: Callable[[Any, Any], Any] = lambda a, b: a + b,
        initial: Any = 0,
    ) -> Generator:
        """One-sided reduction over shared array *symbol* (paper, Section V-B)."""
        value = yield from one_sided_reduction(self, symbol, length, operator, initial)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProcessAPI rank={self.rank}/{self.world_size}>"
