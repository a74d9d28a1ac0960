"""One rank's NIC lock table as a state machine.

The model is what the module documents: per address, a FIFO of requests whose
head holds the lock (a dict of deques).  Whatever the table keys its own
state by, no rule may tell: grants are strictly first come first served per
address and stamped with the simulated time they happened at, a foreign-rank
address is refused on ``acquire`` and answers "nobody" everywhere else, only
the holder can release, the three ``memory.lock_*`` instruments count what
the model counted and do not exist before their first use, and
``assert_quiescent`` raises exactly while something is held.
"""

from collections import deque

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.memory.address import GlobalAddress
from repro.memory.locks import LockState, MemoryLockTable
from repro.sim.engine import Simulator
from repro.sim.events import SimulationError

RANK = 1
OTHER_RANK = 2
OFFSETS = 4

offsets = st.integers(0, OFFSETS - 1)
requesters = st.integers(0, 3)
purposes = st.sampled_from(["", "put", "get", "fetch_add"])
#: Which of the requests made so far a rule picks, as a share of the list.
picks = st.floats(0, 1, exclude_max=True)


class ModelRequest:
    """What the model keeps per request."""

    def __init__(self, request, offset, requester, purpose, queued_at):
        self.request = request
        self.offset = offset
        self.requester = requester
        self.purpose = purpose
        self.queued_at = queued_at
        self.granted_at = None
        self.released_at = None

    @property
    def state(self):
        if self.released_at is not None:
            return LockState.RELEASED
        return LockState.QUEUED if self.granted_at is None else LockState.GRANTED


class LockTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.table = MemoryLockTable(self.sim, RANK)
        #: A second table on the same simulator: its requests are foreign here.
        self.other = MemoryLockTable(self.sim, OTHER_RANK)
        # -- the model --
        self.queues = {}        # offset -> deque of ModelRequest, holder first
        self.requests = []      # every ModelRequest, in request order
        self.contended = 0
        self.waits = []         # one entry per grant

    # -- helpers ---------------------------------------------------------------------

    def grant(self, model):
        model.granted_at = self.sim.now
        self.waits.append(model.granted_at - model.queued_at)

    def pick(self, share, state):
        chosen = [m for m in self.requests if m.state is state]
        return chosen[int(share * len(chosen))] if chosen else None

    def some(self, state):
        return any(m.state is state for m in self.requests)

    def snapshot(self):
        return {
            key: value
            for key, value in self.sim.obs.metrics.snapshot(prefix="memory.lock").items()
            if key.endswith(f"{{rank={RANK}}}")
        }

    # -- acquire ---------------------------------------------------------------------

    @rule(offset=offsets, requester=requesters, purpose=purposes)
    def acquire(self, offset, requester, purpose):
        address = GlobalAddress(RANK, offset)
        request = self.table.acquire(address, requester=requester, purpose=purpose)
        model = ModelRequest(request, offset, requester, purpose, self.sim.now)
        assert request.address == address and request.requester == requester
        assert request.purpose == purpose and request.queued_at == self.sim.now
        assert request.event.name == f"lock(P{RANK}[{offset}])byP{requester}"
        assert all(request.request_id > m.request.request_id for m in self.requests)
        self.requests.append(model)
        queue = self.queues.setdefault(offset, deque())
        if queue:
            self.contended += 1
        else:
            self.grant(model)
        queue.append(model)

    @rule(rank=st.sampled_from([0, OTHER_RANK, 7]), offset=offsets, requester=requesters)
    def acquire_foreign_rank(self, rank, offset, requester):
        with pytest.raises(ValueError, match=f"lock table of rank {RANK} cannot lock"):
            self.table.acquire(GlobalAddress(rank, offset), requester=requester)

    @rule()
    def acquire_what_is_not_an_address(self):
        with pytest.raises(TypeError):
            self.table.acquire((RANK, 0), requester=0)

    # -- release ---------------------------------------------------------------------

    @precondition(lambda self: self.some(LockState.GRANTED))
    @rule(share=picks)
    def release_the_holder(self, share):
        model = self.pick(share, LockState.GRANTED)
        self.table.release(model.request)
        model.released_at = self.sim.now
        queue = self.queues[model.offset]
        assert queue.popleft() is model
        if queue:
            self.grant(queue[0])
        else:
            del self.queues[model.offset]

    @precondition(lambda self: self.some(LockState.QUEUED))
    @rule(share=picks)
    def release_a_queued_request(self, share):
        model = self.pick(share, LockState.QUEUED)
        holder = self.queues[model.offset][0]
        with pytest.raises(SimulationError, match=f"held by P{holder.requester}"):
            self.table.release(model.request)

    @precondition(lambda self: self.some(LockState.RELEASED))
    @rule(share=picks)
    def release_a_released_request(self, share):
        model = self.pick(share, LockState.RELEASED)
        with pytest.raises(SimulationError, match="but the lock is held by"):
            self.table.release(model.request)

    @rule(offset=offsets, requester=requesters)
    def release_a_request_of_another_table(self, offset, requester):
        foreign = self.other.acquire(GlobalAddress(OTHER_RANK, offset), requester)
        with pytest.raises(SimulationError, match="but the lock is held by"):
            self.table.release(foreign)
        self.other.release(foreign)

    @rule()
    def release_what_is_not_a_request(self):
        with pytest.raises(TypeError):
            self.table.release(GlobalAddress(RANK, 0))

    # -- time ------------------------------------------------------------------------

    @rule(delay=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    def run(self, delay):
        """Let *delay* pass and the simulator drain: every grant event fires."""
        self.sim.timeout(delay)
        self.sim.run()
        for model in self.requests:
            event = model.request.event
            assert event.processed == (model.granted_at is not None)

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def every_request_is_where_the_model_put_it(self):
        for model in self.requests:
            request = model.request
            assert request.state is model.state
            assert request.granted_at == model.granted_at
            assert request.released_at == model.released_at
            assert request.wait_time == (
                None if model.granted_at is None else model.granted_at - model.queued_at
            )
            assert request.event.triggered == (model.granted_at is not None)

    @invariant()
    def the_table_answers_like_the_model(self):
        for offset in range(OFFSETS):
            address = GlobalAddress(RANK, offset)
            queue = self.queues.get(offset, ())
            holder = queue[0].request if queue else None
            assert self.table.holder(address) is holder
            assert self.table.is_locked(address) == bool(queue)
            assert self.table.queue_length(address) == max(0, len(queue) - 1)
            # A foreign-rank address with the same offset is nobody's here.
            for rank in (0, OTHER_RANK):
                foreign = GlobalAddress(rank, offset)
                assert self.table.holder(foreign) is None
                assert not self.table.is_locked(foreign)
                assert self.table.queue_length(foreign) == 0
        assert self.table.outstanding() == len(self.queues)
        assert self.table.contended_acquisitions == self.contended
        assert self.table.rank == RANK

    @invariant()
    def the_instruments_count_what_the_model_counted(self):
        expected = {}
        if self.requests:
            expected[f"memory.lock_requests{{rank={RANK}}}"] = len(self.requests)
        if self.contended:
            expected[f"memory.lock_contended{{rank={RANK}}}"] = self.contended
        snapshot = self.snapshot()
        wait_time = snapshot.pop(f"memory.lock_wait_time{{rank={RANK}}}", None)
        assert snapshot == expected
        if self.waits:
            assert wait_time["count"] == len(self.waits)
            assert wait_time["sum"] == pytest.approx(sum(self.waits))
        else:
            assert wait_time is None

    @invariant()
    def quiescence_is_nothing_held(self):
        if self.queues:
            with pytest.raises(SimulationError, match=f"still held on rank {RANK}"):
                self.table.assert_quiescent()
        else:
            self.table.assert_quiescent()
        self.other.assert_quiescent()


TestLockTableStateMachine = LockTableMachine.TestCase
# The example count is the active profile's: Hypothesis' default (100) in
# tier-1, 500 under ``--hypothesis-profile=nightly`` (``tests/conftest.py``).
TestLockTableStateMachine.settings = settings(stateful_step_count=40, deadline=None)
