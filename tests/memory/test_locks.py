"""Unit tests for the NIC lock table (Figure 3 semantics)."""

import sys

import pytest

from repro.memory.address import GlobalAddress
from repro.memory.locks import LockState, MemoryLockTable, _GrantEvent
from repro.sim.engine import Simulator
from repro.sim.events import SimulationError


def setup_table(rank=1):
    sim = Simulator()
    return sim, MemoryLockTable(sim, rank)


class TestGrantAndRelease:
    def test_uncontended_lock_granted_immediately(self):
        sim, table = setup_table()
        address = GlobalAddress(1, 0)
        request = table.acquire(address, requester=0)
        sim.run()
        assert request.state is LockState.GRANTED
        assert request.event.triggered and request.event.ok
        assert table.is_locked(address)
        assert table.holder(address) is request

    def test_release_grants_next_waiter_in_fifo_order(self):
        sim, table = setup_table()
        address = GlobalAddress(1, 0)
        first = table.acquire(address, requester=2, purpose="get")
        second = table.acquire(address, requester=0, purpose="put")
        third = table.acquire(address, requester=3, purpose="put")
        sim.run()
        assert first.state is LockState.GRANTED
        assert second.state is LockState.QUEUED and third.state is LockState.QUEUED
        assert table.queue_length(address) == 2

        table.release(first)
        sim.run()
        assert second.state is LockState.GRANTED
        assert third.state is LockState.QUEUED

        table.release(second)
        table.release(third)
        assert not table.is_locked(address)

    def test_contention_counter(self):
        sim, table = setup_table()
        address = GlobalAddress(1, 0)
        table.acquire(address, 0)
        table.acquire(address, 2)
        assert table.contended_acquisitions == 1

    def test_locks_on_distinct_addresses_are_independent(self):
        sim, table = setup_table()
        a, b = GlobalAddress(1, 0), GlobalAddress(1, 1)
        first = table.acquire(a, 0)
        second = table.acquire(b, 2)
        sim.run()
        assert first.state is LockState.GRANTED
        assert second.state is LockState.GRANTED
        assert table.outstanding() == 2


class TestErrors:
    def test_release_by_non_holder_rejected(self):
        sim, table = setup_table()
        address = GlobalAddress(1, 0)
        first = table.acquire(address, 0)
        second = table.acquire(address, 2)
        sim.run()
        with pytest.raises(SimulationError):
            table.release(second)

    def test_double_release_rejected(self):
        sim, table = setup_table()
        request = table.acquire(GlobalAddress(1, 0), 0)
        sim.run()
        table.release(request)
        with pytest.raises(SimulationError):
            table.release(request)

    def test_foreign_address_rejected(self):
        _sim, table = setup_table(rank=1)
        with pytest.raises(ValueError):
            table.acquire(GlobalAddress(0, 0), 2)

    @pytest.mark.parametrize(
        "address, text",
        [
            ("x", "address must be GlobalAddress, got str: 'x'"),
            ((1, 0), "address must be GlobalAddress, got tuple: (1, 0)"),
            (None, "address must be GlobalAddress, got NoneType: None"),
        ],
    )
    def test_acquire_of_something_that_is_no_address_rejected(self, address, text):
        sim, table = setup_table()
        with pytest.raises(TypeError) as caught:
            table.acquire(address, 0)
        assert str(caught.value) == text
        assert table.outstanding() == 0 and sim.peek() == float("inf")

    def test_release_of_something_that_is_no_request_rejected(self):
        _sim, table = setup_table()
        with pytest.raises(TypeError, match=r"^request must be LockRequest, got object: <object"):
            table.release(object())
        with pytest.raises(TypeError, match=r"^request must be LockRequest, got NoneType: None$"):
            table.release(None)

    def test_an_address_subclass_is_still_an_address(self):
        class Tagged(GlobalAddress):
            pass

        sim, table = setup_table()
        request = table.acquire(Tagged(1, 0), 0)
        sim.run()
        assert table.holder(GlobalAddress(1, 0)) is request
        table.release(request)

    def test_assert_quiescent(self):
        sim, table = setup_table()
        request = table.acquire(GlobalAddress(1, 0), 0)
        sim.run()
        with pytest.raises(SimulationError, match="still held"):
            table.assert_quiescent()
        table.release(request)
        table.assert_quiescent()


class TestTiming:
    def test_wait_time_measured_in_simulated_time(self):
        sim = Simulator()
        table = MemoryLockTable(sim, 1)
        address = GlobalAddress(1, 0)
        first = table.acquire(address, 2)
        second = table.acquire(address, 0)
        sim.run()
        # Release the first lock 4 time units later.
        sim.call_after(4.0, lambda: table.release(first))
        sim.run()
        assert second.granted_at == 4.0
        assert second.wait_time == 4.0

    def test_the_table_keeps_a_request_only_while_it_holds_or_waits(self):
        sim, table = setup_table()
        address = GlobalAddress(1, 0)
        first = table.acquire(address, 0)
        second = table.acquire(address, 2)
        assert sim.obs.metrics.counter("memory.lock_requests", rank=1).value == 2
        assert table.holder(address) is first and table.queue_length(address) == 1
        table.release(first)
        assert table.holder(address) is second and table.queue_length(address) == 0
        table.release(second)
        assert table.holder(address) is None and table.outstanding() == 0
        # Every request was counted; none is kept: what is left of each is the
        # caller's own reference (and getrefcount's argument).
        assert sim.obs.metrics.counter("memory.lock_requests", rank=1).value == 2
        assert sys.getrefcount(first) == sys.getrefcount(second) == 2

    def test_the_grant_event_is_labelled_when_asked(self):
        sim, table = setup_table()
        request = table.acquire(GlobalAddress(1, 3), requester=2)
        assert request.event.name == "lock(P1[3])byP2"
        assert "lock(P1[3])byP2" in repr(request.event)

    def test_the_grant_event_is_a_whole_event(self):
        sim = Simulator()
        address = GlobalAddress(1, 3)
        event = _GrantEvent(sim, address, 2)
        fields = ("_name", "_triggered", "_processed", "_ok", "_value", "_address", "_requester")
        read = lambda: {name: getattr(event, name) for name in fields}  # noqa: E731
        assert event.sim is sim and event.callbacks == []
        assert read() == {
            "_name": None, "_triggered": False, "_processed": False,
            "_ok": None, "_value": None, "_address": address, "_requester": 2,
        }
        assert repr(event) == "<_GrantEvent 'lock(P1[3])byP2' pending>"
        event.succeed()
        assert repr(event) == "<_GrantEvent 'lock(P1[3])byP2' triggered>"
        sim.run()
        assert read() == {
            "_name": None, "_triggered": True, "_processed": True,
            "_ok": True, "_value": None, "_address": address, "_requester": 2,
        }
        assert repr(event) == "<_GrantEvent 'lock(P1[3])byP2' processed>"
        assert _GrantEvent(sim, address, 0).callbacks is not event.callbacks


class TestInstruments:
    """The table's instruments are bound on first use, never before."""

    def snapshot(self, sim):
        return sim.obs.metrics.snapshot(prefix="memory.lock")

    def test_an_unused_table_adds_nothing_to_a_snapshot(self):
        sim, _table = setup_table()
        assert self.snapshot(sim) == {}

    def test_contended_counter_appears_with_the_first_contention(self):
        sim, table = setup_table()
        address = GlobalAddress(1, 0)
        first = table.acquire(address, requester=0)
        assert sorted(self.snapshot(sim)) == [
            "memory.lock_requests{rank=1}",
            "memory.lock_wait_time{rank=1}",
        ]
        table.acquire(address, requester=2)
        assert self.snapshot(sim)["memory.lock_contended{rank=1}"] == 1
        sim.timeout(3.0)
        sim.run()
        table.release(first)
        snapshot = self.snapshot(sim)
        assert snapshot["memory.lock_requests{rank=1}"] == 2
        assert snapshot["memory.lock_wait_time{rank=1}"]["count"] == 2
        assert snapshot["memory.lock_wait_time{rank=1}"]["sum"] == 3.0

    def test_bound_instruments_are_the_registrys_own(self):
        sim, table = setup_table()
        table.acquire(GlobalAddress(1, 0), requester=0)
        sim.obs.reset()
        table.acquire(GlobalAddress(1, 1), requester=0)
        assert sim.obs.metrics.counter("memory.lock_requests", rank=1).value == 1
