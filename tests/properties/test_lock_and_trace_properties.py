"""Property-based tests for the lock table, channels, trace serialization and summary."""

from hypothesis import given, settings, strategies as st

from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess
from repro.memory.locks import LockState, MemoryLockTable
from repro.net.channel import Channel
from repro.net.latency import UniformLatency
from repro.net.message import Message, MessageKind
from repro.sim.engine import Simulator
from repro.trace.events import OperationRecord, TraceSummary, summarize
from repro.trace.recorder import TraceRecorder
from repro.trace.serialization import trace_from_json, trace_to_json


class TestLockProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=30
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_mutual_exclusion_and_fifo_grants(self, requests):
        """At most one holder per address, grants in request order, none lost."""
        sim = Simulator()
        table = MemoryLockTable(sim, rank=0)
        issued = []
        for requester, offset in requests:
            issued.append(table.acquire(GlobalAddress(0, offset), requester))
        sim.run()

        # Repeatedly release every granted lock until all requests were served.
        for _ in range(len(issued) + 1):
            granted_now = [r for r in issued if r.state is LockState.GRANTED]
            # Mutual exclusion: at most one granted holder per address.
            per_address = {}
            for request in granted_now:
                assert per_address.setdefault(request.address, request) is request
            if not granted_now:
                break
            for request in granted_now:
                table.release(request)
            sim.run()

        assert all(r.state is LockState.RELEASED for r in issued)
        # FIFO per address: grant times are non-decreasing in request order.
        by_address = {}
        for request in issued:
            by_address.setdefault(request.address, []).append(request)
        for address_requests in by_address.values():
            grant_times = [r.granted_at for r in address_requests]
            assert grant_times == sorted(grant_times)
        table.assert_quiescent()


class TestChannelProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_fifo_delivery_under_arbitrary_jitter(self, sizes, seed):
        sim = Simulator(seed=seed)
        channel = Channel(sim, 0, 1, UniformLatency(sim.rng, low=0.01, high=5.0))
        deliveries = []
        for index, size in enumerate(sizes):
            event, stamped = channel.transmit(
                Message(
                    message_id=index, kind=MessageKind.PUT_DATA, source=0,
                    destination=1, payload_bytes=size,
                )
            )
            event.callbacks.append(lambda fired: deliveries.append(fired.value))
        sim.run()
        # Every transmission arrives once, in send order, at its stamped time.
        assert [message.message_id for message in deliveries] == list(range(len(sizes)))
        times = [message.deliver_time for message in deliveries]
        assert times == sorted(times)
        assert all(t >= 0 for t in times)


class TestTraceSerializationProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),           # rank
                st.integers(0, 7),           # offset
                st.booleans(),               # write?
                st.one_of(                   # JSON-safe value
                    st.integers(-1000, 1000), st.text(max_size=8), st.booleans(), st.none()
                ),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_json_round_trip_preserves_every_access(self, raw):
        recorder = TraceRecorder(world_size=4)
        for rank, offset, is_write, value, time in raw:
            recorder.record_access(
                rank,
                GlobalAddress(rank, offset),
                AccessKind.WRITE if is_write else AccessKind.READ,
                value=value,
                time=time,
                symbol=f"s{offset}",
                operation="put" if is_write else "get",
            )
        text = trace_to_json(4, recorder.accesses(), recorder.operations())
        world, accesses, _operations, _syncs = trace_from_json(text)
        assert world == 4
        assert accesses == recorder.accesses()


def reference_summarize(world_size, accesses, operations):
    """``summarize`` as it was: one pass per figure, verbatim."""
    summary = TraceSummary(world_size=world_size)
    summary.accesses = len(accesses)
    summary.reads = sum(1 for a in accesses if a.kind is AccessKind.READ)
    summary.writes = sum(1 for a in accesses if a.kind is AccessKind.WRITE)
    summary.rmws = sum(1 for a in accesses if a.kind is AccessKind.RMW)
    summary.operations = len(operations)
    summary.puts = sum(1 for o in operations if o.operation == "put")
    summary.gets = sum(1 for o in operations if o.operation == "get")
    summary.atomics = sum(
        1 for o in operations if o.operation in ("fetch_add", "compare_and_swap")
    )
    summary.sends = sum(1 for o in operations if o.operation == "send")
    summary.posted_operations = sum(1 for o in operations if o.was_posted)
    summary.local_accesses = sum(
        1 for a in accesses if a.operation.startswith("local_")
    )
    summary.cells_touched = len({a.address for a in accesses})
    summary.races_flagged = sum(1 for o in operations if o.raced)
    if accesses:
        summary.duration = max(a.time for a in accesses) - min(a.time for a in accesses)
    for access in accesses:
        summary.per_rank_accesses[access.rank] = (
            summary.per_rank_accesses.get(access.rank, 0) + 1
        )
    return summary


_times = st.floats(min_value=0, max_value=1e6, allow_nan=False)
_addresses = st.builds(GlobalAddress, st.integers(0, 3), st.integers(0, 5))
_accesses = st.builds(
    MemoryAccess,
    st.integers(0, 99),
    st.integers(0, 3),
    _addresses,
    # A kind the enum does not know is counted as an access and as nothing else.
    st.one_of(st.sampled_from(list(AccessKind)), st.just("prefetch")),
    time=_times,
    operation=st.sampled_from(["put", "get", "local_read", "local_write", "fetch_add", ""]),
)
_operations = st.builds(
    OperationRecord,
    st.sampled_from(["put", "get", "send", "fetch_add", "compare_and_swap", "local_read"]),
    st.integers(0, 3),
    _addresses,
    st.none(),
    _times,
    _times,
    st.integers(0, 3),
    st.integers(0, 3),
    st.booleans(),
    posted_time=st.one_of(st.none(), _times),
)


class TestSummaryProperties:
    @given(st.lists(_accesses, max_size=40), st.lists(_operations, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_the_one_pass_summary_equals_the_pass_per_figure_one(self, accesses, operations):
        got = summarize(4, accesses, operations)
        expected = reference_summarize(4, accesses, operations)
        assert got == expected
        # Ranks are listed in order of first appearance, as they always were.
        assert list(got.per_rank_accesses) == list(expected.per_rank_accesses)
        assert got.as_dict() == expected.as_dict()
