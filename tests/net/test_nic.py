"""Unit tests for the RDMA NIC: message decomposition, locks, detection hooks."""

import pytest

from repro.core.detector import DetectorConfig, DualClockRaceDetector
from repro.memory.address import GlobalAddress
from repro.memory.locks import MemoryLockTable
from repro.memory.public import PublicMemory
from repro.net.clock_transport import BYTES_PER_ENTRY
from repro.net.fabric import Fabric
from repro.net.latency import ConstantLatency
from repro.net.message import HEADER_BYTES, MessageKind
from repro.net.nic import NIC
from repro.net.topology import Topology
from repro.obs.observability import Observability
from repro.runtime.runtime import RuntimeConfig
from repro.sim.engine import Simulator
from repro.sim.events import SimulationError
from repro.trace.recorder import TraceRecorder


class Cluster:
    """Minimal hand-wired cluster of NICs for unit testing."""

    def __init__(self, world_size=3, config=None, detector_config=None, with_detector=True):
        self.sim = Simulator(seed=0)
        self.fabric = Fabric(self.sim, Topology.complete(world_size), ConstantLatency(base=1.0))
        self.recorder = TraceRecorder(world_size)
        self.detector = (
            DualClockRaceDetector(world_size, config=detector_config or DetectorConfig())
            if with_detector
            else None
        )
        self.memories = [PublicMemory(rank, 32) for rank in range(world_size)]
        self.locks = [MemoryLockTable(self.sim, rank) for rank in range(world_size)]
        self.nics = [
            NIC(
                self.sim, rank, self.fabric, self.memories[rank], self.locks[rank],
                config or RuntimeConfig(world_size=world_size),
                detector=self.detector, recorder=self.recorder,
            )
            for rank in range(world_size)
        ]
        for nic in self.nics:
            for peer in self.nics:
                if peer is not nic:
                    nic.register_peer(peer)

    def drive(self, generator):
        """Run one operation generator to completion; returns its result."""
        holder = {}

        def wrapper():
            holder["result"] = yield from generator
        self.sim.process(wrapper())
        self.sim.run()
        return holder["result"]


class TestMessageDecomposition:
    def test_put_uses_exactly_one_data_message(self):
        """Figure 2: put involves one message from source to destination."""
        cluster = Cluster()
        target = GlobalAddress(1, 0)
        result = cluster.drive(cluster.nics[2].rdma_put("value", target))
        assert result.data_messages == 1
        assert cluster.fabric.message_count(MessageKind.PUT_DATA) == 1
        assert cluster.fabric.message_count(MessageKind.GET_REQUEST) == 0
        assert cluster.memories[1].peek(target) == "value"

    def test_get_uses_exactly_two_data_messages(self):
        """Figure 2: get involves a request and a data reply."""
        cluster = Cluster()
        target = GlobalAddress(1, 0)
        cluster.memories[1].write(target, "stored")
        result = cluster.drive(cluster.nics[2].rdma_get(target))
        assert result.value == "stored"
        assert result.data_messages == 2
        assert cluster.fabric.message_count(MessageKind.GET_REQUEST) == 1
        assert cluster.fabric.message_count(MessageKind.GET_REPLY) == 1

    def test_lock_traffic_is_charged(self):
        cluster = Cluster()
        cluster.drive(cluster.nics[2].rdma_put("v", GlobalAddress(1, 0)))
        assert cluster.fabric.message_count(MessageKind.LOCK_REQUEST) == 1
        assert cluster.fabric.message_count(MessageKind.LOCK_GRANT) == 1
        assert cluster.fabric.message_count(MessageKind.UNLOCK) == 1

    def test_detection_round_trip_charged_only_when_enabled(self):
        with_detection = Cluster()
        with_detection.drive(with_detection.nics[2].rdma_put("v", GlobalAddress(1, 0)))
        assert with_detection.fabric.stats.detection_messages == 2

        without_detection = Cluster(with_detector=False)
        without_detection.drive(without_detection.nics[2].rdma_put("v", GlobalAddress(1, 0)))
        assert without_detection.fabric.stats.detection_messages == 0

    def test_detection_messages_piggybacked_when_configured(self):
        cluster = Cluster(config=RuntimeConfig(world_size=3, clock_transport="piggyback"))
        cluster.drive(cluster.nics[2].rdma_put("v", GlobalAddress(1, 0)))
        assert cluster.fabric.stats.detection_messages == 0
        # The data message grew by the piggybacked clock payload.
        assert cluster.fabric.stats.data_bytes > 32 + 8

    @pytest.mark.parametrize("clock_wire", ["full", "delta"])
    def test_the_clock_sync_span_records_the_update_bytes_the_fabric_sent(self, clock_wire):
        """Algorithm 5's round trip: a payload-free fetch, then the update."""
        cluster = Cluster(config=RuntimeConfig(world_size=3, clock_wire=clock_wire))
        Observability.of(cluster.sim).configure(trace_spans=True)
        tracer = Observability.of(cluster.sim).spans
        cluster.drive(cluster.nics[2].rdma_put("v", GlobalAddress(1, 0)))
        (span,) = [event for event in tracer.events() if event["name"] == "clock_sync"]
        # Two headers on the wire; only the update carries a payload.
        sent = cluster.fabric.stats.detection_bytes - 2 * HEADER_BYTES
        assert span["args"] == {"target": "P1", "update_bytes": sent}
        if clock_wire == "full":
            assert sent == 3 * BYTES_PER_ENTRY
        else:
            assert 0 < sent


#: operation -> (call, tally that moves, data messages when the target is
#: remote, value returned, value deposited); the cell holds 5 beforehand.
OPERATION_TABLE = {
    "put": (
        lambda nic, address: nic.rdma_put(9, address),
        "puts_issued", {MessageKind.PUT_DATA: 1}, 9, None,
    ),
    "get": (
        lambda nic, address: nic.rdma_get(address),
        "gets_issued", {MessageKind.GET_REQUEST: 1, MessageKind.GET_REPLY: 1}, 5, None,
    ),
    "fetch_add": (
        lambda nic, address: nic.fetch_add(address, 3),
        "atomics_issued",
        {MessageKind.ATOMIC_REQUEST: 1, MessageKind.ATOMIC_REPLY: 1}, 5, 8,
    ),
    "compare_and_swap": (
        lambda nic, address: nic.compare_and_swap(address, 5, 6),
        "atomics_issued",
        {MessageKind.ATOMIC_REQUEST: 1, MessageKind.ATOMIC_REPLY: 1}, 5, 6,
    ),
    "local_write": (
        lambda nic, address: nic.local_write(address, 9), "local_writes", {}, 9, None,
    ),
    "local_read": (
        lambda nic, address: nic.local_read(address), "local_reads", {}, 5, None,
    ),
}
#: What an operation is recorded as when its target is the caller's own memory.
LOCAL_FLAVOUR = {"put": "local_write", "get": "local_read"}
#: The entry point a local-only operation's error message points to.
REMOTE_ENTRY = {"local_write": "rdma_put", "local_read": "rdma_get"}
DATA_KINDS = (
    MessageKind.PUT_DATA, MessageKind.GET_REQUEST, MessageKind.GET_REPLY,
    MessageKind.ATOMIC_REQUEST, MessageKind.ATOMIC_REPLY, MessageKind.SEND_REQUEST,
)


class TestOperationTable:
    @pytest.mark.parametrize("target_rank", [1, 2], ids=["remote", "own-rank"])
    @pytest.mark.parametrize("operation", OPERATION_TABLE)
    def test_every_operation_on_a_remote_and_on_an_own_rank_target(
        self, operation, target_rank
    ):
        """The six operations are one sequence with one table of differences.

        Rank 2 drives each operation against a cell of rank 1 (remote) and
        against a cell of its own.  What may differ is the table above plus
        one rule: an own-rank target crosses no wire, and a put or a get of
        one *is* the local write or read (same record, same tally, no engine
        span) — the local-or-remote decision is the NIC's, not the caller's.
        That rule is the one cell pair this test changed: up to PR 19
        ``rdma_put`` / ``rdma_get`` of an own-rank address recorded ``"put"``
        / ``"get"``, counted ``puts_issued`` / ``gets_issued`` and drew an
        engine span, although every caller branched to ``local_write`` /
        ``local_read`` first.  Own-rank atomics keep their name, tally and
        span: there is no local flavour of them.
        """
        call, tally, messages, value, new_value = OPERATION_TABLE[operation]
        cluster = Cluster()
        Observability.of(cluster.sim).configure(trace_spans=True)
        nic = cluster.nics[2]
        address = GlobalAddress(target_rank, 0)
        cluster.memories[target_rank].write(address, 5)

        if target_rank != nic.rank and operation in REMOTE_ENTRY:
            generator = call(nic, address)  # lazily: only driving it raises
            with pytest.raises(SimulationError) as failure:
                cluster.drive(generator)
            assert isinstance(failure.value.__cause__, ValueError)
            assert str(failure.value.__cause__) == (
                f"{operation} on rank 2 given remote address {address}; "
                f"use {REMOTE_ENTRY[operation]}"
            )
            return

        if target_rank == nic.rank:
            recorded = LOCAL_FLAVOUR.get(operation, operation)
            tally, messages = OPERATION_TABLE[recorded][1], {}
        else:
            recorded = operation
        before = {name: getattr(nic, name) for _, name, *_ in OPERATION_TABLE.values()}

        result = cluster.drive(call(nic, address))

        (access,) = cluster.recorder.accesses()
        record = cluster.recorder.record_operation(result)
        assert access.operation == record.operation == result.operation == recorded
        assert (access.rank, access.address) == (2, address)
        moved = {name: getattr(nic, name) - count for name, count in before.items()}
        assert moved == {name: int(name == tally) for name in before}
        assert {
            kind: cluster.fabric.message_count(kind)
            for kind in DATA_KINDS
            if cluster.fabric.message_count(kind)
        } == messages
        assert result.data_messages == sum(messages.values())
        assert cluster.nics[1].remote_ops_serviced == int(target_rank != nic.rank)
        tracer = Observability.of(cluster.sim).spans
        engine_spans = [
            event["name"]
            for event in tracer.events()
            if event["ph"] == "X"
            and tracer.tracks()[event["pid"] - 1] == nic.engine_track
            # The lock table's wait and Algorithm 5's round trip draw their
            # own spans there, whatever the operation.
            and event["name"] not in ("lock_wait", "clock_sync")
        ]
        assert engine_spans == ([] if recorded in REMOTE_ENTRY else [recorded])
        assert (result.value, result.new_value) == (value, new_value)
        assert cluster.memories[target_rank].peek(address) == (
            new_value if new_value is not None else value
        )
        assert cluster.locks[target_rank].holder(address) is None
        cluster.locks[target_rank].assert_quiescent()


class TestLockSerialization:
    def test_put_is_delayed_behind_get_on_same_datum(self):
        """Figure 3: the put waits for the lock held by the in-flight get."""
        cluster = Cluster()
        target = GlobalAddress(1, 0)
        cluster.memories[1].write(target, "initial")
        results = {}

        def reader():
            results["get"] = yield from cluster.nics[2].rdma_get(target)

        def writer():
            # Give the get a head start so it owns the lock when the put arrives.
            yield cluster.sim.timeout(1.5)
            results["put"] = yield from cluster.nics[0].rdma_put("new", target)

        cluster.sim.process(reader())
        cluster.sim.process(writer())
        cluster.sim.run()
        assert results["get"].value == "initial"
        assert cluster.locks[1].contended_acquisitions >= 1
        # The put only took effect after the get completed.
        assert results["put"].end_time > results["get"].end_time
        assert cluster.memories[1].peek(target) == "new"

    def test_operations_on_different_cells_do_not_contend(self):
        cluster = Cluster()
        first, second = GlobalAddress(1, 0), GlobalAddress(1, 1)

        def op(nic, address):
            yield from nic.rdma_put("x", address)

        cluster.sim.process(op(cluster.nics[0], first))
        cluster.sim.process(op(cluster.nics[2], second))
        cluster.sim.run()
        assert cluster.locks[1].contended_acquisitions == 0

    def test_locks_released_after_operations(self):
        cluster = Cluster()
        cluster.drive(cluster.nics[0].rdma_put("v", GlobalAddress(1, 3)))
        cluster.sim.run()
        cluster.locks[1].assert_quiescent()


class TestLocalAccesses:
    def test_local_accesses_move_no_messages(self):
        cluster = Cluster()
        address = GlobalAddress(1, 0)
        cluster.drive(cluster.nics[1].local_write(address, 7))
        value_result = cluster.drive(cluster.nics[1].local_read(address))
        assert value_result.value == 7
        assert cluster.fabric.stats.total_messages == 0
        assert cluster.nics[1].local_writes == 1 and cluster.nics[1].local_reads == 1

    def test_local_access_to_remote_address_rejected(self):
        from repro.sim.events import SimulationError

        cluster = Cluster()
        # The error is raised inside the simulated process and surfaces as the
        # kernel's process-failure error, with the original cause chained.
        with pytest.raises(SimulationError, match="local_write"):
            cluster.drive(cluster.nics[0].local_write(GlobalAddress(1, 0), 1))

    def test_local_accesses_still_feed_the_detector(self):
        """Local and remote public accesses are treated alike (Section III-A)."""
        cluster = Cluster()
        address = GlobalAddress(1, 0)
        cluster.drive(cluster.nics[1].local_read(address))
        result = cluster.drive(cluster.nics[0].rdma_put("v", address))
        assert result.raced
        assert cluster.detector.race_count() == 1

    @pytest.mark.parametrize("access", ["local_read", "local_write"])
    def test_a_local_access_that_waited_for_the_lock_reports_the_wait(self, access):
        """Figure 3 on the owner's side: its latency includes the lock wait."""
        cluster = Cluster()
        target = GlobalAddress(1, 0)
        results = {}

        def remote_reader():
            results["get"] = yield from cluster.nics[0].rdma_get(target)

        def owner():
            yield cluster.sim.timeout(1.5)  # the get holds the lock by now
            nic = cluster.nics[1]
            operation = nic.local_read(target) if access == "local_read" else (
                nic.local_write(target, "mine")
            )
            results["local"] = yield from operation

        cluster.sim.process(remote_reader())
        cluster.sim.process(owner())
        cluster.sim.run()
        local, get = results["local"], results["get"]
        assert cluster.locks[1].contended_acquisitions == 1
        assert local.start_time == 1.5
        # The get's UNLOCK message lands one flight after its reply did.
        assert local.end_time == get.end_time + 1.0 == 7.0
        assert local.elapsed == 5.5

    @pytest.mark.parametrize("access", ["local_read", "local_write"])
    def test_an_uncontended_local_access_takes_no_simulated_time(self, access):
        cluster = Cluster()
        target = GlobalAddress(1, 0)
        cluster.sim.timeout(2.0)
        cluster.sim.run()
        nic = cluster.nics[1]
        result = cluster.drive(
            nic.local_read(target) if access == "local_read" else nic.local_write(target, 2)
        )
        # The grant hop resumes the caller on a later step of the same instant.
        assert result.start_time == result.end_time == 2.0
        assert result.elapsed == 0.0


class TestTracing:
    def test_recorder_sees_every_access(self):
        cluster = Cluster()
        target = GlobalAddress(1, 0)
        cluster.drive(cluster.nics[2].rdma_put("v", target, symbol="x"))
        cluster.drive(cluster.nics[0].rdma_get(target, symbol="x"))
        accesses = cluster.recorder.accesses()
        assert len(accesses) == 2
        assert accesses[0].operation == "put" and accesses[1].operation == "get"
        assert {a.symbol for a in accesses} == {"x"}

    def test_counters_track_issued_operations(self):
        cluster = Cluster()
        target = GlobalAddress(1, 0)
        cluster.drive(cluster.nics[2].rdma_put("v", target))
        cluster.drive(cluster.nics[2].rdma_get(target))
        assert cluster.nics[2].puts_issued == 1
        assert cluster.nics[2].gets_issued == 1
        assert cluster.nics[1].remote_ops_serviced == 2


class TestValidation:
    def test_mismatched_memory_rank_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim, Topology.complete(2), ConstantLatency())
        memory = PublicMemory(1, 8)
        locks = MemoryLockTable(sim, 0)
        with pytest.raises(ValueError):
            NIC(sim, 0, fabric, memory, locks, RuntimeConfig(world_size=2))

    def test_notification_delivers_payload(self):
        cluster = Cluster()
        message = cluster.drive(cluster.nics[0].send_notification(2, payload="hello"))
        assert message.payload == "hello"
        assert message.destination == 2
