"""A runtime's footprint, guarded by count rather than by time.

Building, running and collecting a schedule should cost what the schedule
touches.  Host time is too noisy to assert on, so these tests count the
things the time is spent on: ``MemoryCell`` objects built, instruments in the
metric snapshot, topologies constructed.

``golden_metric_keys.json`` holds, per corpus pattern, the sorted key list of
``RunResult.metrics`` (zero-valued counters included) as recorded before the
stats views registered their counters in one pass; per-rank families are
written once, ``name{rank=0,1,2}``.  Regenerate it with::

    PYTHONPATH=src python tests/runtime/test_footprint.py > tests/runtime/golden_metric_keys.json
"""

import gc
import json
import os
import re
import sys

import pytest

import repro.memory.public as public_module
from repro import DSMRuntime, RuntimeConfig
from repro.memory.public import MemoryCell
from repro.net.clock_transport import CLOCK_TRANSPORT_FIELDS, ClockTransportStats
from repro.net.fabric import FabricStats
from repro.net.message import MessageKind
from repro.net.nic import NIC_COUNTER_FIELDS
from repro.net.topology import Topology
from repro.obs.metrics import Counter, MetricsRegistry, define_family, family_keys
from repro.workloads import (
    RandomAccessWorkload,
    RPCEchoWorkload,
    SendRecvStencilWorkload,
    pattern_corpus,
)
from repro.workloads.racy_patterns import rmw_pattern_corpus

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_metric_keys.json")
PATTERNS = {pattern.name: pattern for pattern in pattern_corpus()}

_RANK_KEY = re.compile(r"^(.*)\{rank=([0-9,]+)\}$")


def collapse(keys):
    """Write each per-rank family once: ``name{rank=0,1,2}``."""
    ranks, out = {}, []
    for key in keys:
        match = _RANK_KEY.match(key)
        if match is None:
            out.append(key)
        else:
            ranks.setdefault(match.group(1), []).append(match.group(2))
    out += [f"{name}{{rank={','.join(found)}}}" for name, found in ranks.items()]
    return sorted(out)


@pytest.fixture
def cells_built(monkeypatch):
    """Counts every ``MemoryCell`` a ``PublicMemory`` constructs."""
    built = []

    class CountedCell(MemoryCell):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(public_module, "MemoryCell", CountedCell)
    return built


class TestCellsMaterialiseOnFirstTouch:
    def test_construction_builds_no_cell(self, cells_built):
        runtime = DSMRuntime(RuntimeConfig(world_size=4))
        assert cells_built == []
        assert [memory.size for memory in runtime.public_memories] == [256] * 4

    @pytest.mark.parametrize("name", PATTERNS)
    def test_a_run_builds_the_cells_its_trace_and_symbols_name(self, name, cells_built):
        runtime = PATTERNS[name].build(0)
        result = runtime.run()
        named = {access.address for access in runtime.recorder.accesses()}
        for symbol in runtime.directory.symbols():
            named.update(
                runtime.directory.resolve(symbol.name, index)
                for index in range(symbol.length)
            )
        assert len(cells_built) == len(named)
        # ...and they are the cells at exactly those addresses: asking for
        # each by address finds one already built and builds none.
        assert {id(cell) for cell in cells_built} == {
            id(runtime.public_memories[address.rank].cell(address)) for address in named
        }
        assert len(cells_built) == len(named)
        # The accounting visits them only, and still sees everything.
        reads = sum(memory.total_reads() for memory in runtime.public_memories)
        assert reads == sum(
            1 for access in runtime.recorder.accesses() if access.kind.is_read
        )
        assert result.clock_storage_entries == runtime.detector.clock_storage_entries() + sum(
            cell.clock_storage_entries() for cell in cells_built
        )


class TestSnapshotKeySet:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as handle:
            return json.load(handle)

    def test_the_golden_file_covers_the_corpus(self, golden):
        assert sorted(golden) == sorted(PATTERNS)

    @pytest.mark.parametrize("name", PATTERNS)
    def test_metrics_keys_equal_the_golden_list(self, name, golden):
        result = PATTERNS[name].build(0).run()
        keys = sorted(result.metrics)
        assert list(result.metrics) == keys
        assert collapse(keys) == golden[name]

    def test_a_family_registration_returns_the_registrys_own_counters(self):
        registry = MetricsRegistry()
        names = ("nic.puts_issued", "nic.gets_issued")
        row = registry.counter_family(family_keys(names, rank=3))
        assert row == [0, 0]
        assert registry.counter_family(family_keys(names, rank=3)) is row
        slots = [registry.counter(name, rank=3) for name in names]
        assert [slot.key for slot in slots] == [
            "nic.puts_issued{rank=3}", "nic.gets_issued{rank=3}",
        ]
        assert [registry.counter(name, rank=3) for name in names] == slots
        # A slot view aliases the row: a write through either is seen
        # through the other.
        row[1] += 4
        slots[0].inc(2)
        assert [slot.value for slot in slots] == row == [2, 4]
        # Labels are canonical however they are spelled.
        assert family_keys(("x",), b=1, a="2") == (("x", (("a", "2"), ("b", "1"))),)
        x = registry.counter_family(family_keys(("x",), b=1, a="2"))
        registry.counter("x", a=2, b="1").inc()
        assert x == [1]
        assert family_keys(("x",)) == (("x", ()),)
        assert registry.snapshot() == {
            "nic.gets_issued{rank=3}": 4, "nic.puts_issued{rank=3}": 2, "x{a=2,b=1}": 1,
        }

    def test_the_three_stats_views_hold_the_registrys_own_counters(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=3))
        registry = runtime.sim.obs.metrics
        before = len(list(registry.instruments()))
        keys = list(registry.snapshot())
        stats = runtime.fabric.stats
        for amount, category in enumerate(("data", "lock", "detection", "other"), 1):
            registry.counter("fabric.messages", category=category).inc(amount)
            registry.counter("fabric.bytes", category=category).inc(10 * amount)
            assert getattr(stats, f"{category}_messages") == amount
            assert getattr(stats, f"{category}_bytes") == 10 * amount
        runtime.fabric.send(MessageKind.LOCK_REQUEST, 0, 1)
        for kind in MessageKind:
            by_kind = registry.counter("fabric.messages_by_kind", kind=kind.value)
            assert by_kind.value == stats.message_count_for_kind(kind)
            assert by_kind.value == (kind is MessageKind.LOCK_REQUEST)
        for nic in runtime.nics:
            transport = nic.clock_transport.stats
            for view, prefix, fields in (
                (nic, "nic", NIC_COUNTER_FIELDS),
                (transport, "clock_transport", CLOCK_TRANSPORT_FIELDS),
            ):
                for amount, field in enumerate(fields, 10 * nic.rank):
                    slot = registry.counter(f"{prefix}.{field}", rank=nic.rank)
                    setattr(view, field, amount)
                    assert slot.value == amount
                    slot.inc()
                    assert getattr(view, field) == amount + 1
        # Every lookup above found its instrument: none was created by asking.
        assert len(list(registry.instruments())) == before
        assert list(registry.snapshot()) == keys

    def test_a_singleton_with_a_familys_key_refuses_the_family(self):
        registry = MetricsRegistry()
        names = ("nic.puts_issued", "nic.gets_issued")
        registry.counter("nic.gets_issued", rank=5).inc()
        with pytest.raises(ValueError, match=r"nic.gets_issued\{rank=5\} already exists"):
            registry.counter_family(family_keys(names, rank=5))
        # Nothing was registered: the singleton is still the key's one value.
        assert registry.snapshot() == {"nic.gets_issued{rank=5}": 1}
        assert registry.counter_family(family_keys(names, rank=6)) == [0, 0]

    def test_a_family_must_be_a_process_constant_and_may_not_overlap(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError, match="family_keys"):
            registry.counter_family((("a", ()), ("b", ())))
        row = registry.counter_family(define_family([("ov.a", ()), ("ov.b", ())]))
        with pytest.raises(ValueError, match=r"ov.b already belongs to another"):
            registry.counter_family(define_family([("ov.b", ()), ("ov.c", ())]))
        with pytest.raises(ValueError, match="names a key twice"):
            define_family([("ov.d", ()), ("ov.d", ())])
        row[1] = 3
        assert registry.snapshot() == {"ov.a": 0, "ov.b": 3}

    def test_a_bare_build_creates_no_counter_object_and_one_row_per_family(self):
        gc.collect()
        counters_before = sum(type(o) is Counter for o in gc.get_objects())
        runtime = DSMRuntime(RuntimeConfig(world_size=4))
        gc.collect()
        counters_after = sum(type(o) is Counter for o in gc.get_objects())
        registry = runtime.sim.obs.metrics
        # 0 counter objects (118 when each key was a ``Counter``): a row per
        # NIC, one per NIC's clock transport, one for the fabric: 2n + 1.
        assert counters_after == counters_before
        assert not any(type(i) is Counter for i in registry.instruments())
        assert len(registry._rows) == 2 * 4 + 1
        assert [len(row) for row in registry._rows.values()].count(len(NIC_COUNTER_FIELDS)) == 4
        snapshot = registry.snapshot()
        assert len(snapshot) == 118 == 4 * len(NIC_COUNTER_FIELDS) + 4 * len(
            CLOCK_TRANSPORT_FIELDS
        ) + 2 * 4 + len(MessageKind)
        assert set(snapshot.values()) == {0}

    def test_bare_views_and_run_totals_touch_no_registry(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=3))
        registry = runtime.sim.obs.metrics
        before = registry.snapshot()
        runtime.nics[1].clock_transport.stats.round_trips += 2
        runtime.nics[2].clock_transport.stats.round_trips += 3
        total = runtime.clock_transport_stats()
        assert total.round_trips == 5
        assert total.as_dict() == {
            field: 5 if field == "round_trips" else 0 for field in CLOCK_TRANSPORT_FIELDS
        }
        total.round_trips += 1  # a total is a copy, not a view
        assert runtime.clock_transport_stats().round_trips == 5
        after = registry.snapshot()
        assert set(after) == set(before)
        assert ClockTransportStats() == ClockTransportStats()
        assert FabricStats() == FabricStats()


class TestTopologyReuse:
    @pytest.mark.parametrize("name, world_size", [
        ("complete", 4), ("ring", 5), ("star", 4), ("mesh", 6), ("torus", 9), ("hypercube", 8),
    ])
    def test_runtimes_share_one_topology_with_a_fresh_ones_hops(self, name, world_size):
        first = DSMRuntime(RuntimeConfig(world_size=world_size, topology=name))
        second = DSMRuntime(RuntimeConfig(world_size=world_size, topology=name))
        assert first.topology is second.topology
        fresh = DSMRuntime._named_topology.__wrapped__(name, world_size)
        assert fresh is not first.topology and fresh.name == first.topology.name
        for source in range(world_size):
            for destination in range(world_size):
                assert first.topology.hops(source, destination) == fresh.hops(
                    source, destination
                )
        other_size = DSMRuntime(RuntimeConfig(world_size=world_size * 2, topology="ring"))
        assert other_size.topology.world_size == world_size * 2

    def test_a_supplied_topology_is_used_as_is(self):
        mine = Topology.ring(4)
        runtime = DSMRuntime(RuntimeConfig(world_size=4, topology=mine))
        assert runtime.topology is mine
        assert runtime.fabric.topology is mine
        assert DSMRuntime(RuntimeConfig(world_size=4, topology="ring")).topology is not mine
        with pytest.raises(ValueError, match="covers 4 ranks"):
            DSMRuntime(RuntimeConfig(world_size=3, topology=mine))

    def test_errors_are_raised_every_time_not_cached(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown topology 'Moebius'"):
                DSMRuntime(RuntimeConfig(world_size=4, topology="Moebius"))
            with pytest.raises(ValueError, match="power-of-two"):
                DSMRuntime(RuntimeConfig(world_size=6, topology="hypercube"))


def _stencil(iterations):
    """The posted stencil as ``run_posted`` configures it, four ranks wide."""
    config = RuntimeConfig(clock_transport="piggyback", clock_wire="delta")
    return SendRecvStencilWorkload(world_size=4, iterations=iterations, config=config)


FINISHED_RUNS = {
    **{pattern.name: pattern.build for pattern in pattern_corpus() + rmw_pattern_corpus()},
    "send-recv-stencil": _stencil(3).build,
    "random-access": RandomAccessWorkload(world_size=4, operations_per_rank=20).build,
    # An SRQ and an event channel: the CQ holds its channel weakly.
    "rpc-echo": RPCEchoWorkload().build,
    "rpc-echo-racy": RPCEchoWorkload(racy_buffer_reuse=True).build,
    "rpc-echo-bulk": RPCEchoWorkload(srq_replenish="bulk").build,
}


class TestAFinishedRunFreesItself:
    """Dropping a runtime frees it by reference counting alone.

    A reference cycle anywhere in the object graph of a run (NIC <-> peer,
    simulator <-> process, lock request <-> event, a program closing over
    its runtime, ...) leaves the *whole* run to the cyclic collector, whose
    passes then cost a campaign ~12 % of its time.  There is no ``close()``
    and no teardown inside ``run()``: the runtime stays fully inspectable
    until the caller lets go of it.
    """

    @pytest.mark.parametrize("name", FINISHED_RUNS)
    def test_a_dropped_runtime_leaves_the_collector_nothing(self, name):
        gc.collect()
        gc.disable()
        try:
            runtime = FINISHED_RUNS[name](0)
            result = runtime.run()
            # Between run() and the drop everything is still there to ask.
            assert runtime.sim.all_finished()
            assert runtime.consistency_check() == []
            assert len(runtime.recorder.accesses()) == result.trace_summary.accesses > 0
            assert runtime.nics[0].peer(1).peer(0) is runtime.nics[0]
            assert runtime.nics[1].clock_transport.piggyback is (
                runtime.config.clock_transport == "piggyback"
            )
            assert all(not process.is_alive for process in runtime.sim.processes)
            assert all(process.sim is runtime.sim for process in runtime.sim.processes)
            del runtime, result
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_the_logger_outlives_its_simulator(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        logger = runtime.sim.logger
        runtime.sim.timeout(3.0)
        runtime.sim.run()
        assert logger.log("app", "while it runs").time == 3.0
        del runtime
        gc.collect()
        assert logger.log("app", "after it is gone").time == 0.0


#: name -> (a run at the smaller size, the same at the larger one).  The two
#: growth runs are race-free, so nothing but the trace grows with them; the
#: default random-access run races on its hot cells like ``run_blocking``.
RETENTION_RUNS = {
    "send-recv-stencil": (lambda: _stencil(3), lambda: _stencil(9)),
    "random-access-cold": (
        lambda: RandomAccessWorkload(world_size=4, operations_per_rank=80, hotspot_fraction=0.0),
        lambda: RandomAccessWorkload(world_size=4, operations_per_rank=240, hotspot_fraction=0.0),
    ),
    "random-access": (
        lambda: RandomAccessWorkload(world_size=4, operations_per_rank=20),
        lambda: RandomAccessWorkload(world_size=4, operations_per_rank=60),
    ),
}

#: What an access needs while it is under way and nobody needs afterwards.
SCAFFOLDING = (
    "LockRequest", "_GrantEvent", "_Bounce", "Timeout", "Event",
    "RemoteOperationResult", "AccessCheckResult", "WorkCompletion", "Message",
)

#: Tracked objects a trace record adds besides itself: none.  The records have
#: ``__slots__``; built through ``__dict__.update`` each would own a
#: materialised ``__dict__`` (1), and the growth test below would say so.
OBJECTS_PER_RECORD_BESIDES_ITSELF = 0


def census():
    """Live GC-tracked objects, counted by type name."""
    counts = {}
    for thing in gc.get_objects():
        name = type(thing).__name__
        counts[name] = counts.get(name, 0) + 1
    return counts


def held_run(make):
    """Run ``make()`` with the collector off; return what it left alive.

    ``(objects by type that the run added, the finished run itself)`` — the
    runtime, its result and its trace are all still held by the caller.
    """
    before = census()
    finished = make().run(0)
    after = census()
    added = {name: after[name] - before.get(name, 0) for name in after}
    return {name: count for name, count in added.items() if count}, finished


def records_of(finished):
    recorder = finished.runtime.recorder
    return recorder.accesses() + recorder.operations() + recorder.syncs()


def owned_by(records):
    """Tracked objects only the records hold: written values, participants, clocks."""
    owned = {}
    for record in records:
        for name in ("value", "observed", "participants", "clock"):
            thing = getattr(record, name, None)
            if gc.is_tracked(thing):
                owned[id(thing)] = thing
    return len(owned)


class TestAnAccessKeepsOnlyItsTrace:
    """When an access completes, what it leaves behind is its trace records.

    Counted, not timed: every object a run retains is one more the cyclic
    collector walks on each pass, and per-access scaffolding kept "for
    inspection" (a lock-request log, a per-rank result list, one address
    object per resolution) was 75 % of a finished run's heap.
    """

    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @pytest.mark.parametrize("name", RETENTION_RUNS)
    def test_no_scaffolding_outlives_the_programs(self, name):
        held_run(RETENTION_RUNS[name][0])  # imports, caches, interned keys
        added, finished = held_run(RETENTION_RUNS[name][1])
        runtime = finished.runtime
        assert runtime.sim.all_finished()
        assert [table.outstanding() for table in runtime.lock_tables] == [0] * 4
        assert {kind: added.get(kind, 0) for kind in SCAFFOLDING} == dict.fromkeys(
            SCAFFOLDING, 0
        )
        recorder = runtime.recorder
        assert added["MemoryAccess"] == len(recorder.accesses())
        assert added["OperationRecord"] == len(recorder.operations())
        assert added.get("SyncEvent", 0) == len(recorder.syncs())
        # One address object per cell and per directory, however often it is
        # resolved; a region builds its own when asked for its range.
        cells = {access.address for access in recorder.accesses()}
        cells.update(
            runtime.directory.resolve(symbol.name, index)
            for symbol in runtime.directory.symbols()
            for index in range(symbol.length)
        )
        regions = sum(len(list(memory.regions())) for memory in runtime.public_memories)
        assert added["GlobalAddress"] <= len(cells) + regions + 4

    def test_a_held_lock_is_the_only_request_alive(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        runtime.declare_scalar("x", owner=1, initial=0)
        seen = []

        def program(api):
            for _ in range(5):
                yield from api.put("x", 1)
            request = api.iput("x", 2)
            yield from api.compute(2.5)  # in flight: its lock is held
            seen.append((census().get("LockRequest", 0), runtime.lock_tables[1].outstanding()))
            yield from api.wait(request)

        runtime.set_program(0, program)
        runtime.set_program(1, lambda api: api.compute(0.0))
        runtime.run()
        assert seen == [(1, 1)]
        assert census().get("LockRequest", 0) == 0

    @pytest.mark.parametrize("name", ["send-recv-stencil", "random-access-cold"])
    def test_a_longer_run_grows_by_its_trace_and_nothing_else(self, name):
        small, large = RETENTION_RUNS[name]
        held_run(small)
        added_small, finished_small = held_run(small)
        records_small = records_of(finished_small)
        owned_small = owned_by(records_small)
        processes_small = len(finished_small.runtime.sim.processes)
        cells_small = {access.address for access in finished_small.runtime.recorder.accesses()}
        del finished_small
        added_large, finished_large = held_run(large)
        records_large = records_of(finished_large)
        more_records = len(records_large) - len(records_small)
        assert more_records == 2 * len(records_small) > 0  # three times the run
        runtime = finished_large.runtime
        # Same cells, so the detector's per-datum state is the same size.
        assert {access.address for access in runtime.recorder.accesses()} == cells_small
        # One thing besides the trace is kept per *burst*, not per access: a
        # queue pair's drain is a process the simulator lists for good (itself,
        # its generator, its callback list).  The barrier keeps only its
        # latest open, however many generations crossed.
        more_processes = len(runtime.sim.processes) - processes_small
        growth = sum(added_large.values()) - sum(added_small.values())
        unexplained = growth - (
            more_records * (1 + OBJECTS_PER_RECORD_BESIDES_ITSELF)
            + owned_by(records_large) - owned_small
            + 3 * more_processes
        )
        # The detector's memory of a datum is up to three "last access" tuples
        # and three epochs, and which of them exist depends on how the run
        # left the cell: the stencil leaves every cell as it found it, the
        # random run does not.
        per_datum = 0 if name == "send-recv-stencil" else 6
        assert abs(unexplained) <= per_datum * len(cells_small) < more_records // 4


if __name__ == "__main__":
    json.dump(
        {
            name: collapse(sorted(pattern.build(0).run().metrics))
            for name, pattern in PATTERNS.items()
        },
        sys.stdout,
        indent=1,
    )
    sys.stdout.write("\n")
