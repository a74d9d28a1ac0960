"""Legacy stats objects are views over the registry: one truth, two spellings."""

from repro.net.clock_transport import CLOCK_TRANSPORT_FIELDS, ClockTransportStats
from repro.net.fabric import Fabric, FabricStats
from repro.net.latency import ConstantLatency
from repro.net.message import MessageKind
from repro.net.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.workloads.stencil import StencilWorkload


class TestFabricStatsView:
    def test_bare_construction_owns_a_private_registry(self):
        first = FabricStats()
        second = FabricStats()
        # Book two data messages into *first* as the fabric books a message.
        fabric = Fabric(Simulator(), Topology.complete(2), ConstantLatency(1.0))
        fabric.stats = first
        fabric.send(MessageKind.PUT_DATA, 0, 1)
        fabric.send(MessageKind.PUT_DATA, 1, 0)
        assert first.data_messages == 2
        # Two bare instances never share a row, and neither is the registry's.
        assert second.data_messages == 0
        assert fabric._sim.obs.metrics.snapshot()["fabric.messages{category=data}"] == 0

    def test_view_reads_through_to_the_shared_registry(self):
        registry = MetricsRegistry()
        stats = FabricStats(registry)
        registry.counter("fabric.messages", category="data").inc(5)
        assert stats.data_messages == 5
        assert stats.total_messages == 5
        assert registry.snapshot()["fabric.messages{category=data}"] == 5

    def test_workload_run_keeps_both_spellings_equal(self):
        result = StencilWorkload(
            world_size=3, cells_per_rank=4, iterations=2
        ).run(seed=0)
        stats = result.run.fabric_stats
        snapshot = result.runtime.sim.obs.metrics.snapshot()
        assert stats.data_messages == snapshot["fabric.messages{category=data}"]
        assert stats.lock_messages == snapshot["fabric.messages{category=lock}"]
        assert (
            stats.detection_messages
            == snapshot["fabric.messages{category=detection}"]
        )
        assert stats.data_bytes == snapshot["fabric.bytes{category=data}"]
        assert stats.total_messages == sum(
            snapshot[f"fabric.messages{{category={c}}}"]
            for c in ("data", "lock", "detection", "other")
        )


class TestClockTransportStatsView:
    def test_every_field_reads_through(self):
        registry = MetricsRegistry()
        stats = ClockTransportStats(registry)
        for index, name in enumerate(CLOCK_TRANSPORT_FIELDS):
            setattr(stats, name, index + 1)
        for index, name in enumerate(CLOCK_TRANSPORT_FIELDS):
            assert getattr(stats, name) == index + 1
            assert (
                registry.snapshot()[f"clock_transport.{name}"] == index + 1
            )
        assert stats.as_dict() == {
            name: index + 1 for index, name in enumerate(CLOCK_TRANSPORT_FIELDS)
        }

    def test_run_totals_equal_the_per_rank_registry_sum(self):
        world_size = 3
        result = StencilWorkload(
            world_size=world_size, cells_per_rank=4, iterations=2
        ).run(seed=0)
        snapshot = result.runtime.sim.obs.metrics.snapshot()
        transport = result.run.clock_transport_stats
        for name in CLOCK_TRANSPORT_FIELDS:
            per_rank = sum(
                snapshot.get(f"clock_transport.{name}{{rank={rank}}}", 0)
                for rank in range(world_size)
            )
            assert transport[name] == per_rank, name
