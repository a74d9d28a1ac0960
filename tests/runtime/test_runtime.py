"""Unit tests for the DSM runtime: construction, programs, results."""

import pytest

from repro.core.detector import DetectorConfig
from repro.core.races import SignalPolicy
from repro.memory.directory import PlacementPolicy
from repro.net.latency import ConstantLatency
from repro.net.topology import Topology
from repro.runtime.runtime import DSMRuntime, RunResult, RuntimeConfig


def idle(api):
    yield from api.compute(0.0)


class TestConstruction:
    def test_default_configuration(self):
        runtime = DSMRuntime()
        assert runtime.config.world_size == 4
        assert len(runtime.nics) == 4
        assert runtime.topology.name.startswith("complete")

    def test_overrides_via_kwargs(self):
        runtime = DSMRuntime(world_size=2, topology="ring")
        assert runtime.config.world_size == 2
        assert runtime.topology.name.startswith("ring")

    def test_topology_instance_must_match_world_size(self):
        with pytest.raises(ValueError):
            DSMRuntime(RuntimeConfig(world_size=4, topology=Topology.complete(3)))

    def test_named_latency_models(self):
        for name in ("constant", "uniform", "loggp"):
            runtime = DSMRuntime(RuntimeConfig(world_size=2, latency=name))
            assert runtime.latency_model is not None

    def test_latency_instance_accepted(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2, latency=ConstantLatency(base=9.0)))
        assert runtime.latency_model.base == 9.0

    def test_unknown_topology_or_latency_rejected(self):
        with pytest.raises(ValueError):
            DSMRuntime(RuntimeConfig(world_size=3, topology="moebius"))
        with pytest.raises(ValueError):
            DSMRuntime(RuntimeConfig(world_size=3, latency="tachyonic"))

    def test_hypercube_requires_power_of_two(self):
        assert DSMRuntime(RuntimeConfig(world_size=4, topology="hypercube")).topology.world_size == 4
        with pytest.raises(ValueError):
            DSMRuntime(RuntimeConfig(world_size=6, topology="hypercube"))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("ud_max_retransmits", -1),
            ("ud_max_retransmits", "x"),
            ("ud_max_retransmits", True),
            ("verbs_max_send_wr", 0),
            ("verbs_max_recv_wr", 0),
            ("verbs_cq_capacity", 2.5),
            ("verbs_cq_capacity", True),
            ("verbs_cq_capacity", "4"),
            ("verbs_cq_capacity", 4.0),
            ("verbs_cq_capacity", 0),
            ("verbs_cq_capacity", -2),
        ],
    )
    def test_settings_the_nic_and_contexts_read_are_checked_at_construction(
        self, name, value
    ):
        with pytest.raises((ValueError, TypeError), match=name):
            DSMRuntime(RuntimeConfig(world_size=2, **{name: value}))

    @pytest.mark.parametrize("capacity", [None, 1, 16])
    def test_a_valid_cq_capacity_reaches_every_send_cq(self, capacity):
        runtime = DSMRuntime(RuntimeConfig(world_size=2, verbs_cq_capacity=capacity))
        assert [c.cq.capacity for c in runtime.verbs_contexts] == [capacity, capacity]

    def test_config_with_overrides_returns_copy(self):
        config = RuntimeConfig(world_size=4)
        other = config.with_overrides(world_size=8)
        assert config.world_size == 4 and other.world_size == 8


class TestExecution:
    def test_put_and_get_through_symbols(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=3))
        runtime.declare_scalar("x", owner=1, initial=0)

        def writer(api):
            yield from api.put("x", 99)

        def reader(api):
            yield from api.compute(30.0)
            value = yield from api.get("x")
            api.private.write("seen", value)

        runtime.set_program(0, writer)
        runtime.set_program(1, idle)
        runtime.set_program(2, reader)
        result = runtime.run()
        assert result.shared_value("x") == 99
        assert result.per_rank_private[2]["seen"] == 99
        assert isinstance(result, RunResult)

    def test_run_requires_programs(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        with pytest.raises(RuntimeError, match="no programs"):
            runtime.run()

    def test_run_only_once(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        runtime.set_spmd_program(idle)
        runtime.run()
        with pytest.raises(RuntimeError):
            runtime.run()

    def test_idle_ranks_are_allowed(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=4))
        runtime.set_program(0, idle)
        result = runtime.run()
        assert result.elapsed_sim_time >= 0.0

    def test_invalid_rank_for_program(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        with pytest.raises(ValueError):
            runtime.set_program(5, idle)

    def test_spmd_with_per_rank_kwargs(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=3))
        runtime.declare_array("out", 3, policy=PlacementPolicy.OWNER, owner=0)

        def program(api, multiplier=1):
            yield from api.put("out", api.rank * multiplier, index=api.rank)

        runtime.set_spmd_program(program, per_rank_kwargs={2: {"multiplier": 10}})
        result = runtime.run()
        assert result.final_shared_values["out"] == [0, 1, 20]

    def test_detection_can_be_disabled(self):
        config = RuntimeConfig(world_size=3, detector=None)
        runtime = DSMRuntime(config)
        runtime.declare_scalar("x", owner=1)

        def writer(api):
            yield from api.put("x", api.rank)

        runtime.set_program(0, writer)
        runtime.set_program(1, idle)
        runtime.set_program(2, writer)
        result = runtime.run()
        assert result.race_count == 0
        assert result.fabric_stats.detection_messages == 0
        assert result.detection_clock_bytes == 0

    def test_signal_policy_warn_prints(self, capsys):
        config = RuntimeConfig(world_size=3, signal_policy=SignalPolicy.WARN)
        runtime = DSMRuntime(config)
        runtime.declare_scalar("x", owner=1)

        def writer(api):
            yield from api.put("x", api.rank)

        runtime.set_program(0, writer)
        runtime.set_program(1, idle)
        runtime.set_program(2, writer)
        runtime.run()
        assert "RACE" in capsys.readouterr().out

    def test_consistency_check_passes_for_serialized_accesses(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=3))
        runtime.declare_scalar("x", owner=1, initial="init")

        def writer(api):
            yield from api.put("x", f"from-{api.rank}")
            value = yield from api.get("x")
            api.private.write("readback", value)

        runtime.set_spmd_program(writer)
        runtime.run()
        assert runtime.consistency_check() == []

    def test_final_values_and_trace_summary(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        runtime.declare_array("arr", 4, policy=PlacementPolicy.BLOCK, initial=0)

        def writer(api):
            for index in range(4):
                yield from api.put("arr", index * 2, index=index)

        runtime.set_program(0, writer)
        runtime.set_program(1, idle)
        result = runtime.run()
        assert result.final_shared_values["arr"] == [0, 2, 4, 6]
        assert result.trace_summary.writes == 4
        assert result.trace_summary.world_size == 2

    def test_run_until_stops_early(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))

        def long_program(api):
            yield from api.compute(1000.0)

        runtime.set_spmd_program(long_program)
        result = runtime.run(until=10.0)
        assert result.elapsed_sim_time == 10.0
