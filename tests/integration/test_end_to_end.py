"""Integration tests spanning simulator, network, memory, runtime and detector."""

import pytest

from repro.core.detector import DetectorConfig
from repro.detectors import PostMortemDualClockDetector, SeedVaryingOracle, SingleClockDetector
from repro.memory.directory import PlacementPolicy
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.workloads import (
    MasterWorkerWorkload,
    OneSidedReductionWorkload,
    RandomAccessWorkload,
    StencilWorkload,
    pattern_corpus,
)


class TestCoherenceOfTheSimulatedMemory:
    """The substrate itself must be coherent: reads return the latest write."""

    @pytest.mark.parametrize("topology", ["complete", "ring", "star"])
    @pytest.mark.parametrize("latency", ["constant", "uniform"])
    def test_every_trace_is_per_cell_coherent(self, topology, latency):
        workload = RandomAccessWorkload(
            world_size=4, operations_per_rank=12, hotspot_fraction=0.5, write_fraction=0.6,
            config=RuntimeConfig(topology=topology, latency=latency),
        )
        runtime = workload.build(seed=11)
        runtime.run()
        assert runtime.consistency_check() == []

    def test_locks_are_quiescent_after_every_workload(self):
        for workload in (
            StencilWorkload(world_size=3, iterations=2),
            OneSidedReductionWorkload(world_size=4),
            MasterWorkerWorkload(world_size=3, tasks=4),
        ):
            runtime = workload.build(seed=5)
            runtime.run()
            for table in runtime.lock_tables:
                table.assert_quiescent()


class TestOnlineAndOfflineDetectionAgree:
    """The communication-library and pre-compiler deployments (Section V-B)."""

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_postmortem_replay_matches_online_report(self, seed):
        workload = RandomAccessWorkload(
            world_size=4, operations_per_rank=10, hotspot_fraction=0.7, write_fraction=0.6
        )
        runtime = workload.build(seed=seed)
        result = runtime.run()
        offline = PostMortemDualClockDetector().detect(
            runtime.recorder.accesses(),
            runtime.config.world_size,
            syncs=runtime.recorder.syncs(),
        )
        assert offline.count() == result.race_count
        online_addresses = {record.address for record in result.race_records()}
        assert offline.flagged_addresses() == online_addresses

    def test_single_clock_baseline_is_a_superset_with_read_read_noise(self):
        workload = RandomAccessWorkload(
            world_size=4, operations_per_rank=12, hotspot_fraction=0.7, write_fraction=0.3
        )
        runtime = workload.build(seed=2)
        result = runtime.run()
        baseline = SingleClockDetector()
        findings = baseline.detect(runtime.recorder.accesses(), 4)
        assert findings.count() >= result.race_count
        # And the extra findings include pure read-read pairs (false positives).
        if findings.count() > result.race_count:
            assert baseline.read_read_findings(findings)


class TestDetectorAgainstGroundTruth:
    def test_every_symbol_flagged_on_a_clean_program_is_truly_clean(self):
        """On race-free corpus entries the detector must flag nothing (no FPs)."""
        for pattern in pattern_corpus():
            if pattern.racy:
                continue
            result = pattern.run(seed=1)
            assert result.race_count == 0, f"false positive on {pattern.name}"

    def test_every_racy_corpus_entry_is_flagged(self):
        for pattern in pattern_corpus():
            if not pattern.racy:
                continue
            result = pattern.run(seed=1)
            assert result.race_count > 0, f"missed race on {pattern.name}"

    def test_oracle_confirms_detector_on_unsynchronized_reduction(self):
        workload = OneSidedReductionWorkload(world_size=5, synchronize=False)
        truth = SeedVaryingOracle(workload.factory(), seeds=range(6)).evaluate()
        detection_runs = [run.race_count > 0 for run in truth.runs.values()]
        assert truth.racy
        assert any(detection_runs)


class TestDetectionDoesNotPerturbResults:
    """Enabling detection must not change what the program computes."""

    @pytest.mark.parametrize("seed", [0, 4])
    def test_final_shared_values_identical_with_and_without_detection(self, seed):
        def build(enabled):
            workload = StencilWorkload(
                world_size=4, cells_per_rank=6, iterations=3, use_barriers=True,
                config=RuntimeConfig(detector=DetectorConfig() if enabled else None),
            )
            runtime = workload.build(seed=seed)
            return runtime.run()

        with_detection = build(True)
        without_detection = build(False)
        assert with_detection.final_shared_values == without_detection.final_shared_values

    def test_detection_only_adds_control_traffic(self):
        def run(enabled):
            workload = OneSidedReductionWorkload(
                world_size=4, synchronize=True,
                config=RuntimeConfig(detector=DetectorConfig() if enabled else None),
            )
            return workload.run(seed=0).run

        instrumented = run(True)
        baseline = run(False)
        assert instrumented.fabric_stats.data_messages == baseline.fabric_stats.data_messages
        assert instrumented.fabric_stats.detection_messages > 0
        assert baseline.fabric_stats.detection_messages == 0


class TestScaleAndTopologies:
    @pytest.mark.parametrize("world_size", [2, 4, 8, 16])
    def test_debugging_scale_runs_complete(self, world_size):
        """The paper targets ~10 processes; the simulator handles 2..16 easily."""
        workload = RandomAccessWorkload(
            world_size=world_size, operations_per_rank=4, hotspot_fraction=0.4
        )
        outcome = workload.run(seed=0)
        assert outcome.run.trace_summary.accesses >= world_size * 4

    def test_mesh_topology_and_loggp_latency(self):
        config = RuntimeConfig(world_size=4, topology="mesh", latency="loggp")
        runtime = DSMRuntime(config)
        runtime.declare_array("data", 8, policy=PlacementPolicy.BLOCK, initial=0)

        def program(api):
            yield from api.put("data", api.rank, index=api.rank)
            yield from api.barrier()
            total = yield from api.reduce_shared("data", 4)
            api.private.write("total", total)

        runtime.set_spmd_program(program)
        result = runtime.run()
        assert result.per_rank_private[0]["total"] == 0 + 1 + 2 + 3
        assert result.race_count == 0

    def test_larger_world_needs_larger_clocks(self):
        small = RandomAccessWorkload(world_size=2, operations_per_rank=4).run(seed=0).run
        large = RandomAccessWorkload(world_size=8, operations_per_rank=4).run(seed=0).run
        assert large.clock_storage_entries > small.clock_storage_entries
