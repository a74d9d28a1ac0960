"""Unit tests for the process API, barriers and collectives."""

import pytest

from repro.memory.directory import PlacementPolicy
from repro.runtime.collectives import broadcast_via_puts, one_sided_reduction
from repro.runtime.program import ProcessProgram, replicate_program
from repro.runtime.runtime import DSMRuntime, RuntimeConfig


def idle(api):
    yield from api.compute(0.0)


class TestProcessAPI:
    def test_address_resolution_helpers(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=3))
        runtime.declare_scalar("x", owner=2)
        api = runtime.api(0)
        assert api.owner_of("x") == 2
        assert api.address_of("x").rank == 2
        assert api.world_size == 3

    def test_put_get_by_explicit_address(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        runtime.declare_scalar("x", owner=1, initial=0)
        address = runtime.directory.resolve("x")

        def program(api):
            yield from api.put_address(address, 123, symbol="x")
            value = yield from api.get_address(address, symbol="x")
            api.private.write("value", value)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        result = runtime.run()
        assert result.per_rank_private[0]["value"] == 123

    def test_copy_shared_moves_data_between_public_areas(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=3))
        runtime.declare_scalar("src", owner=1, initial="payload")
        runtime.declare_scalar("dst", owner=2, initial=None)

        def copier(api):
            yield from api.copy_shared("src", 0, "dst", 0)

        runtime.set_program(0, copier)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        assert result.shared_value("dst") == "payload"

    def test_completed_operations_accumulate_in_the_trace(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        runtime.declare_scalar("x", owner=1, initial=0)
        returned = []

        def program(api):
            returned.append((yield from api.put("x", 1)))
            returned.append((yield from api.get_result("x")))

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.run()
        records = runtime.recorder.operations()
        assert [r.operation for r in records] == ["put", "get"]
        assert all(r.origin == 0 and r.elapsed > 0 for r in records)
        # The record is the caller's result, minus the value and the check.
        assert [(r.start_time, r.end_time, r.data_messages) for r in records] == [
            (r.start_time, r.end_time, r.data_messages) for r in returned
        ]

    def test_get_result_returns_full_record(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        runtime.declare_scalar("x", owner=1, initial=7)

        def program(api):
            record = yield from api.get_result("x")
            api.private.write("messages", record.data_messages)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        result = runtime.run()
        assert result.per_rank_private[0]["messages"] == 2

    def test_compute_rejects_negative(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))

        def program(api):
            yield from api.compute(-1.0)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        with pytest.raises(Exception):
            runtime.run()

    def test_log_records_to_sim_logger(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))

        def program(api):
            api.log("hello from the program")
            yield from api.compute(0.0)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.run()
        assert any("hello" in r.message for r in runtime.logger.records("app"))


class TestBarrier:
    def test_barrier_synchronizes_times(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=3))
        arrivals = {}

        def program(api):
            yield from api.compute(float(api.rank) * 5.0)
            yield from api.barrier()
            arrivals[api.rank] = api.now

        runtime.set_spmd_program(program)
        runtime.run()
        # Nobody leaves the barrier before the slowest arrival (t = 10).
        assert all(time >= 10.0 for time in arrivals.values())
        assert runtime.barrier.crossings == 1

    def test_barrier_is_reusable_across_generations(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        crossings = []

        def program(api):
            for _ in range(3):
                generation = yield from api.barrier()
                crossings.append((api.rank, generation))

        runtime.set_spmd_program(program)
        runtime.run()
        assert runtime.barrier.crossings == 3
        generations = sorted({generation for _rank, generation in crossings})
        assert generations == [0, 1, 2]

    def test_barrier_orders_conflicting_accesses(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        runtime.declare_scalar("x", owner=0, initial=0)

        def writer(api):
            yield from api.put("x", 1)
            yield from api.barrier()

        def reader(api):
            yield from api.barrier()
            value = yield from api.get("x")
            api.private.write("value", value)

        runtime.set_program(0, writer)
        runtime.set_program(1, reader)
        result = runtime.run()
        assert result.race_count == 0
        assert result.per_rank_private[1]["value"] == 1

    def test_single_rank_barrier_is_trivial(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=1))

        def program(api):
            yield from api.barrier()
            yield from api.barrier()

        runtime.set_program(0, program)
        runtime.run()
        assert runtime.barrier.crossings == 2


class TestCollectives:
    def test_one_sided_reduction_sums_contributions(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=4))
        runtime.declare_array("vals", 4, policy=PlacementPolicy.BLOCK, initial=0)

        def program(api):
            yield from api.put("vals", api.rank + 1, index=api.rank)
            yield from api.barrier()
            if api.rank == 0:
                total = yield from api.reduce_shared("vals", 4)
                api.private.write("total", total)

        runtime.set_spmd_program(program)
        result = runtime.run()
        assert result.per_rank_private[0]["total"] == 10
        assert result.race_count == 0

    def test_broadcast_via_puts(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=3))
        runtime.declare_array("slots", 3, policy=PlacementPolicy.ROUND_ROBIN, initial=None)

        def program(api):
            yield from broadcast_via_puts(api, "slots", "announcement")
            yield from api.barrier()
            value = yield from api.get("slots", index=api.rank)
            api.private.write("received", value)

        runtime.set_spmd_program(program)
        result = runtime.run()
        for rank in range(3):
            assert result.per_rank_private[rank]["received"] == "announcement"

    def test_reduction_requires_positive_length(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        api = runtime.api(0)
        with pytest.raises(ValueError):
            list(one_sided_reduction(api, "x", 0, lambda a, b: a + b))


class TestProgramDescriptors:
    def test_replicate_program_builds_one_per_rank(self):
        programs = replicate_program(idle, 3)
        assert [p.rank for p in programs] == [0, 1, 2]
        assert all(p.display_name == f"rank-{p.rank}" for p in programs)

    def test_replicate_rejects_bad_world_size(self):
        with pytest.raises(ValueError):
            replicate_program(idle, 0)

    def test_kwargs_are_passed_to_the_function(self):
        seen = {}

        def program(api, tag=None):
            seen[api] = tag
            yield from api.compute(0.0)

        descriptor = ProcessProgram(rank=0, function=program, kwargs=(("tag", "hello"),))
        generator = descriptor.launch(api="fake-api")
        assert generator is not None
