"""One-sided atomics: NIC semantics, message decomposition, detector rules."""

import pytest

from repro.core.detector import DetectorConfig
from repro.detectors.postmortem import PostMortemDualClockDetector
from repro.memory.consistency import AccessKind
from repro.net.message import MessageKind
from repro.runtime.runtime import DSMRuntime, RuntimeConfig


def idle(api):
    yield from api.compute(0.0)


def build(world_size=3, **overrides):
    runtime = DSMRuntime(RuntimeConfig(world_size=world_size, **overrides))
    runtime.declare_scalar("x", owner=1, initial=0)
    return runtime


class TestAtomicSemantics:
    def test_fetch_add_returns_old_and_deposits_new(self):
        runtime = build()
        old_values = []

        def program(api):
            old_values.append((yield from api.fetch_add("x", 5)))
            old_values.append((yield from api.fetch_add("x", 2)))

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        assert old_values == [0, 5]
        assert result.shared_value("x") == 7

    def test_fetch_add_treats_uninitialized_cell_as_zero(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        runtime.declare_scalar("fresh", owner=1)  # no initial value

        def program(api):
            old = yield from api.fetch_add("fresh", 3)
            api.private.write("old", old)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        result = runtime.run()
        assert result.per_rank_private[0]["old"] == 0
        assert result.shared_value("fresh") == 3

    def test_compare_and_swap_success_and_failure(self):
        runtime = build()
        observed = []

        def program(api):
            observed.append((yield from api.compare_and_swap("x", 0, 10)))  # succeeds
            observed.append((yield from api.compare_and_swap("x", 0, 99)))  # fails
            observed.append((yield from api.compare_and_swap("x", 10, 20)))  # succeeds

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        assert observed == [0, 10, 10]
        assert result.shared_value("x") == 20

    def test_concurrent_fetch_adds_never_lose_updates(self):
        for seed in range(4):
            runtime = build(seed=seed, latency="uniform")

            def bump(api):
                for _ in range(3):
                    yield from api.fetch_add("x", 1)

            runtime.set_spmd_program(bump)
            result = runtime.run()
            assert result.shared_value("x") == 9, f"lost updates with seed {seed}"

    def test_consistency_checker_accepts_atomic_history(self):
        runtime = build(latency="uniform")

        def bump(api):
            for _ in range(2):
                yield from api.fetch_add("x", 1)

        runtime.set_spmd_program(bump)
        runtime.run()
        assert runtime.consistency_check() == []


class TestMessageDecomposition:
    def test_remote_atomic_is_request_plus_reply(self):
        runtime = build()

        def program(api):
            yield from api.fetch_add("x", 1)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        runtime.run()
        assert runtime.fabric.message_count(MessageKind.ATOMIC_REQUEST) == 1
        assert runtime.fabric.message_count(MessageKind.ATOMIC_REPLY) == 1

    def test_atomic_messages_count_as_data_traffic(self):
        runtime = build()

        def program(api):
            yield from api.compare_and_swap("x", 0, 1)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        assert result.fabric_stats.data_messages == 2

    def test_local_atomic_crosses_no_wire(self):
        runtime = build()

        def owner_program(api):
            yield from api.fetch_add("x", 1)  # rank 1 owns x

        runtime.set_program(1, owner_program)
        runtime.set_program(0, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        assert result.fabric_stats.data_messages == 0
        assert result.shared_value("x") == 1

    def test_atomic_serializes_under_the_nic_lock(self):
        runtime = build()
        runtime.sim.obs.configure(trace_spans=True)
        held_during = []

        def program(api):
            request = api.ifetch_add("x", 1)
            yield from api.compute(2.5)  # in flight: the owner's NIC holds the lock
            holder = runtime.lock_tables[1].holder(api.address_of("x"))
            held_during.append((holder.requester, holder.purpose))
            yield from api.wait(request)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        runtime.run()
        assert held_during == [(0, "fetch_add")]
        lock_waits = [
            event["args"]
            for event in runtime.sim.obs.spans.events()
            if event.get("name") == "lock_wait"
        ]
        assert lock_waits == [
            {"address": "P1[0]", "requester": "P0", "purpose": "fetch_add"}
        ]
        assert runtime.sim.obs.metrics.counter("memory.lock_requests", rank=1).value == 1


class TestTraceRecords:
    def test_rmw_access_records_value_and_observed(self):
        runtime = build()

        def program(api):
            yield from api.fetch_add("x", 5)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        runtime.run()
        rmws = runtime.recorder.accesses(kind=AccessKind.RMW)
        assert len(rmws) == 1
        access = rmws[0]
        assert access.observed == 0 and access.value == 5
        assert access.operation == "fetch_add"
        assert access.kind.is_write and access.kind.is_read

    def test_summary_counts_atomics(self):
        runtime = build()

        def program(api):
            yield from api.fetch_add("x", 1)
            yield from api.compare_and_swap("x", 1, 2)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        assert result.trace_summary.atomics == 2
        assert result.trace_summary.rmws == 2


class TestDetectorRules:
    @staticmethod
    def two_rank_conflict(first, second, detector_config=None, seed=0):
        """Rank 0 and rank 2 each run one op against x (owned by rank 1)."""
        config = RuntimeConfig(
            world_size=3,
            seed=seed,
            detector=detector_config or DetectorConfig(),
        )
        runtime = DSMRuntime(config)
        runtime.declare_scalar("x", owner=1, initial=0)

        def make(op):
            def program(api):
                if op == "put":
                    yield from api.put("x", 77)
                elif op == "get":
                    yield from api.get("x")
                elif op == "fetch_add":
                    yield from api.fetch_add("x", 1)
                else:
                    yield from api.compare_and_swap("x", 0, 1)
            return program

        runtime.set_program(0, make(first))
        runtime.set_program(2, make(second))
        runtime.set_program(1, idle)
        return runtime.run()

    def test_unordered_rmw_pair_is_flagged_by_default(self):
        result = self.two_rank_conflict("fetch_add", "fetch_add")
        assert result.race_count >= 1
        kinds = {record.current_kind for record in result.race_records()}
        assert AccessKind.RMW in kinds

    def test_rmw_pairs_silenced_by_hardware_ordering_knob(self):
        result = self.two_rank_conflict(
            "fetch_add",
            "compare_and_swap",
            DetectorConfig(treat_rmw_pairs_as_ordered=True),
        )
        assert result.race_count == 0

    def test_rmw_vs_plain_write_flagged_even_with_knob(self):
        result = self.two_rank_conflict(
            "put", "fetch_add", DetectorConfig(treat_rmw_pairs_as_ordered=True)
        )
        assert result.race_count >= 1

    def test_rmw_vs_plain_read_flagged_even_with_knob(self):
        result = self.two_rank_conflict(
            "get", "fetch_add", DetectorConfig(treat_rmw_pairs_as_ordered=True)
        )
        assert result.race_count >= 1

    def test_barrier_orders_rmw_pairs(self):
        runtime = build()

        def first(api):
            yield from api.fetch_add("x", 1)
            yield from api.barrier()

        def second(api):
            yield from api.barrier()
            yield from api.fetch_add("x", 1)

        runtime.set_program(0, first)
        runtime.set_program(2, second)

        def owner(api):
            yield from api.barrier()

        runtime.set_program(1, owner)
        result = runtime.run()
        assert result.race_count == 0

    def test_same_origin_consecutive_rmws_never_race(self):
        runtime = build()

        def program(api):
            for _ in range(4):
                yield from api.fetch_add("x", 1)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        assert result.race_count == 0

    @pytest.mark.parametrize("knob", [False, True])
    def test_offline_replay_agrees_with_online_detection(self, knob):
        from repro.workloads import LockFreeCounterWorkload

        detector_config = DetectorConfig(treat_rmw_pairs_as_ordered=knob)
        workload = LockFreeCounterWorkload(
            world_size=3,
            increments=2,
            config=RuntimeConfig(detector=detector_config),
        )
        outcome = workload.run(seed=0)
        offline = PostMortemDualClockDetector(detector_config).detect(
            outcome.runtime.recorder.accesses(),
            world_size=3,
            syncs=outcome.runtime.recorder.syncs(),
        )
        assert (outcome.run.race_count > 0) == (offline.count() > 0)
        assert offline.flagged_symbols() == {
            record.symbol for record in outcome.run.race_records()
        }
