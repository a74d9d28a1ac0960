"""Queue pairs, contexts and the nonblocking ProcessAPI surface."""

import pytest

from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.sim.events import SimulationError
from repro.verbs.completion_queue import CompletionQueueOverflow
from repro.verbs.memory_registration import RemoteAccessError
from repro.verbs.queue_pair import SendQueueFull
from repro.verbs.work import CompletionStatus, Opcode


def build_runtime(world_size=3, **overrides):
    runtime = DSMRuntime(RuntimeConfig(world_size=world_size, **overrides))
    runtime.declare_array("data", 8, owner=1, initial=0)
    runtime.declare_scalar("counter", owner=1, initial=0)
    return runtime


def idle(api):
    yield from api.compute(0.0)


class TestPostingAndWaiting:
    def test_iput_returns_immediately_and_completes(self):
        runtime = build_runtime()
        seen = {}

        def writer(api):
            request = api.iput("data", 42, index=3)  # no yield: posting is immediate
            assert api.verbs.outstanding_count == 1
            completions = yield from api.wait(request)
            seen["wc"] = completions[0]
            assert api.verbs.outstanding_count == 0

        runtime.set_program(0, writer)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        assert result.shared_value("data", 3) == 42
        wc = seen["wc"]
        assert wc.ok and wc.opcode is Opcode.PUT
        assert wc.completed_at > wc.posted_at

    def test_iget_and_atomic_posts_carry_values(self):
        runtime = build_runtime()
        out = {}

        def program(api):
            yield from api.put("data", 7, index=0)
            got = api.iget("data", index=0)
            fadd = api.ifetch_add("counter", 5)
            (got_wc,) = yield from api.wait(got)
            (fadd_wc,) = yield from api.wait(fadd)
            cas = api.icompare_and_swap("counter", 5, 99)
            (cas_wc,) = yield from api.wait(cas)
            out.update(got=got_wc.value, fadd_old=fadd_wc.value, cas_old=cas_wc.value)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        assert out == {"got": 7, "fadd_old": 0, "cas_old": 5}
        assert result.shared_value("counter") == 99

    def test_wait_all_retires_everything_in_posting_order(self):
        runtime = build_runtime()
        orders = {}

        def program(api):
            requests = [api.iput("data", i, index=i) for i in range(4)]
            completions = yield from api.wait_all()
            orders["wr"] = [r.wr_id for r in requests]
            orders["wc"] = [wc.wr_id for wc in completions]

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        assert orders["wc"] == orders["wr"]
        assert result.final_shared_values["data"][:4] == [0, 1, 2, 3]

    def test_same_queue_pair_preserves_program_order(self):
        runtime = build_runtime()

        def program(api):
            api.iput("data", "first", index=0)
            api.iput("data", "second", index=0)
            yield from api.wait_all()

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        # In-order execution on one QP: the later post wins.
        assert result.shared_value("data", 0) == "second"

    def test_poll_completions_is_nonblocking(self):
        runtime = build_runtime()
        polled = {}

        def program(api):
            api.iput("data", 1, index=0)
            assert api.poll_completions() == []  # nothing serviced yet at t=0
            yield from api.compute(50.0)
            polled["late"] = api.poll_completions()

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        runtime.run()
        assert len(polled["late"]) == 1 and polled["late"][0].ok


class TestOverlap:
    def test_posted_puts_to_distinct_peers_overlap(self):
        """Two posted puts to different peers take about one put's time."""

        def run(blocking):
            runtime = DSMRuntime(RuntimeConfig(world_size=3, latency="constant"))
            runtime.declare_scalar("a", owner=1, initial=0)
            runtime.declare_scalar("b", owner=2, initial=0)
            elapsed = {}

            def origin(api):
                start = api.now
                if blocking:
                    yield from api.put("a", 1)
                    yield from api.put("b", 2)
                else:
                    api.iput("a", 1)
                    api.iput("b", 2)
                    yield from api.wait_all()
                elapsed["t"] = api.now - start

            runtime.set_program(0, origin)
            runtime.set_program(1, idle)
            runtime.set_program(2, idle)
            runtime.run()
            return elapsed["t"]

        assert run(blocking=False) < run(blocking=True)

    def test_computation_hides_posted_communication(self):
        runtime = build_runtime(latency="constant")
        times = {}

        def program(api):
            request = api.iput("data", 1, index=0)
            yield from api.compute(100.0)  # far longer than the put
            start = api.now
            yield from api.wait(request)
            times["wait"] = api.now - start

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        runtime.run()
        # The put completed during the compute: the wait is (nearly) free.
        assert times["wait"] == pytest.approx(0.0, abs=1e-9)


class TestErrors:
    def test_bad_rkey_yields_remote_access_error_completion(self):
        runtime = build_runtime()
        outcome = {}

        def program(api):
            address = api.address_of("data", 0)
            request = api.verbs.post_put(address, 1, rkey=0xBAD, symbol="data")
            (wc,) = yield from api.wait(request, raise_on_error=False)
            outcome["status"] = wc.status
            outcome["detail"] = wc.detail

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        assert outcome["status"] is CompletionStatus.REMOTE_ACCESS_ERROR
        assert "not registered" in outcome["detail"]
        # Protection fault: the memory was never touched.
        assert result.shared_value("data", 0) == 0

    def test_wait_raises_on_failed_completion_by_default(self):
        runtime = build_runtime()

        def program(api):
            address = api.address_of("data", 0)
            request = api.verbs.post_put(address, 1, rkey=0xBAD, symbol="data")
            yield from api.wait(request)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        with pytest.raises(SimulationError) as excinfo:
            runtime.run()
        assert isinstance(excinfo.value.__cause__, RemoteAccessError)

    def test_send_queue_full(self):
        runtime = build_runtime(verbs_max_send_wr=2)

        def program(api):
            api.iput("data", 1, index=0)
            api.iput("data", 2, index=1)
            with pytest.raises(SendQueueFull):
                api.iput("data", 3, index=2)
            # The rejected post must leave no phantom entry behind: only the
            # two accepted requests are outstanding, and wait_all() returns.
            assert api.verbs.outstanding_count == 2
            completions = yield from api.wait_all()
            assert len(completions) == 2

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        runtime.run()
        assert runtime.sim.all_finished()

    def test_waiting_on_duplicate_handles_returns_the_completion_twice(self):
        runtime = build_runtime()

        def program(api):
            request = api.iput("data", 1, index=0)
            first, second = yield from api.wait(request, request)
            assert first is second and first.ok

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        runtime.run()
        assert runtime.sim.all_finished()

    def test_failed_sibling_does_not_lose_successful_results(self):
        runtime = build_runtime()
        observed = {}

        def program(api):
            good = api.iput("data", 7, index=0)
            bad = api.verbs.post_put(api.address_of("data", 1), 8, rkey=0xBAD,
                                     symbol="data")
            before = len(runtime.recorder.operations())
            with pytest.raises(RemoteAccessError):
                yield from api.wait(good, bad)
            observed["recorded"] = len(runtime.recorder.operations()) - before

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        assert observed["recorded"] == 1  # the successful put was recorded
        assert result.shared_value("data", 0) == 7

    def test_bounded_completion_queue_overflows_when_not_retired(self):
        runtime = build_runtime(verbs_cq_capacity=1)

        def program(api):
            for index in range(3):
                api.iput("data", index, index=index)
            yield from api.compute(100.0)  # never retires: CQ fills up
            yield from api.wait_all()

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        with pytest.raises(SimulationError) as excinfo:
            runtime.run()
        assert isinstance(excinfo.value.__cause__, CompletionQueueOverflow)

    def test_waiting_twice_on_a_claimed_request_raises_instead_of_hanging(self):
        runtime = build_runtime()

        def program(api):
            request = api.iput("data", 1, index=0)
            yield from api.wait(request)
            with pytest.raises(ValueError, match="already claimed"):
                yield from api.wait(request)

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        runtime.run()
        assert runtime.sim.all_finished()

    def test_runtime_without_verbs_rejects_posting(self):
        from repro.runtime.api import ProcessAPI
        from repro.memory.private import PrivateMemory

        runtime = build_runtime()
        api = ProcessAPI(
            0,
            runtime.sim,
            runtime.nics[0],
            runtime.directory,
            PrivateMemory(0),
        )
        with pytest.raises(RuntimeError, match="verbs"):
            api.iput("data", 1)


class TestTraceIntegration:
    def test_posted_operations_carry_posted_time(self):
        runtime = build_runtime()

        def program(api):
            api.iput("data", 1, index=0)
            yield from api.compute(10.0)
            yield from api.wait_all()

        runtime.set_program(0, program)
        runtime.set_program(1, idle)
        runtime.set_program(2, idle)
        result = runtime.run()
        posted = [op for op in runtime.recorder.operations() if op.was_posted]
        assert len(posted) == 1
        op = posted[0]
        assert op.posted_time == 0.0
        assert op.start_time >= op.posted_time
        assert result.trace_summary.posted_operations == 1

    def test_detector_sees_verbs_traffic(self):
        """A posted put races with an unordered blocking put, same as blocking."""
        runtime = build_runtime()

        def writer_a(api):
            api.iput("data", "a", index=0)
            yield from api.wait_all()

        def writer_b(api):
            yield from api.put("data", "b", index=0)

        runtime.set_program(0, writer_a)
        runtime.set_program(2, writer_b)
        runtime.set_program(1, idle)
        result = runtime.run()
        assert result.race_count >= 1
        assert {record.symbol for record in result.race_records()} == {"data"}
