"""A schedule that parks a rank ends, and its run names who waits on what.

ROADMAP item 1b's reproducer: the racy RPC echo under a hot fuzz.  A tie
shuffle runs client 1's first request SEND before the server has created its
shared receive queue, so the server's queue pair facing rank 1 gets a private
receive queue that nobody ever posts to.  The SEND parks on that queue's
credit gate, the client waits on its completion queue and the server on its
event channel.  The run returns, and ``RunResult.blocked`` names the three.

Whatever the schedule, the report names exactly the processes still alive
when the calendar ran dry, each with the event it waits on: across every
corpus pattern under a hot fuzz, and for a rank stuck at a barrier or on a
receive nobody sends to.
"""

import pytest

from repro.explore.controller import ScheduleController
from repro.explore.fuzzer import ScheduleFuzzer
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.workloads import RPCEchoWorkload, pattern_corpus
from repro.workloads.racy_patterns import rmw_pattern_corpus

PARKED = {
    ("qp-P1->P0", "credit-wait:op-P1-0"),
    ("rank-0", "comp-channel-P0:wait"),
    ("rank-1", "cq-P1:wait"),
}


def _hot(runtime, fuzz_seed):
    runtime.sim.install_controller(ScheduleController(ScheduleFuzzer(
        seed=fuzz_seed, reorder_probability=0.8, tie_shuffle_probability=0.6
    )))
    return runtime


def _run(fuzz_seed):
    return _hot(RPCEchoWorkload(racy_buffer_reuse=True).build(0), fuzz_seed).run()


def _assert_report_names_the_living(runtime, result):
    alive = [process.name for process in runtime.sim.processes if process.is_alive]
    assert [name for name, _ in result.blocked] == alive
    assert all(event is not None for _, event in result.blocked)


@pytest.mark.parametrize("fuzz_seed", [3, 11, 16])
def test_a_parked_send_is_named_when_the_run_ends(fuzz_seed):
    assert set(_run(fuzz_seed).blocked) == PARKED


def test_a_schedule_that_finishes_reports_nobody():
    assert _run(0).blocked == ()


@pytest.mark.parametrize(
    "pattern", pattern_corpus() + rmw_pattern_corpus(), ids=lambda p: p.name
)
def test_a_hot_schedule_of_a_corpus_pattern_reports_the_living(pattern):
    runtime = _hot(pattern.build(0), 5)
    _assert_report_names_the_living(runtime, runtime.run())


def _two_ranks(program_0, program_1):
    runtime = DSMRuntime(RuntimeConfig(world_size=2, latency="constant"))
    runtime.declare_array("inbox", 1, owner=1, initial=0)
    runtime.set_program(0, program_0)
    runtime.set_program(1, program_1)
    return runtime


def _leaves(api):
    yield from api.compute(1.0)


def test_a_rank_alone_at_a_barrier_is_named():
    def waits(api):
        yield from api.barrier()

    assert _two_ranks(waits, _leaves).run().blocked == (
        ("rank-0", "barrier-release-g0-P0"),
    )


def test_a_receive_nobody_sends_to_is_named():
    def receives(api):
        api.irecv(0, "inbox", index=0)
        yield from api.wait_recv(1)

    assert _two_ranks(_leaves, receives).run().blocked == (("rank-1", "recv-cq-P1:wait"),)
