"""A schedule parks a rank only when its program does, and its run says who.

The RPC echoes, racy and race-free, finish under every hot fuzz: the server's
shared receive queue is declared at build, so each of its queue pairs drains
from it from creation, and no tie shuffle can run a client's request SEND
into a private receive queue that nobody posts to.  Fuzz seeds 3, 11, 16, 28
and 29 are pinned: they parked both echoes when the server created its SRQ
from inside its program.  Tier-1 runs the property at Hypothesis' default
example count; the nightly job runs this file with
``--hypothesis-profile=nightly``.

A run that does park ends, and ``RunResult.blocked`` names exactly the
processes still alive when the calendar ran dry, each with the event it waits
on: across every corpus pattern under a hot fuzz, and for a rank stuck at a
barrier or on a receive nobody sends to.
"""

import pytest
from hypothesis import example, given, strategies as st

from repro.explore.controller import ScheduleController
from repro.explore.fuzzer import ScheduleFuzzer
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.workloads import RPCEchoWorkload, pattern_corpus
from repro.workloads.racy_patterns import rmw_pattern_corpus


def _hot(runtime, fuzz_seed):
    runtime.sim.install_controller(ScheduleController(ScheduleFuzzer(
        seed=fuzz_seed, reorder_probability=0.8, tie_shuffle_probability=0.6
    )))
    return runtime


def _assert_report_names_the_living(runtime, result):
    alive = [process.name for process in runtime.sim.processes if process.is_alive]
    assert [name for name, _ in result.blocked] == alive
    assert all(event is not None for _, event in result.blocked)


@given(fuzz_seed=st.integers(min_value=0, max_value=2**32 - 1), racy=st.booleans())
@example(fuzz_seed=3, racy=False)
@example(fuzz_seed=3, racy=True)
@example(fuzz_seed=11, racy=False)
@example(fuzz_seed=11, racy=True)
@example(fuzz_seed=16, racy=False)
@example(fuzz_seed=16, racy=True)
@example(fuzz_seed=28, racy=False)
@example(fuzz_seed=28, racy=True)
@example(fuzz_seed=29, racy=False)
@example(fuzz_seed=29, racy=True)
def test_an_rpc_echo_finishes_under_a_hot_fuzz(fuzz_seed, racy):
    runtime = _hot(RPCEchoWorkload(racy_buffer_reuse=racy).build(0), fuzz_seed)
    assert runtime.run().blocked == ()


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
