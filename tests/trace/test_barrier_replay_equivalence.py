"""Online detection and post-mortem replay agree on barrier programs.

Each drawn program gives every rank the same number of barrier phases; in a
phase a rank makes a few puts and gets, on cells it owns (local accesses) or
on other ranks' cells (remote ones).  The program runs under the default
schedule and under two fuzzed ones, and each run's race records must equal,
field for field, those :class:`TraceReplayer` derives from the run's own
trace.

The pinned example is the case where a rank released early by the barrier
root ran on and re-arrived before a slower waiter's release landed: its
post-barrier clock leaked into that waiter's release, so the online run
missed a race the replay reported.

Tier-1 uses Hypothesis' default profile; the nightly job passes
``--hypothesis-profile=nightly`` (``tests/conftest.py``) for 500 examples.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro import DSMRuntime, RuntimeConfig
from repro.explore.controller import ScheduleController
from repro.explore.fuzzer import ScheduleFuzzer
from repro.trace.replay import TraceReplayer

@st.composite
def barrier_programs(draw):
    """``(world_size, phases)``: ``phases[p][rank]`` lists that rank's
    ``(is_put, cell)`` operations; cell ``c`` is owned by rank ``c``."""
    world_size = draw(st.integers(min_value=2, max_value=4))
    operation = st.tuples(st.booleans(), st.integers(min_value=0, max_value=world_size - 1))
    phase = st.lists(
        st.lists(operation, max_size=3), min_size=world_size, max_size=world_size
    )
    return world_size, draw(st.lists(phase, min_size=1, max_size=3))


def _run(world_size, phases, fuzz_seed):
    runtime = DSMRuntime(RuntimeConfig(world_size=world_size, seed=0))
    for rank in range(world_size):
        runtime.declare_scalar(f"c{rank}", owner=rank, initial=0)

    def program(api):
        for phase in phases:
            yield from api.barrier()
            for is_put, cell in phase[api.rank]:
                if is_put:
                    yield from api.put(f"c{cell}", api.rank)
                else:
                    yield from api.get(f"c{cell}")
        yield from api.barrier()

    runtime.set_spmd_program(program)
    if fuzz_seed is not None:
        runtime.sim.install_controller(ScheduleController(ScheduleFuzzer(seed=fuzz_seed)))
    result = runtime.run()
    assert runtime.sim.all_finished()
    recorder = runtime.recorder
    replayed = TraceReplayer(world_size).replay(recorder.accesses(), recorder.syncs())
    return result.races.records(), replayed.races


@settings(deadline=None)
@given(barrier_programs(), st.integers(min_value=0, max_value=2**16))
@example((2, [[[(True, 0)], [(True, 0)]]]), 0)
def test_online_races_equal_replayed_races(program, fuzz_seed):
    world_size, phases = program
    for seed in (None, fuzz_seed, fuzz_seed + 1):
        online, offline = _run(world_size, phases, seed)
        assert online == offline, f"schedule {'default' if seed is None else seed}"
