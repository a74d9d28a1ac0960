"""The verbs loopback blind spot, pinned as executable documentation.

A posted operation on the poster's OWN public memory (origin == owner) keeps
the one remaining same-origin false-negative class: the same-origin fix of
the clock-transport refactor rests on the *owner's* reception tick being
knowledge the unwaited poster cannot have — but in loopback the poster IS
the owner, one clock identity, so there is no tick to be missing and the
pair often looks ordered.  Ground truth disagrees: whether the NIC engine's
loopback write or the program's next access goes first is a genuine
scheduling choice, observably flipping the value read.

Closing it needs a separate clock component for each rank's queue-pair
engine (``world_size + n`` entries) — the loopback clock identity gap,
ROADMAP item 2a.  Until then
this test is ``xfail(strict=True)``: the day the detector flags loopback
races in every schedule, it XPASSes loudly and must be promoted to a real
acceptance test.
"""

import pytest

from repro.explore import Explorer
from repro.explore.runner import MATRIX_CLOCK
from repro.runtime.runtime import DSMRuntime, RuntimeConfig

BUDGET = 10


def make_factory(waited):
    """Rank 0 posts a put to its OWN cell, then reads it back.

    With ``waited=False`` nothing orders the NIC engine's loopback write
    against the read — the value observed is schedule-dependent; with
    ``waited=True`` retirement orders the pair.
    """

    def factory(seed):
        runtime = DSMRuntime(
            RuntimeConfig(world_size=2, seed=seed, latency="uniform")
        )
        runtime.declare_scalar("x", owner=0, initial=0)

        def rank0(api):
            request = api.iput("x", 5)  # origin == owner: verbs loopback
            if waited:
                yield from api.wait(request)
            else:
                # Yield once so the queue-pair drain and the program race
                # for the cell, exactly as in the remote-target twin test.
                yield from api.compute(0.0)
            value = yield from api.get("x")
            api.private.write("seen", value)
            yield from api.wait_all()

        def idle(api):
            yield from api.compute(0.0)

        runtime.set_program(0, rank0)
        runtime.set_program(1, idle)
        return runtime

    return factory


def explore(waited, detector_epochs="on"):
    return Explorer(
        make_factory(waited),
        seed=0,
        configure=lambda runtime: runtime.set_knob("detector_epochs", detector_epochs),
    ).explore_fuzzed(BUDGET, quantum=2.0, tie_shuffle_probability=0.6)


def test_ground_truth_the_loopback_race_is_real():
    """The blind spot is not hypothetical: the unwaited loopback scenario
    observably diverges across explored schedules."""
    assert "x" in explore(waited=False).ground_truth_racy_symbols()


# Both epoch modes: the fast path is an exact shortcut, so it must neither
# open the blind spot wider (flag fraction rising would XPASS strictly and
# fail loudly) nor pretend to close it.
@pytest.mark.parametrize("detector_epochs", ["on", "off"])
@pytest.mark.xfail(
    strict=True,
    reason="verbs loopback blind spot (origin == owner): the poster and the "
    "owner share one clock identity, so the every-schedule guarantee does "
    "not yet cover posted operations on the poster's own memory — needs a "
    "clock component per queue-pair engine (the loopback clock identity gap, "
    "ROADMAP item 2a); holds in "
    "both detector_epochs modes, the fast path cannot change it",
)
def test_unwaited_loopback_post_flagged_in_every_schedule(detector_epochs):
    result = explore(waited=False, detector_epochs=detector_epochs)
    assert "x" in result.ground_truth_racy_symbols()
    assert result.flag_fraction(MATRIX_CLOCK, "x") == 1.0


@pytest.mark.parametrize("detector_epochs", ["on", "off"])
def test_waited_loopback_post_is_silent_in_every_schedule(detector_epochs):
    """The sound half works today: a properly waited loopback post never
    races, in any schedule — whatever closes the blind spot must keep this
    at zero false positives."""
    result = explore(waited=True, detector_epochs=detector_epochs)
    assert "x" not in result.ground_truth_racy_symbols()
    assert result.flag_fraction(MATRIX_CLOCK, "x") == 0.0
