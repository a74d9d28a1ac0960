"""Controller ownership of the adaptive control plane's choice points.

The runtime control plane's adaptive mechanism, credit-based flow control,
and the barrier fan-out order are choice points too.  Each decision (credit
grant timing, release pick) routes through the schedule controller as a
logged, replayable, fuzzable, systematically branchable decision point,
exactly as delivery latencies already do.
"""

from repro.explore.controller import (
    PassthroughStrategy,
    ReplayStrategy,
    ScheduleController,
)
from repro.explore.decisions import DECISION_KINDS
from repro.explore.fuzzer import ScheduleFuzzer
from repro.explore.runner import run_schedule
from repro.explore.systematic import SystematicStrategy
from repro.runtime.runtime import DSMRuntime, RuntimeConfig


def decisions_of(log, kind):
    return [d for d in log.entries if d is not None and d.kind == kind]


def credit_factory(seed):
    """SENDs that must stall for credits: the receiver posts buffers late."""
    runtime = DSMRuntime(
        RuntimeConfig(
            world_size=2,
            seed=seed,
            latency="constant",
        )
    )
    runtime.declare_array("inbox", 4, owner=1, initial=0)

    def sender(api):
        first = api.isend(1, [7, 8], symbol="inbox")
        second = api.isend(1, [9, 10], symbol="inbox")
        yield from api.wait(first, second)

    def late_receiver(api):
        yield from api.compute(6.0)
        api.irecv(source=0, symbol="inbox", indices=range(2))
        yield from api.compute(3.0)
        api.irecv(source=0, symbol="inbox", indices=range(2, 4))
        yield from api.wait_recv(2)

    runtime.set_program(0, sender)
    runtime.set_program(1, late_receiver)
    return runtime


def barrier_factory(seed):
    """Three ranks crossing two barriers: fan-out order is a choice point."""
    runtime = DSMRuntime(RuntimeConfig(world_size=3, seed=seed, latency="constant"))
    runtime.declare_array("cells", 3, initial=0)

    def program(api):
        yield from api.put("cells", api.rank + 1, index=api.rank)
        yield from api.barrier()
        yield from api.get("cells", index=(api.rank + 1) % 3)
        yield from api.barrier()

    runtime.set_spmd_program(program)
    return runtime


class TestDecisionKinds:
    def test_the_registered_kinds(self):
        assert DECISION_KINDS == ("latency", "tie", "credit", "barrier", "drop")


class TestCreditDecisions:
    def test_passthrough_logs_every_grant(self):
        outcome = run_schedule(credit_factory, 0, PassthroughStrategy())
        grants = decisions_of(outcome.decisions, "credit")
        assert grants, "a stalled credit-mode send must produce credit decisions"
        assert all(d.choice == 0.0 for d in grants)
        assert all(d.key.startswith("credit:1->0#") for d in grants)
        assert outcome.final_values["inbox"] == (7, 8, 9, 10)

    def test_recorded_log_replays_byte_identically(self):
        baseline = run_schedule(credit_factory, 0, PassthroughStrategy())
        replayed = run_schedule(
            credit_factory, 0, ReplayStrategy(baseline.decisions)
        )
        assert replayed.fingerprint == baseline.fingerprint
        assert replayed.decisions == baseline.decisions

    def test_fuzzer_stretches_grants_deterministically(self):
        def fuzzed():
            return run_schedule(
                credit_factory,
                0,
                ScheduleFuzzer(seed=11, reorder_probability=1.0, quantum=1.0),
            )

        first, second = fuzzed(), fuzzed()
        stretched = [
            d for d in decisions_of(first.decisions, "credit") if d.choice > 0.0
        ]
        assert stretched, "a p=1.0 fuzzer must delay at least one grant"
        assert first.decisions == second.decisions
        assert first.final_values["inbox"] == (7, 8, 9, 10)

    def test_fuzzed_grant_replays_from_the_log_alone(self):
        fuzzed = run_schedule(
            credit_factory,
            0,
            ScheduleFuzzer(seed=11, reorder_probability=1.0, quantum=1.0),
        )
        replayed = run_schedule(
            credit_factory, 0, ReplayStrategy(fuzzed.decisions)
        )
        assert replayed.fingerprint == fuzzed.fingerprint
        assert replayed.elapsed_sim_time == fuzzed.elapsed_sim_time

    def test_systematic_branches_on_grant_timing(self):
        strategy = SystematicStrategy({}, branch_factor=2, max_branch_points=32)
        run_schedule(credit_factory, 0, strategy)
        assert any(k.startswith("credit:") for k in strategy.branch_points)


class TestBarrierDecisions:
    def test_passthrough_logs_fanout_picks_in_arrival_order(self):
        outcome = run_schedule(barrier_factory, 0, PassthroughStrategy())
        picks = decisions_of(outcome.decisions, "barrier")
        # Two crossings, three ranks: the controller picks while >1 remain,
        # so each crossing logs world_size - 1 decisions.
        assert len(picks) == 4
        assert all(d.choice == 0 for d in picks), (
            "passthrough must release in arrival order"
        )
        assert all(d.key.startswith("barrier:g") for d in picks)

    def test_recorded_log_replays_byte_identically(self):
        baseline = run_schedule(barrier_factory, 0, PassthroughStrategy())
        replayed = run_schedule(
            barrier_factory, 0, ReplayStrategy(baseline.decisions)
        )
        assert replayed.fingerprint == baseline.fingerprint
        assert replayed.decisions == baseline.decisions

    def test_fuzzer_shuffles_release_order_deterministically(self):
        def fuzzed():
            return run_schedule(
                barrier_factory,
                0,
                ScheduleFuzzer(seed=3, tie_shuffle_probability=1.0),
            )

        first, second = fuzzed(), fuzzed()
        shuffled = [
            d for d in decisions_of(first.decisions, "barrier") if d.choice != 0
        ]
        assert shuffled, "a p=1.0 shuffler must reorder at least one release"
        assert first.decisions == second.decisions
        replayed = run_schedule(
            barrier_factory, 0, ReplayStrategy(first.decisions)
        )
        assert replayed.fingerprint == first.fingerprint

    def test_systematic_branches_on_release_order(self):
        strategy = SystematicStrategy({}, branch_factor=2, max_branch_points=32)
        run_schedule(barrier_factory, 0, strategy)
        assert any(k.startswith("barrier:") for k in strategy.branch_points)

    def test_choices_stay_within_remaining_waiters(self):
        outcome = run_schedule(
            barrier_factory, 0, ScheduleFuzzer(seed=9, tie_shuffle_probability=1.0)
        )
        picks = decisions_of(outcome.decisions, "barrier")
        assert picks
        for pick in picks:
            assert 0 <= pick.choice < 3
