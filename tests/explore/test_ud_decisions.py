"""UD datagram fates as first-class schedule decisions.

The transport's exploration contract: every datagram's fate (deliver /
drop / duplicate) routes through the schedule controller as a ``drop``
decision, and a delivered datagram's flight as the ``latency`` decision any
message on its pair gets — logged, replayable from the log alone, fuzzable
with seed-pure rates, and systematically branchable.  And across *every*
explored drop schedule, the detector still flags the seeded race: recovery
machinery never launders a race into silence.
"""

from repro.explore.controller import (
    PassthroughStrategy,
    ReplayStrategy,
    ScheduleController,
)
from repro.explore.fuzzer import ScheduleFuzzer
from repro.explore.runner import MATRIX_CLOCK, Explorer, run_schedule
from repro.explore.systematic import SystematicStrategy
from repro.runtime.runtime import DSMRuntime, RuntimeConfig

from tests.net.test_ud_transport import sparse_wire_factory


def decisions_of(log, kind):
    return [d for d in log.entries if d is not None and d.kind == kind]


def ud_factory(seed):
    return sparse_wire_factory(seed)


class TestPassthrough:
    def test_every_datagram_logs_a_fate_and_a_delay(self):
        outcome = run_schedule(ud_factory, 0, PassthroughStrategy())
        entries = outcome.decisions.entries
        fates = [i for i, d in enumerate(entries) if d.kind == "drop"]
        assert fates, "UD datagrams must produce drop decisions"
        for index in fates:
            fate, delay = entries[index], entries[index + 1]
            assert fate.choice == 0 and delay.choice == 0.0
            # The delivered datagram's flight: the next decision, a latency
            # decision on the same pair.
            pair = fate.key[len("drop:"):].split("#")[0]
            assert delay.key.startswith(f"latency:{pair}#"), (fate, delay)

    def test_rc_runs_never_consult_the_datagram_decisions(self):
        outcome = run_schedule(
            lambda seed: sparse_wire_factory(seed, transport="rc"),
            0,
            PassthroughStrategy(),
        )
        assert not decisions_of(outcome.decisions, "drop")


class TestFuzzing:
    def _fuzzed(self):
        return run_schedule(
            ud_factory,
            0,
            ScheduleFuzzer(
                seed=13,
                reorder_probability=0.5,
                quantum=1.0,
                drop_probability=0.3,
                duplicate_probability=0.2,
            ),
        )

    def test_rates_produce_drops_and_duplicates_deterministically(self):
        first, second = self._fuzzed(), self._fuzzed()
        fates = [d.choice for d in decisions_of(first.decisions, "drop")]
        assert 1 in fates, "a 0.3 drop rate over a put storm must drop"
        assert 2 in fates, "a 0.2 duplicate rate over a put storm must dup"
        assert first.decisions == second.decisions
        assert first.fingerprint == second.fingerprint

    def test_fuzzed_schedule_replays_from_the_log_alone(self):
        fuzzed = self._fuzzed()
        replayed = run_schedule(ud_factory, 0, ReplayStrategy(fuzzed.decisions))
        assert replayed.fingerprint == fuzzed.fingerprint
        assert replayed.decisions == fuzzed.decisions
        assert replayed.elapsed_sim_time == fuzzed.elapsed_sim_time
        assert replayed.final_values == fuzzed.final_values

    def test_zero_rates_never_drop(self):
        outcome = run_schedule(
            ud_factory,
            0,
            ScheduleFuzzer(seed=13, reorder_probability=0.0),
        )
        assert all(
            d.choice == 0 for d in decisions_of(outcome.decisions, "drop")
        )


class TestSystematic:
    def test_search_branches_on_datagram_fates(self):
        strategy = SystematicStrategy({}, branch_factor=3, max_branch_points=64)
        run_schedule(ud_factory, 0, strategy)
        assert any(k.startswith("drop:") for k in strategy.branch_points)

    def test_forcing_a_drop_slot_drops_and_recovers(self):
        probe = SystematicStrategy({}, branch_factor=3, max_branch_points=64)
        baseline = run_schedule(ud_factory, 0, probe)
        key = next(k for k in probe.branch_points if k.startswith("drop:"))
        forced = run_schedule(
            ud_factory,
            0,
            SystematicStrategy({key: 1}, branch_factor=3, max_branch_points=64),
        )
        dropped = [
            d for d in decisions_of(forced.decisions, "drop") if d.choice == 1
        ]
        assert dropped, "forcing a drop slot must lose that datagram"
        # Recovery preserves the verdict and the observable behaviour.
        assert forced.flagged[MATRIX_CLOCK] == baseline.flagged[MATRIX_CLOCK]
        assert forced.final_values == baseline.final_values


class TestEveryScheduleGuarantee:
    def test_race_flagged_in_all_fuzzed_drop_schedules(self):
        """The acceptance bar: 100% of explored schedules with nonzero
        drop/duplicate rates and stretched flights still flag the seeded
        race."""
        result = Explorer(ud_factory, seed=0).explore_fuzzed(
            8,
            reorder_probability=0.5,
            drop_probability=0.25,
            duplicate_probability=0.15,
        )
        assert result.schedules_run == 8
        for outcome in result.outcomes:
            assert "shared" in outcome.flagged[MATRIX_CLOCK], (
                f"schedule {outcome.schedule_id} lost the seeded race"
            )
        # The exploration genuinely exercised the UD machinery.
        fates = [
            d.choice
            for outcome in result.outcomes
            for d in decisions_of(outcome.decisions, "drop")
        ]
        assert 1 in fates and 2 in fates
