"""A choice is checked against its kind's shape wherever it comes from outside.

Two rims: ``Decision.from_dict`` (artifact files) and the controller's
``_decide`` (whatever a strategy returns).  ``Decision._build`` and the
public constructor stay unchecked on ``choice`` — the trusted path.
"""

import math

import pytest

from repro.explore.controller import (
    ReplayDivergence,
    ReplayStrategy,
    ScheduleController,
    ScheduleStrategy,
)
from repro.explore.decisions import (
    DECISION_KINDS,
    DECISION_SHAPES,
    Decision,
    DecisionLog,
)
from repro.explore.runner import run_schedule
from repro.sim.events import SimulationError
from repro.workloads.racy_patterns import pattern_corpus
from tests.explore.test_control_plane_decisions import barrier_factory

NOT_A_NUMBER = [True, False, "0", None, [1], math.nan, math.inf, -math.inf, -1, -0.5]

BAD_CHOICES = {
    "delay": NOT_A_NUMBER,
    "index": NOT_A_NUMBER + [1.5, 1.0],
}

GOOD_CHOICES = {
    "delay": [0, 0.0, 3, 2.25],
    "index": [0, 1, 2],
}


class TestTheArtifactRim:
    def test_the_table_covers_every_kind_with_a_known_shape(self):
        assert tuple(DECISION_SHAPES) == DECISION_KINDS
        assert set(DECISION_SHAPES.values()) == set(BAD_CHOICES)

    @pytest.mark.parametrize("kind", DECISION_KINDS)
    def test_a_choice_the_kind_can_hold_loads_unchanged(self, kind):
        for choice in GOOD_CHOICES[DECISION_SHAPES[kind]]:
            loaded = Decision.from_dict({"kind": kind, "key": f"{kind}#0", "choice": choice})
            assert loaded.choice == choice and type(loaded.choice) is type(choice)

    @pytest.mark.parametrize("kind", DECISION_KINDS)
    def test_any_other_choice_is_refused_by_name(self, kind):
        for choice in BAD_CHOICES[DECISION_SHAPES[kind]]:
            with pytest.raises(ValueError) as raised:
                Decision.from_dict({"kind": kind, "key": f"{kind}:k#7", "choice": choice})
            message = str(raised.value)
            assert kind in message and f"{kind}:k#7" in message and repr(choice) in message

    def test_a_whole_log_is_refused_at_its_bad_entry(self):
        entries = [
            {"kind": "latency", "key": "latency:0->1#0", "choice": 0.5},
            None,
            {"kind": "tie", "key": "tie#0", "choice": 1.5},
        ]
        with pytest.raises(ValueError, match="tie#0"):
            DecisionLog.from_jsonable(entries)

    def test_an_unknown_kind_is_still_the_constructors_error(self):
        with pytest.raises(ValueError, match="unknown decision kind 'bogus'"):
            Decision.from_dict({"kind": "bogus", "key": "k", "choice": 0})

    def test_the_trusted_paths_stay_unchecked(self):
        assert Decision("tie", "tie#0", 1.5).choice == 1.5
        assert Decision._build("latency", "k", -1.0).choice == -1.0


class Answering(ScheduleStrategy):
    """Answers *answer* at every choice point of *kind*, the default elsewhere."""

    def __init__(self, kind, answer):
        self.kind, self.answer = kind, answer

    def choose(self, kind, key, bound=None, message=None):
        return self.answer(bound) if kind == self.kind else 0


class TestTheStrategyRim:
    @pytest.mark.parametrize(
        "entry, arguments, answer, key",
        [
            ("on_message_latency", (None, 0, 2, 1.0), -0.5, "latency:0->2#0"),
            # NaN and infinity were logged once, and the log then refused to load.
            ("on_message_latency", (None, 0, 2, 1.0), math.nan, "latency:0->2#0"),
            ("on_message_latency", (None, 0, 2, 1.0), math.inf, "latency:0->2#0"),
            ("on_barrier_release", (4, 3), 3, "barrier:g4#0"),
            ("on_barrier_release", (4, 3), -1, "barrier:g4#0"),
            ("on_barrier_release", (4, 3), math.nan, "barrier:g4#0"),
            ("on_barrier_release", (4, 3), math.inf, "barrier:g4#0"),
            ("on_datagram_fate", (None, 1, 0), 3, "drop:1->0#0"),
            ("on_datagram_fate", (None, 1, 0), -1, "drop:1->0#0"),
            ("on_datagram_fate", (None, 1, 0), math.nan, "drop:1->0#0"),
            ("on_datagram_fate", (None, 1, 0), math.inf, "drop:1->0#0"),
        ],
    )
    def test_an_answer_outside_the_shape_is_refused(self, entry, arguments, answer, key):
        kind = key.partition(":")[0]
        controller = ScheduleController(Answering(kind, lambda bound: answer))
        with pytest.raises(ValueError) as raised:
            getattr(controller, entry)(*arguments)
        assert key in str(raised.value)
        assert len(controller.log) == 0, "a refused answer is not logged"

    @pytest.mark.parametrize("answer", [lambda bound: bound, lambda bound: -1])
    def test_a_tie_index_outside_the_eligible_set_fails_the_run(self, answer):
        (pattern,) = [p for p in pattern_corpus() if p.name == "fig5a-concurrent-puts"]
        with pytest.raises(ValueError, match=r"tie#0"):
            run_schedule(pattern.build, 0, Answering("tie", answer))

    def test_answers_are_logged_in_the_shape_s_type(self):
        controller = ScheduleController(Answering("latency", lambda bound: 2))
        assert controller.on_message_latency(None, 0, 1, 1.5) == 3.5
        assert controller.on_barrier_release(4, 3) == 0
        assert [(d.kind, d.choice, type(d.choice)) for d in controller.log] == [
            ("latency", 2.0, float), ("barrier", 0, int),
        ]


class TestReplayOfAnIndexTheRunHasNoOptionFor:
    @pytest.mark.parametrize("kind", ["tie", "barrier"])
    def test_strict_diverges_and_lenient_takes_the_default(self, kind):
        baseline = run_schedule(barrier_factory, 0, ScheduleStrategy())
        position, recorded = next(
            (i, d) for i, d in enumerate(baseline.decisions.entries) if d.kind == kind
        )
        entries = baseline.decisions.entries
        entries[position] = Decision(kind, recorded.key, 99)
        doctored = DecisionLog(entries)

        # A tie is resolved by the engine, a barrier pick inside a rank's
        # process — whose failure the engine reports with the cause attached.
        with pytest.raises((ReplayDivergence, SimulationError)) as raised:
            run_schedule(barrier_factory, 0, ReplayStrategy(doctored))
        divergence = raised.value if kind == "tie" else raised.value.__cause__
        assert isinstance(divergence, ReplayDivergence)
        assert recorded.key in str(divergence)
        lenient = run_schedule(barrier_factory, 0, ReplayStrategy(doctored, strict=False))
        assert lenient.decisions == baseline.decisions
