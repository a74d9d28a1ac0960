"""Racing-schedule minimization and the replayable artifact it emits."""

import json

import pytest

from repro.explore import Explorer, minimize_racing_schedule, replay_artifact
from repro.explore.minimize import load_artifact, save_artifact
from repro.trace.replay import TraceReplayer
from repro.trace.serialization import trace_from_json
from repro.workloads.racy_patterns import pattern_corpus

CORPUS = {p.name: p for p in pattern_corpus()}
QUANTUM = 4.0


def fuzzed_racing_outcome(name, symbols):
    explorer = Explorer(CORPUS[name].build, seed=0)
    result = explorer.explore_fuzzed(8, quantum=QUANTUM)
    outcome = result.racing_outcome(symbols)
    assert outcome is not None
    return result, outcome


def test_detector_criterion_minimizes_toward_the_empty_log():
    """A real race is flagged in *every* schedule, so minimizing on the
    detector verdict strips every perturbation: the baseline already races —
    the every-schedule guarantee, observed through the minimizer."""
    _, outcome = fuzzed_racing_outcome("fig5a-concurrent-puts", {"a"})
    minimized = minimize_racing_schedule(
        CORPUS["fig5a-concurrent-puts"].build, 0, outcome.decisions, {"a"}
    )
    assert minimized.perturbations == 0
    assert minimized.minimized_length == 0
    assert "a" in minimized.flagged
    assert minimized.replays_used >= 1


def test_outcome_criterion_keeps_only_the_deciding_perturbations():
    """Minimizing toward an *observable* outcome must retain whatever
    perturbation flips the racing writes' arrival order — and shed the rest."""
    pattern = CORPUS["fig5a-concurrent-puts"]
    result = Explorer(pattern.build, seed=0).explore_fuzzed(10, quantum=QUANTUM)
    baseline_final = result.outcomes[0].final_values["a"]
    flipped = next(
        o for o in result.outcomes if o.final_values["a"] != baseline_final
    )
    predicate = lambda outcome: outcome.final_values["a"] == flipped.final_values["a"]
    minimized = minimize_racing_schedule(
        pattern.build, 0, flipped.decisions, {"a"}, predicate=predicate
    )
    assert 1 <= minimized.perturbations <= len(flipped.decisions.non_default())
    assert minimized.minimized_length <= len(flipped.decisions)
    assert minimized.outcome.final_values["a"] == flipped.final_values["a"]


def test_minimizing_a_non_racing_log_is_an_error():
    pattern = CORPUS["fig4-concurrent-reads"]
    explorer = Explorer(pattern.build, seed=0)
    outcome = explorer.explore_fuzzed(2, quantum=QUANTUM).outcomes[0]
    with pytest.raises(ValueError):
        minimize_racing_schedule(pattern.build, 0, outcome.decisions, {"x"})
    with pytest.raises(ValueError):
        minimize_racing_schedule(pattern.build, 0, outcome.decisions, set())


def test_artifact_round_trip_live_and_through_the_trace_layer(tmp_path):
    pattern = CORPUS["write-after-read-unsync"]
    _, outcome = fuzzed_racing_outcome("write-after-read-unsync", {"shared"})
    minimized = minimize_racing_schedule(pattern.build, 0, outcome.decisions, {"shared"})
    path = tmp_path / "race.json"
    written = save_artifact(minimized, pattern.build, 0, str(path), pattern=pattern.name)
    loaded = load_artifact(str(path))
    assert loaded == json.loads(json.dumps(written))  # JSON-stable
    assert loaded["pattern"] == pattern.name
    assert "shared" in loaded["flagged_symbols"]

    # Live replay: same race, same schedule.
    live = replay_artifact(str(path), pattern.build)
    assert "shared" in live.flagged["matrix-clock"]
    assert live.fingerprint == minimized.outcome.fingerprint

    # Offline replay via the existing trace layer: the stored accesses alone
    # reproduce the same race report.
    world_size, accesses, _operations, syncs = trace_from_json(
        json.dumps(loaded["trace"])
    )
    replayed = TraceReplayer(world_size).replay(accesses, syncs=syncs)
    assert {r.symbol for r in replayed.races} >= {"shared"}


def test_load_artifact_rejects_foreign_json(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        load_artifact(str(path))


def test_load_artifact_refuses_a_version_2_log(tmp_path):
    """Version 2 logs were recorded under RNR flow control; a SEND that
    retried then would log a ``credit`` decision now, so they can misalign."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"format": "repro-racing-schedule", "version": 2}))
    refusal = r"unsupported racing-schedule artifact version 2 \(supported: 3\)"
    with pytest.raises(ValueError, match=refusal):
        load_artifact(str(path))
