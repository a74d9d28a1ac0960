"""``tools/ab_pairs.py`` alternates the trees and refuses a behaviour change.

The harness itself is not run here: ``run_tree`` is replaced by a stub that
answers from a table, so the pairing, the ratios and the exit status are
checked exactly.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location("ab_pairs", REPO_ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def _harness_output(value, digest="d1", failed=0):
    detail = {"workload": "replay_postmortem", "sim_digest": digest}
    result = {"correct": not failed, "failed": failed,
              "metrics": {"accesses_per_cu": {"value": value, "unit": "1/cu"}}}
    return f"a table row\ndetail {json.dumps(detail)}\n{json.dumps(result)}\n"


def test_the_last_two_lines_are_read():
    run = ab_pairs.parse_output(_harness_output(12.5, "abc", 1), "accesses_per_cu")
    assert run == ab_pairs.Run(12.5, "abc", 1)
    with pytest.raises(ValueError, match="no result"):
        ab_pairs.parse_output("only one line\n", "accesses_per_cu")
    with pytest.raises(ValueError, match="wall_cu"):
        ab_pairs.parse_output(_harness_output(1.0), "wall_cu")


def test_a_ratio_above_one_is_a_gain_in_either_direction():
    assert ab_pairs.metric_directions()["accesses_per_cu"] == "higher"
    assert ab_pairs.metric_directions()["wall_cu"] == "lower"
    assert ab_pairs.ratio(10.0, 12.0, "higher") == pytest.approx(1.2)
    assert ab_pairs.ratio(12.0, 10.0, "lower") == pytest.approx(1.2)


def _stubbed(monkeypatch, answers):
    """Make ``run_tree`` answer ``answers[tree]`` in turn; returns the call order."""
    calls = []

    def run_tree(tree, args):
        calls.append(tree)
        return answers[tree].pop(0)

    monkeypatch.setattr(ab_pairs, "run_tree", run_tree)
    return calls


def test_pairs_alternate_which_tree_runs_first(monkeypatch, capsys):
    answers = {
        "P": [ab_pairs.Run(v, "d", 0) for v in (10.0, 11.0, 10.0)],
        "C": [ab_pairs.Run(v, "d", 0) for v in (12.0, 12.0, 9.0)],
    }
    calls = _stubbed(monkeypatch, answers)
    status = ab_pairs.main(["P", "C", "--workload", "w", "--metric", "accesses_per_cu",
                            "--pairs", "3"])
    assert status == 0
    assert calls == ["P", "C", "C", "P", "P", "C"]
    out = capsys.readouterr().out
    assert "pair  2 (change first)" in out
    assert "wins 2/3" in out


@pytest.mark.parametrize(
    "parent, change",
    [
        (ab_pairs.Run(10.0, "d1", 0), ab_pairs.Run(12.0, "d2", 0)),
        (ab_pairs.Run(10.0, "d1", 0), ab_pairs.Run(12.0, "d1", 1)),
    ],
    ids=["digests-differ", "a-repetition-failed"],
)
def test_a_behaviour_change_or_a_failure_exits_1(monkeypatch, capsys, parent, change):
    _stubbed(monkeypatch, {"P": [parent], "C": [change]})
    status = ab_pairs.main(["P", "C", "--workload", "w", "--metric", "accesses_per_cu",
                            "--pairs", "1"])
    assert status == 1
    assert "error:" in capsys.readouterr().out
