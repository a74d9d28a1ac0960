"""``tools/ab_pairs.py`` alternates the trees, keeps every end-to-end metric
of each run and refuses a behaviour change.

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


METRICS = list(ab_pairs.metric_directions())

#: One harness run's end-to-end metrics, in declared order.
VALUES = {"wall_cu": 0.25, "accesses_per_cu": 12.5, "schedules_per_cu": 0.5,
          "setup_s": 0.8, "peak_rss_mb": 50.0}


def _harness_output(values, digest="d1", failed=0):
    detail = {"workload": "replay_postmortem", "sim_digest": digest}
    metrics = {name: {"value": value, "unit": "u"} for name, value in values.items()}
    metrics["core.calls"] = {"value": 7, "unit": "count"}
    result = {"correct": not failed, "failed": failed, "metrics": metrics}
    return f"a table row\ndetail {json.dumps(detail)}\n{json.dumps(result)}\n"


def test_the_last_two_lines_are_read_for_every_end_to_end_metric():
    assert METRICS == list(VALUES)
    run = ab_pairs.parse_output(_harness_output(VALUES, "abc", 1), METRICS)
    assert run == ab_pairs.Run(VALUES, "abc", 1)
    with pytest.raises(ValueError, match="no result"):
        ab_pairs.parse_output("only one line\n", METRICS)


def test_a_result_line_that_lacks_a_metric_is_refused():
    partial = {name: value for name, value in VALUES.items() if name != "setup_s"}
    with pytest.raises(ValueError, match="'setup_s'"):
        ab_pairs.parse_output(_harness_output(partial), METRICS)


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


def _run(accesses, rss=50.0, digest="d", failed=0):
    return ab_pairs.Run(
        {**VALUES, "accesses_per_cu": accesses, "peak_rss_mb": rss}, digest, failed
    )


def test_pairs_alternate_which_tree_runs_first(monkeypatch, capsys):
    answers = {
        "P": [_run(10.0, 50.0), _run(11.0, 50.0), _run(10.0, 50.0)],
        "C": [_run(12.0, 49.0), _run(12.0, 51.0), _run(9.0, 51.0)],
    }
    calls = _stubbed(monkeypatch, answers)
    status = ab_pairs.main(["P", "C", "--workload", "w", "--pairs", "3"])
    assert status == 0
    assert calls == ["P", "C", "C", "P", "P", "C"]
    out = capsys.readouterr().out
    assert "pair  2 (change first)" in out
    # Each metric gets its own summary from the same three pairs.
    summaries = out.split("\n", 3)[3]
    for name in METRICS:
        assert f"{name}:" in summaries
    accesses = summaries.split("accesses_per_cu:")[1].split("schedules_per_cu:")[0]
    assert "wins 2/3" in accesses
    rss = summaries.split("peak_rss_mb:")[1]
    assert "wins 1/3" in rss and "lower is better" in rss
    unchanged = summaries.split("wall_cu:")[1].split("accesses_per_cu:")[0]
    assert "wins 0/3, median ×1.000" in unchanged


@pytest.mark.parametrize(
    "parent, change",
    [
        (_run(10.0, digest="d1"), _run(12.0, digest="d2")),
        (_run(10.0, digest="d1"), _run(12.0, digest="d1", failed=1)),
    ],
    ids=["digests-differ", "a-repetition-failed"],
)
def test_a_behaviour_change_or_a_failure_exits_1(monkeypatch, capsys, parent, change):
    _stubbed(monkeypatch, {"P": [parent], "C": [change]})
    status = ab_pairs.main(["P", "C", "--workload", "w", "--pairs", "1"])
    assert status == 1
    assert "error:" in capsys.readouterr().out
