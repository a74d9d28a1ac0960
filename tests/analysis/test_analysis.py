"""Unit tests for accuracy metrics, overhead accounting and report rendering."""

import math

import pytest

from repro.analysis.metrics import ConfusionCounts, DetectorScore, score_against_labels
from repro.analysis.overhead import (
    clock_storage_model,
    compare_runs,
    detection_overhead_for,
)
from repro.analysis.reporting import format_race_report, format_run_summary, format_table
from repro.core.detector import DetectorConfig
from repro.runtime.runtime import DSMRuntime, RuntimeConfig


class TestConfusionCounts:
    def test_counts_and_rates(self):
        counts = ConfusionCounts()
        counts.add(True, True)    # TP
        counts.add(True, False)   # FP
        counts.add(False, True)   # FN
        counts.add(False, False)  # TN
        assert counts.true_positives == counts.false_positives == 1
        assert counts.precision == 0.5
        assert counts.recall == 0.5
        assert counts.accuracy == 0.5
        assert counts.f1 == pytest.approx(0.5)

    def test_degenerate_cases(self):
        empty = ConfusionCounts()
        assert empty.precision == 1.0 and empty.recall == 1.0 and empty.accuracy == 1.0
        only_tn = ConfusionCounts(true_negatives=5)
        assert only_tn.f1 == pytest.approx(2 * 1 * 1 / 2)


class TestScoring:
    def test_perfect_detector_scores_one(self):
        score = score_against_labels(
            "perfect",
            flagged_by_program={"p1": {"x"}, "p2": set()},
            labels_by_program={"p1": {"x"}, "p2": set()},
            symbols_by_program={"p1": {"x", "y"}, "p2": {"z"}},
        )
        assert score.program_level.accuracy == 1.0
        assert score.symbol_level.precision == 1.0
        assert score.symbol_level.recall == 1.0

    def test_over_reporting_hurts_precision_not_recall(self):
        score = score_against_labels(
            "noisy",
            flagged_by_program={"p1": {"x", "y"}},
            labels_by_program={"p1": {"x"}},
            symbols_by_program={"p1": {"x", "y"}},
        )
        assert score.symbol_level.recall == 1.0
        assert score.symbol_level.precision == 0.5

    def test_under_reporting_hurts_recall(self):
        score = score_against_labels(
            "blind",
            flagged_by_program={"p1": set()},
            labels_by_program={"p1": {"x"}},
            symbols_by_program={"p1": {"x", "y"}},
        )
        assert score.symbol_level.recall == 0.0
        assert score.program_level.accuracy == 0.0

    def test_as_row_shape(self):
        score = DetectorScore("d")
        row = score.as_row()
        assert row[0] == "d" and len(row) == 5


class TestClockStorageModel:
    def test_dual_is_twice_single_for_datum_clocks(self):
        """Section IV-D: the dual-clock design doubles the per-datum storage."""
        model = clock_storage_model(world_size=8, shared_data=100)
        assert model.entries_per_datum_dual == 16
        assert model.entries_per_datum_single == 8
        assert model.dual_over_single_ratio == 2.0

    def test_storage_grows_linearly_with_n_per_datum(self):
        """Section IV-C: clocks cannot be smaller than n."""
        small = clock_storage_model(4, 10)
        large = clock_storage_model(8, 10)
        assert large.entries_per_datum_dual == 2 * small.entries_per_datum_dual

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            clock_storage_model(0, 10)


def _writer_runtime(enabled: bool, seed: int = 0) -> DSMRuntime:
    config = RuntimeConfig(
        world_size=3, seed=seed, detector=DetectorConfig() if enabled else None
    )
    runtime = DSMRuntime(config)
    runtime.declare_scalar("x", owner=1, initial=0)

    def writer(api):
        yield from api.put("x", api.rank)
        yield from api.get("x")

    def idle(api):
        yield from api.compute(0.0)

    runtime.set_program(0, writer)
    runtime.set_program(1, idle)
    runtime.set_program(2, writer)
    return runtime


class TestOverheadComparison:
    def test_detection_adds_messages_and_storage(self):
        baseline = _writer_runtime(enabled=False).run()
        instrumented = _writer_runtime(enabled=True).run()
        comparison = compare_runs(baseline, instrumented)
        assert comparison.message_overhead_ratio > 1.0
        assert comparison.detection_messages > 0
        assert comparison.clock_storage_entries > 0
        assert comparison.extra_messages_per_access > 0
        as_dict = comparison.as_dict()
        assert as_dict["world_size"] == 3

    def test_world_size_mismatch_rejected(self):
        baseline = _writer_runtime(enabled=False).run()
        other = DSMRuntime(RuntimeConfig(world_size=2))
        other.set_spmd_program(lambda api: api.compute(0.0))
        with pytest.raises(ValueError):
            compare_runs(baseline, other.run())

    def test_single_run_overhead_summary(self):
        result = _writer_runtime(enabled=True).run()
        summary = detection_overhead_for(result)
        assert summary["remote_accesses"] == 4
        assert summary["detection_messages_per_access"] > 0
        assert summary["clock_storage_bytes"] == summary["clock_storage_entries"] * 8


class TestReporting:
    def test_format_table_alignment_and_title(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 22]], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
        # All rows share the same width.
        assert len(set(len(line) for line in lines[2:])) == 1

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_run_summary_and_race_report_render(self):
        result = _writer_runtime(enabled=True).run()
        summary = format_run_summary(result)
        assert "race signals" in summary
        report = format_race_report(result)
        assert "x" in report or "no race" in report

    def test_empty_race_report(self):
        result = _writer_runtime(enabled=False).run()
        assert "no race" in format_race_report(result)
