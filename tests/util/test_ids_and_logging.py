"""Unit tests for id allocation and the simulation-time logger."""

import json

import pytest

from repro.util.ids import IdAllocator, monotonic_id
from repro.util.logging import LEVELS, SimLogger, level_number


class TestIdAllocator:
    def test_ids_are_consecutive(self):
        alloc = IdAllocator()
        assert [alloc.next_int() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_string_ids_carry_prefix(self):
        alloc = IdAllocator("msg")
        assert alloc.next_str() == "msg-0"
        assert alloc.next_str() == "msg-1"

    def test_peek_does_not_consume(self):
        alloc = IdAllocator()
        assert alloc.peek() == 0
        assert alloc.peek() == 0
        assert alloc.next_int() == 0
        assert alloc.next_int() == 1

    def test_independent_allocators(self):
        a, b = IdAllocator(), IdAllocator()
        a.next_int()
        assert b.next_int() == 0

    def test_monotonic_id_increases(self):
        first = monotonic_id()
        second = monotonic_id()
        assert second > first


class TestSimLogger:
    def test_records_carry_simulated_time(self):
        time = {"now": 0.0}
        logger = SimLogger(clock=lambda: time["now"])
        logger.log("cat", "first")
        time["now"] = 5.5
        record = logger.log("cat", "second", rank=2)
        assert record.time == 5.5
        assert record.rank == 2
        assert [r.time for r in logger.records()] == [0.0, 5.5]

    def test_filter_by_category(self):
        logger = SimLogger()
        logger.log("a", "one")
        logger.log("b", "two")
        logger.log("a", "three")
        assert len(logger.records("a")) == 2
        assert logger.categories() == ["a", "b"]

    def test_bind_clock_replaces_source(self):
        logger = SimLogger()
        logger.bind_clock(lambda: 42.0)
        assert logger.log("x", "msg").time == 42.0

    def test_clear_and_len(self):
        logger = SimLogger()
        logger.log("x", "msg")
        assert len(logger) == 1
        logger.clear()
        assert len(logger) == 0


class TestSeverity:
    def test_levels_are_ordered(self):
        assert LEVELS == ("debug", "info", "warning", "error")
        assert [level_number(level) for level in LEVELS] == [0, 1, 2, 3]

    def test_unknown_level_raises_early(self):
        with pytest.raises(ValueError, match="unknown log level"):
            level_number("fatal")
        with pytest.raises(ValueError, match="unknown log level"):
            SimLogger().log("x", "msg", level="fatal")

    def test_shorthands_set_the_level(self):
        logger = SimLogger()
        assert logger.debug("c", "a").level == "debug"
        assert logger.info("c", "b").level == "info"
        assert logger.warning("c", "d").level == "warning"
        assert logger.error("c", "e").level == "error"

    def test_records_filter_by_min_level_and_category(self):
        logger = SimLogger()
        logger.debug("race", "noise")
        logger.warning("race", "signal")
        logger.error("nic", "bad")
        assert [r.message for r in logger.records(min_level="warning")] == [
            "signal", "bad",
        ]
        assert [r.message for r in logger.records("race", min_level="warning")] == [
            "signal",
        ]


class TestJsonlExport:
    def test_to_jsonl_is_canonical_and_filterable(self):
        logger = SimLogger()
        logger.info("race", "one", rank=0)
        logger.warning("race", "two", rank=1)
        logger.info("nic", "three")
        lines = logger.to_jsonl().splitlines()
        assert len(lines) == 3
        for line in lines:
            payload = json.loads(line)
            assert list(payload) == sorted(payload)
            assert set(payload) == {"time", "category", "message", "rank", "level"}
        filtered = logger.to_jsonl(category="race", min_level="warning")
        assert json.loads(filtered)["message"] == "two"

    def test_empty_logger_exports_empty_string(self):
        assert SimLogger().to_jsonl() == ""
