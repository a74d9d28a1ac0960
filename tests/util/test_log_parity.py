"""A race logged as itself reads back as the record an eager log kept.

``RaceReport.signal`` hands the run log the frozen ``RaceRecord`` and the log
formats it on first read (``SimLogger.defer``).  The digests below are the
``to_jsonl()`` exports of two runs recorded while every race was still
formatted at signal time; the log must export the same bytes, and read the
same through every other accessor as a logger that formats eagerly.
"""

import hashlib

import pytest

from repro.core.races import SignalPolicy
from repro.util.logging import SimLogger
from repro.workloads import RandomAccessWorkload
from repro.workloads.racy_patterns import pattern_corpus

#: ``sha256(runtime.logger.to_jsonl())`` with races formatted when signalled.
EAGER_DIGESTS = {
    "random-access-4x50": "9644499bed637d91cea587847258f23719a901e7801263f4db5164cd99adb719",
    "unsynchronized-counter": "2c958a2bbe54ced9e2209c41ffccce763fb04f22153f201b89d91432b3a9159f",
}


class EagerLogger(SimLogger):
    """Formats a deferred subject at once, as the log did before deferral."""

    def defer(self, category, subject, rank=None, level="info"):
        self.log(category, str(subject), rank=rank, level=level)


def build(name):
    if name == "random-access-4x50":
        return RandomAccessWorkload(4, 50).build(0)
    (pattern,) = [p for p in pattern_corpus() if p.name == name]
    return pattern.build(0)


def run_with(name, eager):
    runtime = build(name)
    assert runtime.config.signal_policy is SignalPolicy.COLLECT
    if eager:
        logger = EagerLogger(runtime.logger._clock)
        runtime.logger = runtime.sim.logger = logger
        runtime.report.bind_logger(logger)
    runtime.run()
    return runtime


@pytest.mark.parametrize("name", sorted(EAGER_DIGESTS))
def test_the_export_is_the_eager_one_byte_for_byte(name):
    runtime = run_with(name, eager=False)
    assert len(runtime.report) > 0
    text = runtime.logger.to_jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == EAGER_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EAGER_DIGESTS))
def test_every_accessor_reads_what_eager_logging_reads(name):
    lazy = run_with(name, eager=False).logger
    eager = run_with(name, eager=True).logger
    assert len(lazy) == len(eager)
    assert lazy.records("race", min_level="warning") == eager.records(
        "race", min_level="warning"
    )
    assert lazy.categories() == eager.categories()
    assert list(lazy) == list(eager)
    assert lazy.to_jsonl() == eager.to_jsonl()


class TestDefer:
    def test_a_deferred_record_keeps_the_time_and_level_of_its_signal(self):
        time = {"now": 1.0}
        logger = SimLogger(clock=lambda: time["now"])
        subject = ["first"]
        logger.defer("race", "A", rank=2, level="warning")
        time["now"] = 4.0
        logger.log("app", "between")
        logger.defer("race", 17)
        assert len(logger) == 3
        assert [(r.time, r.category, r.message, r.rank, r.level) for r in logger] == [
            (1.0, "race", "A", 2, "warning"),
            (4.0, "app", "between", None, "info"),
            (4.0, "race", "17", None, "info"),
        ]
        # Reads settle what was deferred so far; later deferrals still append.
        logger.defer("race", subject, level="error")
        assert [r.message for r in logger.records(min_level="error")] == ["['first']"]
        assert logger.categories() == ["race", "app"]

    def test_a_typod_level_raises_when_deferred(self):
        with pytest.raises(ValueError, match="unknown log level"):
            SimLogger().defer("race", "x", level="fatal")

    def test_clear_drops_deferred_records(self):
        logger = SimLogger()
        logger.defer("race", "x")
        logger.clear()
        logger.log("app", "y")
        assert [r.message for r in logger.records()] == ["y"]
