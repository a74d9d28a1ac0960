"""The check kernel against a recording of its predecessor, byte for byte.

``golden_check_stream.json`` was recorded from the three hand-unrolled
``on_write`` / ``on_read`` / ``on_rmw`` bodies (the commit before the
raw-array kernel replaced them).  Each entry digests one scenario under one
epoch mode and one ablation: every instrumented access with every
``AccessCheckResult`` field, then the final per-cell access / write / plain
clocks, the per-rank matrices, the full detection profile and the race
report.  A kernel that drops a join, books one differently, loses an
annotation or snapshots a clock at another moment changes a digest.
"""

import json

import pytest

from repro.core.clocks import VectorClock
from repro.core.detector import DualClockRaceDetector
from repro.memory.address import GlobalAddress
from repro.memory.public import MemoryCell

from tests.detectors.differential import (
    ABLATIONS,
    GOLDEN_CHECK_STREAM,
    MODES,
    CheckStream,
    check_stream_key,
    check_stream_scenarios,
)

SCENARIOS = check_stream_scenarios()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_CHECK_STREAM, encoding="utf-8") as handle:
        return json.load(handle)


def test_the_golden_file_covers_every_scenario_mode_and_ablation(golden):
    assert sorted(golden) == sorted(
        check_stream_key(name, mode, ablation)
        for name in SCENARIOS
        for mode in MODES
        for ablation in ABLATIONS
    )
    # Not vacuous: the streams carry accesses, and the racy ones races.
    assert sum(entry["accesses"] for entry in golden.values()) > 2_200 * len(ABLATIONS)
    assert sum(entry["races"] for entry in golden.values()) > 550 * len(ABLATIONS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_check_stream_matches_the_recording(golden, scenario):
    run = SCENARIOS[scenario]
    for mode in MODES:
        for ablation in ABLATIONS:
            key = check_stream_key(scenario, mode, ablation)
            assert run(mode, ablation) == golden[key], key


class TestTheDigestSeesOneDroppedJoin:
    """The recording is only worth what a single lost operation does to it."""

    @staticmethod
    def _stream(drop_join_at=None):
        detector = DualClockRaceDetector(3)
        stream = CheckStream(detector)
        address, cell = GlobalAddress(1, 0), MemoryCell()
        for step, origin in enumerate((0, 2, 0, 2, 1, 0)):
            before = None if cell.write_clock is None else cell.write_clock.copy()
            detector.on_write(origin, address, cell, symbol="x", time=float(step))
            if step == drop_join_at:
                # Undo the W(x) join of this one access from outside.
                cell.write_clock = before if before is not None else VectorClock(3)
            detector.on_read((origin + 1) % 3, address, cell, symbol="x", time=step + 0.5)
        return stream.digest()

    def test_identical_runs_digest_identically(self):
        assert self._stream() == self._stream()

    @pytest.mark.parametrize("step", [0, 3, 5])
    def test_one_dropped_write_clock_join_changes_the_digest(self, step):
        assert self._stream(drop_join_at=step)["sha256"] != self._stream()["sha256"]
