"""Unit tests for the detection profiler.

The check kernel books into the profiler's buckets itself, so the profiles
here come from real checks of a three-rank detector on one cell of rank 1.
"""

from types import SimpleNamespace

from repro.core.clocks import VectorClock
from repro.core.detector import DualClockRaceDetector
from repro.memory.address import GlobalAddress
from repro.memory.public import MemoryCell
from repro.obs.profiler import CHECK_TYPES, DetectionProfiler

ADDRESS = GlobalAddress(1, 0)
ZEROS = {"checks": 0, "compares": 0, "joins": 0, "epoch_hits": 0}


def _racy_writes_then_a_posted_read(profiler=None):
    """Two unordered live writes, then a carried read that races with them."""
    detector = DualClockRaceDetector(3)
    if profiler is not None:
        detector.bind_observability(SimpleNamespace(profiler=profiler))
    cell = MemoryCell()
    detector.on_write(0, ADDRESS, cell)
    detector.on_write(2, ADDRESS, cell)
    detector.on_read(0, ADDRESS, cell, carried_clock=VectorClock(3))
    return detector.profiler


class TestDetectionProfiler:
    def test_check_types_cover_the_matrix(self):
        assert set(CHECK_TYPES) == {
            (kind, provenance)
            for kind in ("read", "write", "rmw")
            for provenance in ("live", "carried")
        }

    def test_a_check_books_into_its_kind_and_provenance_bucket(self):
        snapshot = _racy_writes_then_a_posted_read().snapshot()
        # Each live write: the origin learns V(x), V(x) and W(x) absorb the
        # event, and the owner-tick adds its three joins; the second write
        # is decided by one probe of the first's owner epoch.
        assert snapshot["write_live"] == {
            "checks": 2,
            "compares": 0,
            "joins": 12,
            "epoch_hits": 1,
        }
        # A carried read learns nothing and joins V(x) only, then the owner
        # tick's two joins.
        assert snapshot["read_carried"] == {
            "checks": 1,
            "compares": 0,
            "joins": 3,
            "epoch_hits": 1,
        }
        for check_type in ("read_live", "write_carried", "rmw_live", "rmw_carried"):
            assert snapshot[check_type] == ZEROS

    def test_snapshot_is_deterministic_without_wall_clock(self):
        profiler = _racy_writes_then_a_posted_read()
        assert profiler.wall_clock is False
        for entry in profiler.snapshot().values():
            assert "wall_ns" not in entry
        assert profiler.snapshot() == _racy_writes_then_a_posted_read().snapshot()

    def test_wall_clock_mode_adds_wall_ns(self):
        profiler = _racy_writes_then_a_posted_read(DetectionProfiler(wall_clock=True))
        entry = profiler.snapshot()["read_carried"]
        assert entry["checks"] == 1
        assert entry["wall_ns"] >= 0
        assert profiler.snapshot()["rmw_live"]["wall_ns"] == 0

    def test_totals_merge_and_reset(self):
        left = _racy_writes_then_a_posted_read()
        right = _racy_writes_then_a_posted_read()
        assert left.merge(right) is left
        assert left.totals() == {
            "checks": 6,
            "compares": 0,
            "joins": 30,
            "epoch_hits": 4,
        }
        left.reset()
        assert left.totals() == ZEROS
