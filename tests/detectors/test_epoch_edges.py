"""White-box edge cases of the epoch annotation life cycle.

The property tests prove the fast path verdict-identical over random
histories; these tests pin the three transitions the optimisation lives or
dies by, by inspecting the annotation state directly:

* **same-rank re-read** — repeated reads by one rank keep the datum in the
  epoch state (each read's merged content equals that reader's clock), so
  a long exclusive-read phase stays O(1) per check;
* **read-share promotion, then demotion on the next write** — a carried
  read whose snapshot has no O(1) coverage witness drops the annotation to
  the full-vector state (the fallback compares take over), and the next
  owner-event write re-anchors the cell clocks to the owner's fresh tick,
  restoring the epoch state;
* **carried read racing an epoch write** — the racy verdict itself is
  decided by the O(1) probe, and both modes report the identical record.
"""

from repro.core.clocks import Epoch
from repro.core.detector import DetectorConfig, DualClockRaceDetector
from repro.memory.address import GlobalAddress
from repro.memory.public import MemoryCell

from tests.detectors.differential import race_digest

WORLD = 3
ADDR = GlobalAddress(0, 7)


class TestSameRankReRead:
    def test_re_reads_keep_the_epoch_and_probe_in_o1(self):
        fast = DualClockRaceDetector(WORLD, DetectorConfig(epochs=True))
        cell = MemoryCell()
        fast.on_write(1, ADDR, cell, symbol="x")
        info = cell.detector_state
        assert info.access_epoch is not None
        assert info.write_epoch is not None
        # Order rank 2 after the write (the owner ticked on its reception,
        # so the owner's clock covers the datum's whole history).
        fast.transfer_clock(ADDR.rank, 2)

        # Rank 2 reads twice: cross-rank, so the write-clock check runs
        # (no same-origin skip) and must be decided by the probe each time.
        fast.on_read(2, ADDR, cell, symbol="x")
        first = fast.profiler.snapshot()["read_live"]
        assert first["epoch_hits"] == 1
        assert first["compares"] == 0

        fast.on_read(2, ADDR, cell, symbol="x")
        second = fast.profiler.snapshot()["read_live"]
        assert second["epoch_hits"] == 2
        assert second["compares"] == 0

        # The re-read keeps the access clock in the epoch state, anchored
        # at the re-reader's latest tick (its merged clock IS the content).
        info = cell.detector_state
        assert info.access_epoch == Epoch(2, fast.current_clock(2).component(2))
        # Reads never touch W(x): the writer's annotation stands.
        assert info.write_epoch.rank in (1, 0)
        assert len(fast.report) == 0


class TestReadSharePromotionThenWriteDemotion:
    def test_carried_read_share_promotes_then_exclusive_write_demotes(self):
        fast = DualClockRaceDetector(WORLD, DetectorConfig(epochs=True))
        cell = MemoryCell()

        # Rank 2 snapshots its clock BEFORE the write exists: the carried
        # read below lands with no knowledge of the datum's history.
        stale = fast.current_clock(2)
        fast.on_write(1, ADDR, cell, symbol="x")
        assert cell.detector_state.access_epoch is not None

        # The carried read has no O(1) coverage witness: genuine read-share,
        # the annotation must drop to the full-vector state.
        fast.on_read(2, ADDR, cell, carried_clock=stale, symbol="x")
        assert cell.detector_state.access_epoch is None

        # With the annotation gone the next cross-rank check falls back to
        # full compares — the slow path must remain reachable.
        before = fast.profiler.snapshot()["write_live"]
        fast.on_write(2, ADDR, cell, symbol="x")
        after = fast.profiler.snapshot()["write_live"]
        assert after["compares"] > before["compares"]
        assert after["epoch_hits"] == before["epoch_hits"]

        # That write is an owner event: the owner's fresh tick dominates
        # the merged content, re-anchoring both clocks to a single epoch —
        # the demotion that makes the next exclusive phase O(1) again.
        info = cell.detector_state
        owner_tick = fast.current_clock(ADDR.rank).component(ADDR.rank)
        assert info.access_epoch == Epoch(ADDR.rank, owner_tick)
        assert info.write_epoch == Epoch(ADDR.rank, owner_tick)

        # And the restored epoch is live: the next check is a probe.
        fast.on_read(1, ADDR, cell, symbol="x")
        assert fast.profiler.snapshot()["read_live"]["epoch_hits"] >= 1


class TestCarriedReadRacingEpochWrite:
    def test_race_decided_by_the_probe_and_identical_across_modes(self):
        fast = DualClockRaceDetector(WORLD, DetectorConfig(epochs=True))
        slow = DualClockRaceDetector(WORLD, DetectorConfig(epochs=False))
        fast_cell, slow_cell = MemoryCell(), MemoryCell()

        # Post-time snapshot taken before the conflicting write: the carried
        # read races the epoch-annotated write in both replicas.
        fast_stale = fast.current_clock(2)
        slow_stale = slow.current_clock(2)
        fast.on_write(1, ADDR, fast_cell, symbol="x", time=1.0)
        slow.on_write(1, ADDR, slow_cell, symbol="x", time=1.0)

        fast_result = fast.on_read(
            2, ADDR, fast_cell, carried_clock=fast_stale, symbol="x", time=2.0
        )
        slow_result = slow.on_read(
            2, ADDR, slow_cell, carried_clock=slow_stale, symbol="x", time=2.0
        )

        assert fast_result.raced and slow_result.raced
        assert race_digest(fast_result.race) == race_digest(slow_result.race)

        # The fast replica decided the racy verdict with the O(1) probe
        # alone; the slow replica paid the full directional compare.
        fast_bucket = fast.profiler.snapshot()["read_carried"]
        slow_bucket = slow.profiler.snapshot()["read_carried"]
        assert fast_bucket["epoch_hits"] == 1
        assert fast_bucket["compares"] == 0
        assert slow_bucket["epoch_hits"] == 0
        assert slow_bucket["compares"] >= 1
        # Joins are pinned: the fast path saves compares, never merges.
        assert fast_bucket["joins"] == slow_bucket["joins"]

    def test_covered_carried_read_is_silent_in_both_modes(self):
        """Control: a snapshot taken AFTER learning the datum's history is
        ordered — the probe must say so too (no false positives)."""
        fast = DualClockRaceDetector(WORLD, DetectorConfig(epochs=True))
        cell = MemoryCell()
        fast.on_write(1, ADDR, cell, symbol="x", time=1.0)
        # Rank 2 synchronizes with the owner (who ticked on reception),
        # covering the datum's whole history, then posts.
        fast.transfer_clock(ADDR.rank, 2)
        covered = fast.current_clock(2)
        result = fast.on_read(
            2, ADDR, cell, carried_clock=covered, symbol="x", time=2.0
        )
        assert not result.raced
        bucket = fast.profiler.snapshot()["read_carried"]
        assert bucket["epoch_hits"] == 1
        assert bucket["compares"] == 0
        assert len(fast.report) == 0
