"""Property-based tests for detector invariants over random access sequences."""

from hypothesis import given, settings, strategies as st

from repro.core.detector import DetectorConfig, DualClockRaceDetector
from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind
from repro.memory.public import MemoryCell
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import TraceReplayer

# A random access: (rank, cell offset, is_write).
access_step = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
)
access_sequences = st.lists(access_step, min_size=0, max_size=40)

WORLD = 4
OWNER = 1


def drive_detector(steps, **config_kwargs):
    """Run a raw access sequence through a fresh detector; returns (detector, cells)."""
    detector = DualClockRaceDetector(WORLD, config=DetectorConfig(**config_kwargs))
    cells = {}
    for index, (rank, offset, is_write) in enumerate(steps):
        address = GlobalAddress(OWNER, offset)
        cell = cells.setdefault(offset, MemoryCell())
        if is_write:
            detector.on_write(rank, address, cell, time=float(index))
        else:
            detector.on_read(rank, address, cell, time=float(index))
    return detector, cells


class TestDetectorInvariants:
    @given(access_sequences)
    @settings(max_examples=60, deadline=None)
    def test_every_report_involves_a_write(self, steps):
        """Read-only concurrency is never reported (the paper's Figure 4 rule)."""
        detector, _cells = drive_detector(steps)
        for record in detector.races():
            assert record.involves_write()

    @given(access_sequences)
    @settings(max_examples=60, deadline=None)
    def test_read_only_sequences_are_never_flagged(self, steps):
        read_only = [(rank, offset, False) for rank, offset, _ in steps]
        detector, _cells = drive_detector(read_only)
        assert detector.race_count() == 0

    @given(access_sequences)
    @settings(max_examples=60, deadline=None)
    def test_single_process_programs_are_never_flagged(self, steps):
        """One process alone cannot race with itself."""
        solo = [(2, offset, is_write) for _rank, offset, is_write in steps]
        detector, _cells = drive_detector(solo)
        assert detector.race_count() == 0

    @given(access_sequences)
    @settings(max_examples=60, deadline=None)
    def test_datum_clocks_dominate_every_writer_event_clock(self, steps):
        """Algorithm 5 only ever merges: the datum clock is an upper bound."""
        detector, cells = drive_detector(steps)
        for offset, cell in cells.items():
            if cell.access_clock is None:
                continue
            assert cell.access_clock.dominates(cell.write_clock)

    @given(access_sequences)
    @settings(max_examples=40, deadline=None)
    def test_checks_count_matches_accesses(self, steps):
        detector, _cells = drive_detector(steps)
        assert detector.checks_performed == len(steps)


class TestReplayEquivalence:
    @given(access_sequences)
    @settings(max_examples=40, deadline=None)
    def test_online_and_postmortem_detection_agree(self, steps):
        """The two deployments of Section V-B give identical reports."""
        detector, _cells = drive_detector(steps)
        recorder = TraceRecorder(WORLD)
        for index, (rank, offset, is_write) in enumerate(steps):
            recorder.record_access(
                rank,
                GlobalAddress(OWNER, offset),
                AccessKind.WRITE if is_write else AccessKind.READ,
                time=float(index),
            )
        replayed = TraceReplayer(WORLD).replay(recorder.accesses())
        assert replayed.race_count == detector.race_count()
        assert {r.address for r in replayed.races} == {
            r.address for r in detector.races()
        }
