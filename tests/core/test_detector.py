"""Unit tests for the dual-clock race detector (Algorithms 1, 2, 5)."""

import tracemalloc

import pytest

from repro import DSMRuntime, RuntimeConfig
from repro.core.detector import ComparisonMode, DetectorConfig, DualClockRaceDetector
from repro.core.clocks import VectorClock
from repro.core.races import RaceReport, SignalPolicy
from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind
from repro.memory.public import MemoryCell


def make_detector(world_size=3, **config_kwargs):
    return DualClockRaceDetector(world_size, config=DetectorConfig(**config_kwargs))


def addr(rank=1, offset=0):
    return GlobalAddress(rank, offset)


class TestBasicDetection:
    def test_first_access_never_races(self):
        detector = make_detector()
        cell = MemoryCell()
        result = detector.on_write(0, addr(), cell, symbol="x")
        assert not result.raced
        assert detector.race_count() == 0

    def test_unordered_writes_from_two_ranks_race(self):
        """The core of Figure 5a: two writers that never synchronized."""
        detector = make_detector()
        cell = MemoryCell()
        detector.on_write(0, addr(), cell, symbol="a")
        result = detector.on_read(2, addr(), cell, symbol="a") if False else detector.on_write(2, addr(), cell, symbol="a")
        assert result.raced
        record = result.race
        assert record.current_rank == 2
        assert record.previous_rank == 0
        assert record.symbol == "a"

    def test_concurrent_reads_do_not_race(self):
        """Figure 4: read-only concurrency is explicitly not a race."""
        detector = make_detector()
        cell = MemoryCell()
        first = detector.on_read(0, addr(), cell)
        second = detector.on_read(2, addr(), cell)
        assert not first.raced and not second.raced
        assert detector.race_count() == 0

    def test_read_after_unordered_write_races(self):
        detector = make_detector()
        cell = MemoryCell()
        # Rank 2 ticks a few times locally so its clock is not dominated.
        detector.local_event(2)
        detector.local_event(2)
        detector.on_write(0, addr(), cell, symbol="x")
        result = detector.on_read(2, addr(), cell, symbol="x")
        assert result.raced
        assert result.race.current_kind is AccessKind.READ
        assert result.race.previous_kind is AccessKind.WRITE

    def test_write_after_unordered_read_races(self):
        detector = make_detector()
        cell = MemoryCell()
        detector.local_event(2)
        detector.on_read(2, addr(), cell, symbol="x")
        result = detector.on_write(0, addr(), cell, symbol="x")
        assert result.raced

    def test_synchronization_through_owner_orders_the_writes(self):
        """A clock transfer that includes the owner's reception event orders the pair.

        The owner's clock advanced when the first write landed in its memory,
        so a synchronization involving the owner (e.g. a barrier) propagates
        that reception to the second writer.
        """
        detector = make_detector()
        cell = MemoryCell()
        detector.on_write(0, addr(rank=1), cell)
        detector.transfer_clock(1, 2)   # the owner's knowledge reaches rank 2
        result = detector.on_write(2, addr(rank=1), cell)
        assert not result.raced

    def test_issuer_only_synchronization_still_flags_arrival_race(self):
        """Syncing with the *issuer* alone does not order the arrivals (Fig. 5c logic).

        One-sided puts are fire-and-forget: knowing that P0 issued the first
        write says nothing about whether it has landed, so the second write
        can still reach the memory first and the detector keeps signalling.
        """
        detector = make_detector()
        cell = MemoryCell()
        detector.on_write(0, addr(rank=1), cell)
        detector.transfer_clock(0, 2)   # rank 2 knows the issue, not the arrival
        result = detector.on_write(2, addr(rank=1), cell)
        assert result.raced

    def test_reader_learns_and_then_writes_without_race(self):
        """Read-modify-write by a process that saw the latest write is ordered."""
        detector = make_detector()
        cell = MemoryCell()
        detector.on_write(0, addr(), cell)
        detector.on_read(2, addr(), cell)       # rank 2 learns the datum clock
        result = detector.on_write(2, addr(), cell)
        assert not result.raced

    def test_same_origin_consecutive_accesses_never_race(self):
        """Figure 2: put then get by the same process is program-ordered."""
        detector = make_detector()
        cell = MemoryCell()
        detector.on_write(2, addr(), cell)
        assert not detector.on_read(2, addr(), cell).raced
        assert not detector.on_write(2, addr(), cell).raced

    def test_third_party_still_detected_after_same_origin_sequence(self):
        detector = make_detector()
        cell = MemoryCell()
        detector.on_write(2, addr(), cell)
        detector.on_write(2, addr(), cell)
        result = detector.on_write(0, addr(), cell)
        assert result.raced


class TestClockMaintenance:
    def test_cell_clocks_are_created_on_first_access(self):
        detector = make_detector()
        cell = MemoryCell()
        assert cell.access_clock is None and cell.write_clock is None
        detector.on_read(0, addr(), cell)
        assert cell.access_clock is not None and cell.write_clock is not None

    def test_write_advances_both_clocks_read_only_access_clock(self):
        detector = make_detector()
        cell = MemoryCell()
        detector.on_write(0, addr(), cell)
        write_clock_after_write = cell.write_clock.frozen()
        detector.on_read(2, addr(), cell)
        assert cell.write_clock.frozen() == write_clock_after_write
        assert cell.access_clock.frozen() != write_clock_after_write

    def test_remote_write_ticks_owner_component_in_datum_clock(self):
        detector = make_detector()
        cell = MemoryCell()
        detector.on_write(0, addr(rank=1), cell)
        # Component 1 (the owner) advanced even though rank 1 issued nothing.
        assert cell.write_clock.component(1) == 1
        assert cell.write_clock.component(0) == 1

    def test_local_write_does_not_tick_owner_twice(self):
        detector = make_detector()
        cell = MemoryCell()
        detector.on_write(1, addr(rank=1), cell)
        assert cell.write_clock.component(1) == 1

    def test_event_clocks_increase_monotonically_per_rank(self):
        detector = make_detector()
        cell = MemoryCell()
        first = detector.on_write(0, addr(), cell).event_clock
        second = detector.on_write(0, addr(), cell).event_clock
        assert second[0] > first[0]

    def test_reader_clock_absorbs_datum_history(self):
        detector = make_detector()
        cell = MemoryCell()
        detector.on_write(0, addr(), cell)
        detector.on_read(2, addr(), cell)
        reader_clock = detector.current_clock(2)
        assert reader_clock.component(0) >= 1


class TestProcessClock:
    """Each rank's process clock is one live ``VectorClock`` of ``n`` entries."""

    def test_initially_zero(self):
        detector = make_detector()
        for rank in range(3):
            assert detector.process_clock(rank).frozen() == (0, 0, 0)

    def test_local_event_ticks_own_component_and_returns_the_clock(self):
        detector = make_detector()
        ticked = detector.local_event(2)
        assert ticked.frozen() == (0, 0, 1)
        assert detector.process_clock(2).frozen() == (0, 0, 1)

    def test_process_clock_is_the_live_clock(self):
        detector = make_detector()
        live = detector.process_clock(1)
        assert detector.process_clock(1) is live
        live.merge_in_place([2, 0, 3])
        assert detector.current_clock(1).frozen() == (2, 0, 3)

    def test_on_recv_complete_merges_the_carried_clock(self):
        detector = make_detector()
        detector.local_event(0)
        merged = detector.on_recv_complete(0, VectorClock.from_entries([0, 5, 2]))
        assert merged.frozen() == (1, 5, 2)
        assert detector.current_clock(0).frozen() == (1, 5, 2)

    def test_on_completion_retired_merges_the_carried_clock(self):
        detector = make_detector()
        detector.local_event(1)
        merged = detector.on_completion_retired(1, VectorClock.from_entries([4, 0, 1]))
        assert merged.frozen() == (4, 1, 1)
        assert detector.current_clock(1).frozen() == (4, 1, 1)

    def test_transfer_clock_merges_source_into_target_only(self):
        detector = make_detector()
        detector.local_event(0)
        detector.local_event(1)
        assert detector.transfer_clock(0, 1).frozen() == (1, 1, 0)
        assert detector.current_clock(0).frozen() == (1, 0, 0)

    def test_merges_without_a_carried_clock_change_nothing(self):
        detector = make_detector()
        detector.local_event(0)
        assert detector.on_recv_complete(0) is None
        assert detector.on_completion_retired(0, None) is None
        assert detector.current_clock(0).frozen() == (1, 0, 0)

    def test_merges_are_skipped_when_detection_is_disabled(self):
        detector = make_detector(enabled=False)
        carried = VectorClock.from_entries([3, 3, 3])
        assert detector.on_recv_complete(0, carried) is None
        assert detector.on_completion_retired(0, carried) is None
        assert detector.current_clock(0).total() == 0

    @pytest.mark.parametrize(
        "bad, error",
        [([-5, 0, 0], ValueError), ([1.9, 0, 0], TypeError), (["1", "0", "0"], TypeError)],
    )
    def test_merges_validate_foreign_sequences(self, bad, error):
        detector = make_detector()
        detector.local_event(0)
        for merge in (detector.on_recv_complete, detector.on_completion_retired):
            with pytest.raises(error):
                merge(0, bad)
        assert detector.current_clock(0).frozen() == (1, 0, 0)

    def test_merge_does_not_keep_or_touch_its_argument(self):
        detector = make_detector()
        received = VectorClock.from_entries([0, 4, 2])
        returned = detector.on_recv_complete(0, received)
        assert received.frozen() == (0, 4, 2)
        received.tick(2)
        returned.tick(0)
        assert detector.current_clock(0).frozen() == (0, 4, 2)

    def test_merge_rejects_wrong_size(self):
        detector = make_detector()
        with pytest.raises(ValueError):
            detector.on_recv_complete(0, VectorClock.from_entries([1, 2]))
        with pytest.raises(ValueError):
            detector.on_completion_retired(0, VectorClock.from_entries([1, 2, 3, 4]))
        assert detector.current_clock(0).total() == 0

    def test_process_clocks_are_independent(self):
        detector = make_detector()
        detector.local_event(0)
        detector.on_recv_complete(1, VectorClock.from_entries([0, 2, 0]))
        assert detector.current_clock(0).frozen() == (1, 0, 0)
        assert detector.current_clock(1).frozen() == (0, 2, 0)
        assert detector.current_clock(2).frozen() == (0, 0, 0)

    def test_current_clock_is_independent(self):
        detector = make_detector()
        snapshot = detector.current_clock(0)
        detector.local_event(0)
        assert snapshot.total() == 0

    def test_merge_ranks_must_be_valid(self):
        detector = make_detector()
        carried = VectorClock.from_entries([1, 1, 1])
        with pytest.raises(ValueError):
            detector.on_recv_complete(3, carried)
        with pytest.raises(ValueError):
            detector.on_completion_retired(-1, carried)
        with pytest.raises(ValueError):
            detector.transfer_clock(0, 3)
        assert all(detector.current_clock(rank).total() == 0 for rank in range(3))


class TestConfigurationVariants:
    def test_disabled_detector_does_nothing(self):
        detector = make_detector(enabled=False)
        cell = MemoryCell()
        result = detector.on_write(0, addr(), cell)
        assert not result.raced
        assert cell.access_clock is None
        assert detector.checks_performed == 0
        assert result.event_clock == ()

    def test_strict_comparison_reports_superset(self):
        """Algorithm 3 literal: equal clocks are unordered, so more reports."""
        mattern = make_detector(comparison=ComparisonMode.MATTERN)
        strict = make_detector(comparison=ComparisonMode.STRICT)
        for detector in (mattern, strict):
            cell = MemoryCell()
            detector.on_write(0, addr(), cell)
            detector.transfer_clock(0, 2)
            detector.on_write(2, addr(), cell)
        assert strict.race_count() >= mattern.race_count()

    def test_without_owner_tick_arrival_races_are_missed(self):
        """Ablation for Figure 5c: issuing-order HB misses arrival reordering."""
        def chain(detector):
            a = addr(rank=1)
            t = addr(rank=2, offset=1)
            cell_a, cell_t = MemoryCell(), MemoryCell()
            detector.on_write(0, a, cell_a)          # m1
            detector.on_write(0, t, cell_t)          # m2
            detector.on_read(2, t, cell_t)           # P2 reads m2's payload
            return detector.on_write(2, a, cell_a)   # m3

        with_tick = make_detector(write_effect_ticks_owner=True)
        without_tick = make_detector(write_effect_ticks_owner=False)
        assert chain(with_tick).raced
        assert not chain(without_tick).raced

    def test_custom_report_is_used(self):
        report = RaceReport(SignalPolicy.COLLECT)
        detector = DualClockRaceDetector(3, report=report)
        cell = MemoryCell()
        detector.on_write(0, addr(), cell)
        detector.on_write(2, addr(), cell)
        assert len(report) == 1
        assert detector.report is report


class TestOverheadAccounting:
    def test_control_messages_accumulate(self):
        """Each remote check pays Algorithm 5's fetch + update on the fabric."""
        runtime = DSMRuntime(RuntimeConfig(world_size=3))
        runtime.declare_scalar("x", owner=1, initial=0)

        def program(api):
            if api.rank == 0:
                yield from api.put("x", 1)
            elif api.rank == 2:
                yield from api.get("x")
            else:
                yield from api.compute(0.0)

        runtime.set_spmd_program(program)
        result = runtime.run()
        assert runtime.detector.checks_performed == 2
        assert result.fabric_stats.detection_messages == 2 * 2
        assert result.detection_clock_bytes == result.fabric_stats.detection_bytes > 0

    def test_clock_storage_is_one_vector_per_process(self):
        detector = make_detector(world_size=4)
        assert detector.clock_storage_entries() == 4 * 4

    def test_a_large_world_allocates_vectors_not_matrices(self):
        # An n × n matrix per process would be 256 × 512 KiB = 128 MiB here.
        tracemalloc.start()
        try:
            detector = DualClockRaceDetector(256)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert allocated < 2 * 1024 * 1024
        assert detector.clock_storage_entries() == 256 * 256

    def test_clock_storage_adds_a_vector_per_plain_clocked_cell(self):
        detector = make_detector(world_size=4, treat_rmw_pairs_as_ordered=True)
        detector.on_write(0, addr(offset=0), MemoryCell())
        detector.on_write(0, addr(offset=1), MemoryCell())
        assert detector.clock_storage_entries() == 4 * 4 + 2 * 4

    def test_invalid_rank_rejected(self):
        detector = make_detector()
        with pytest.raises(ValueError):
            detector.on_write(5, addr(), MemoryCell())


class TestEntryValidation:
    """``on_write``/``on_read``/``on_rmw`` validate once, on entry; the hot
    path behind them indexes clocks unchecked, so nothing bad may get past."""

    OPERATIONS = ("on_write", "on_read", "on_rmw")

    @pytest.mark.parametrize("operation", OPERATIONS)
    @pytest.mark.parametrize("origin, error", [(3, ValueError), (-1, ValueError), (True, TypeError), (1.0, TypeError)])
    def test_origin_validated(self, operation, origin, error):
        detector = make_detector()
        cell = MemoryCell()
        with pytest.raises(error):
            getattr(detector, operation)(origin, addr(), cell)
        assert cell.access_clock is None and detector.checks_performed == 0

    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_owner_rank_validated_before_any_clock_moves(self, operation):
        detector = make_detector()
        cell = MemoryCell()
        with pytest.raises(ValueError):
            getattr(detector, operation)(0, addr(rank=3), cell)
        # A live blocking get never touched the owner's clock, so the parent
        # let this one through; a rejected access must leave no trace.
        assert cell.access_clock is None
        assert detector.current_clock(0).total() == 0

    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_carried_clock_must_span_the_world(self, operation):
        detector = make_detector()
        cell = MemoryCell()
        with pytest.raises(ValueError):
            getattr(detector, operation)(
                0, addr(), cell, carried_clock=VectorClock.from_entries([1, 0])
            )
        assert cell.access_clock is None

    def test_public_lookups_keep_full_validation(self):
        detector = make_detector()
        for call in (detector.process_clock, detector.current_clock, detector.local_event):
            with pytest.raises(ValueError):
                call(3)
            with pytest.raises(TypeError):
                call(True)
        with pytest.raises(ValueError):
            detector.current_clock(0).component(3)
