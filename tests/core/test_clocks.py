"""Unit tests for vector and matrix clocks."""

import numpy as np
import pytest

from repro.core.clocks import MatrixClock, VectorClock


class TestVectorClockConstruction:
    def test_zeros(self):
        clock = VectorClock.zeros(4)
        assert clock.size == 4
        assert clock.total() == 0

    def test_from_entries(self):
        clock = VectorClock.from_entries([1, 2, 3])
        assert clock.entries.tolist() == [1, 2, 3]

    def test_copy_constructor(self):
        original = VectorClock.from_entries([1, 0, 2])
        clone = VectorClock(original)
        clone.tick(0)
        assert original.component(0) == 1

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            VectorClock([1, -1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            VectorClock([])

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            VectorClock(0)

    @pytest.mark.parametrize(
        "entries",
        [[1.7, 2.2], [1.0, 2.0], ["3", "4"], [True, False], [1, None], np.array([0.5])],
    )
    def test_rejects_non_integer_entries(self, entries):
        # An int64 cast would silently turn these into [1, 2] / [3, 4] / [1, 0].
        with pytest.raises(TypeError):
            VectorClock(entries)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.int64, ">i8"])
    def test_accepts_any_integer_dtype_as_int64(self, dtype):
        clock = VectorClock(np.array([1, 2, 3], dtype=dtype))
        assert clock.entries.dtype == np.int64
        assert clock.frozen() == (1, 2, 3)

    def test_rejects_values_beyond_int64(self):
        with pytest.raises((TypeError, ValueError)):
            VectorClock(np.array([2**63], dtype=np.uint64))

    def test_array_argument_is_copied(self):
        source = np.array([1, 2, 3], dtype=np.int64)
        clock = VectorClock(source)
        source[0] = 99
        clock.tick(1)
        assert clock.frozen() == (1, 3, 3)
        assert source.tolist() == [99, 2, 3]


class TestVectorClockOperations:
    def test_tick_increments_one_component(self):
        clock = VectorClock.zeros(3)
        clock.tick(1)
        clock.tick(1)
        assert clock.entries.tolist() == [0, 2, 0]

    def test_tick_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            VectorClock.zeros(3).tick(3)

    def test_merge_is_componentwise_max(self):
        a = VectorClock.from_entries([1, 5, 0])
        b = VectorClock.from_entries([3, 2, 4])
        assert a.merged(b).entries.tolist() == [3, 5, 4]

    def test_merge_in_place_mutates(self):
        a = VectorClock.from_entries([1, 0])
        a.merge_in_place([0, 7])
        assert a.entries.tolist() == [1, 7]

    @pytest.mark.parametrize("other", [[0.5, 7.9], ["1", "2"]])
    def test_merge_rejects_non_integer_entries(self, other):
        clock = VectorClock.from_entries([1, 0])
        with pytest.raises(TypeError):
            clock.merge_in_place(other)
        with pytest.raises(TypeError):
            clock.merged(other)
        assert clock.frozen() == (1, 0)

    def test_merge_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VectorClock.zeros(2).merged(VectorClock.zeros(3))

    def test_frozen_is_hashable_tuple(self):
        clock = VectorClock.from_entries([1, 2])
        assert clock.frozen() == (1, 2)
        assert hash(clock) == hash(VectorClock.from_entries([1, 2]))

    def test_entries_returns_copy(self):
        clock = VectorClock.from_entries([1, 2])
        entries = clock.entries
        entries[0] = 99
        assert clock.component(0) == 1


class TestVectorClockOrdering:
    def test_happens_before_strict_partial_order(self):
        small = VectorClock.from_entries([1, 0, 0])
        big = VectorClock.from_entries([1, 2, 0])
        assert small.happens_before(big)
        assert not big.happens_before(small)
        assert not small.happens_before(small)

    def test_concurrent_when_incomparable(self):
        a = VectorClock.from_entries([1, 0])
        b = VectorClock.from_entries([0, 1])
        assert a.concurrent_with(b)
        assert b.concurrent_with(a)

    def test_equal_clocks_not_concurrent(self):
        a = VectorClock.from_entries([2, 2])
        assert not a.concurrent_with(VectorClock.from_entries([2, 2]))

    def test_strictly_less_requires_all_components(self):
        a = VectorClock.from_entries([1, 1])
        b = VectorClock.from_entries([2, 2])
        c = VectorClock.from_entries([2, 1])
        assert a.strictly_less(b)
        assert not a.strictly_less(c)

    def test_dominates_is_reflexive(self):
        a = VectorClock.from_entries([1, 2])
        assert a.dominates(a)

    def test_equality_against_lists(self):
        assert VectorClock.from_entries([1, 2]) == [1, 2]
        assert VectorClock.from_entries([1, 2]) != [2, 1]

    def test_equality_against_non_integer_lists_is_false(self):
        assert VectorClock.from_entries([1, 2]) != [1.5, 2.5]
        assert VectorClock.from_entries([1, 2]) != ["1", "2"]

    def test_str_compact_for_small_clocks(self):
        assert str(VectorClock.from_entries([1, 1, 0])) == "110"

    def test_str_is_unambiguous_once_an_entry_has_two_digits(self):
        # "110" used to be the string of both clocks.
        two_digit = VectorClock.from_entries([1, 10])
        assert str(two_digit) == repr(two_digit) == "VectorClock([1, 10])"
        assert str(two_digit) != str(VectorClock.from_entries([1, 1, 0]))
        assert str(VectorClock.from_entries([9, 9])) == "99"

    def test_str_falls_back_to_repr_beyond_ten_processes(self):
        clock = VectorClock.zeros(11)
        assert str(clock) == repr(clock)


class TestMatrixClock:
    def test_initially_zero(self):
        clock = MatrixClock(rank=1, size=3)
        assert clock.local_component() == 0
        assert clock.principal().total() == 0

    def test_tick_increments_diagonal_and_returns_principal(self):
        clock = MatrixClock(rank=2, size=3)
        view = clock.tick()
        assert view.entries.tolist() == [0, 0, 1]
        assert clock.local_component() == 1

    def test_observe_vector_merges_principal_row(self):
        clock = MatrixClock(rank=0, size=3)
        clock.tick()
        clock.observe_vector([0, 5, 2])
        assert clock.principal().entries.tolist() == [1, 5, 2]

    def test_observe_vector_records_source_row(self):
        clock = MatrixClock(rank=0, size=3)
        clock.observe_vector([0, 4, 0], source_rank=1)
        assert clock.row(1).entries.tolist() == [0, 4, 0]

    @pytest.mark.parametrize(
        "bad, error",
        [([-5, 0, 0], ValueError), ([1.9, 0, 0], TypeError), (["1", "0", "0"], TypeError)],
    )
    def test_observe_vector_validates_foreign_sequences(self, bad, error):
        clock = MatrixClock(rank=0, size=3)
        clock.tick()
        with pytest.raises(error):
            clock.observe_vector(bad)
        with pytest.raises(error):
            clock.observe_vector(bad, source_rank=1)
        assert clock.matrix.tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]

    def test_observe_vector_does_not_keep_or_touch_its_argument(self):
        clock = MatrixClock(rank=0, size=3)
        received = VectorClock.from_entries([0, 4, 2])
        view = clock.observe_vector(received, source_rank=1)
        assert received.frozen() == (0, 4, 2)
        received.tick(2)
        view.tick(0)
        assert clock.principal().frozen() == (0, 4, 2)
        assert clock.row(1).frozen() == (0, 4, 2)

    def test_observe_vector_rejects_bad_source_before_merging(self):
        clock = MatrixClock(rank=0, size=3)
        with pytest.raises(ValueError):
            clock.observe_vector([0, 4, 2], source_rank=3)
        assert clock.matrix.tolist() == [[0, 0, 0]] * 3

    def test_observe_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            MatrixClock(0, 3).observe_vector([1, 2])

    def test_known_lower_bound_is_columnwise_min(self):
        clock = MatrixClock(rank=0, size=2)
        clock.observe_vector([3, 1])
        clock.observe_vector([2, 4], source_rank=1)
        # rows: [3,4] (principal after merges) and [2,4]
        assert clock.known_lower_bound().entries.tolist() == [2, 4]

    def test_storage_entries_is_n_squared(self):
        assert MatrixClock(0, 5).storage_entries() == 25

    def test_copy_is_independent(self):
        clock = MatrixClock(0, 2)
        clone = clock.copy()
        clock.tick()
        assert clone.local_component() == 0

    def test_rank_must_be_valid(self):
        with pytest.raises(ValueError):
            MatrixClock(rank=3, size=3)
