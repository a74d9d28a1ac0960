"""Unit tests for vector clocks."""

import numpy as np
import pytest

from repro.core.clocks import VectorClock


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
