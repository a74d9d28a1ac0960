"""Unit tests for the argument-validation helpers."""

import math

import pytest

from repro.util.validation import (
    require,
    require_in_range,
    require_non_negative,
    require_positive,
    require_rank,
    require_type,
    require_unique,
)


class TestRequire:
    def test_passes_when_condition_true(self):
        require(True, "should not raise")

    def test_raises_value_error_with_message(self):
        with pytest.raises(ValueError, match="broken invariant"):
            require(False, "broken invariant")


class TestRequireType:
    def test_returns_value_on_success(self):
        assert require_type(5, int, "x") == 5

    def test_accepts_tuple_of_types(self):
        assert require_type(1.5, (int, float), "x") == 1.5

    def test_raises_type_error_with_expected_names(self):
        with pytest.raises(TypeError, match="x must be int"):
            require_type("no", int, "x")

    def test_tuple_error_message_lists_alternatives(self):
        with pytest.raises(TypeError, match="int or float"):
            require_type("no", (int, float), "x")


class TestNumericValidators:
    def test_non_negative_accepts_zero(self):
        assert require_non_negative(0, "n") == 0

    def test_non_negative_rejects_negative(self):
        with pytest.raises(ValueError):
            require_non_negative(-1, "n")

    def test_non_negative_rejects_bool(self):
        with pytest.raises(TypeError):
            require_non_negative(True, "n")

    def test_non_negative_rejects_nan(self):
        # ``nan < 0`` is false: only ``not nan >= 0`` refuses it.
        with pytest.raises(ValueError, match="n must be non-negative, got nan"):
            require_non_negative(math.nan, "n")

    def test_positive_rejects_nan(self):
        with pytest.raises(ValueError, match="n must be positive, got nan"):
            require_positive(math.nan, "n")

    def test_positive_rejects_zero(self):
        with pytest.raises(ValueError):
            require_positive(0, "n")

    def test_positive_accepts_float(self):
        assert require_positive(0.5, "n") == 0.5

    def test_positive_rejects_bool(self):
        with pytest.raises(TypeError):
            require_positive(True, "n")

    def test_in_range_inclusive_bounds(self):
        assert require_in_range(0.0, 0.0, 1.0, "f") == 0.0
        assert require_in_range(1.0, 0.0, 1.0, "f") == 1.0

    def test_in_range_rejects_outside(self):
        with pytest.raises(ValueError):
            require_in_range(1.5, 0.0, 1.0, "f")


class TestRequireRank:
    def test_valid_ranks(self):
        for rank in range(4):
            assert require_rank(rank, 4) == rank

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_rank(-1, 4)

    def test_rejects_world_size(self):
        with pytest.raises(ValueError):
            require_rank(4, 4)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            require_rank(True, 4)

    def test_rejects_non_positive_world(self):
        with pytest.raises(ValueError):
            require_rank(0, 0)


class TestRequireUnique:
    def test_accepts_unique(self):
        assert list(require_unique([1, 2, 3], "xs")) == [1, 2, 3]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            require_unique([1, 2, 1], "xs")
