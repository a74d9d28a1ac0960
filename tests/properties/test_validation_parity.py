"""Exception parity of the ``require_*`` fast paths with the code they front.

``require_rank`` / ``require_non_negative`` / ``require_positive`` return at
once for the exact-type in-range case and fall through to the original body
for everything else.  The ``reference_*`` functions below are that original
body, verbatim from before the fast paths existed; the properties compare
return value (identity included), exception type and exception text.

``ClockTransport.mode`` / ``wire_format`` follow the same idiom over
``validate_clock_transport`` / ``validate_clock_wire``, which are unchanged
and so serve as their own reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DSMRuntime, RuntimeConfig
from repro.net.clock_transport import (
    CLOCK_TRANSPORT_MODES,
    CLOCK_WIRE_FORMATS,
    validate_clock_transport,
    validate_clock_wire,
)
from repro.util.validation import (
    require_non_negative,
    require_positive,
    require_rank,
    require_type,
)


def reference_non_negative(value, name):
    require_type(value, (int, float), name)
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got bool")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def reference_positive(value, name):
    require_type(value, (int, float), name)
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got bool")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def reference_rank(rank, world_size, name="rank"):
    require_type(rank, int, name)
    if isinstance(rank, bool):
        raise TypeError(f"{name} must be an int, got bool")
    require_type(world_size, int, "world_size")
    if world_size <= 0:
        raise ValueError(f"world_size must be positive, got {world_size}")
    if not (0 <= rank < world_size):
        raise ValueError(
            f"{name} must be in [0, {world_size}), got {rank}"
        )
    return rank


class IntSubclass(int):
    """Passes ``isinstance(x, int)`` but not the exact-type test."""


#: Everything a caller has been seen to pass, and the edge cases around it.
values = st.one_of(
    st.integers(-5, 40),
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -1.5]),
    st.integers(-3, 20).map(np.int64),
    st.floats(-3, 20).map(np.float64),
    st.integers(-3, 20).map(IntSubclass),
    st.text(max_size=3),
    st.none(),
    st.just((1, 2)),
)
world_sizes = st.one_of(
    st.integers(-2, 20), st.booleans(), st.none(), st.just(4.0), st.just("4"),
    st.integers(1, 20).map(np.int64),
)


def outcome(function, *args):
    """What calling *function* produced: its value, or its exception."""
    try:
        return ("returned", function(*args))
    except Exception as error:  # noqa: BLE001 - the exception is the datum
        return ("raised", type(error), str(error))


def assert_same_outcome(new, reference, *args):
    got, expected = outcome(new, *args), outcome(reference, *args)
    if expected[0] == "raised":
        assert got == expected
    else:
        # Same object back (NaN included, which is not == to itself).
        assert got[0] == "returned" and got[1] is expected[1]


class TestRequireParity:
    @given(values, st.sampled_from(["delay", "hops"]))
    @settings(max_examples=400, deadline=None)
    def test_non_negative(self, value, name):
        assert_same_outcome(require_non_negative, reference_non_negative, value, name)

    @given(values, st.sampled_from(["rows", "world_size"]))
    @settings(max_examples=400, deadline=None)
    def test_positive(self, value, name):
        assert_same_outcome(require_positive, reference_positive, value, name)

    @given(values, world_sizes, st.sampled_from(["rank", "source"]))
    @settings(max_examples=600, deadline=None)
    def test_rank(self, rank, world_size, name):
        assert_same_outcome(require_rank, reference_rank, rank, world_size, name)

    @pytest.mark.parametrize(
        "function, args, error",
        [
            (require_non_negative, (True, "x"), TypeError),
            (require_non_negative, (np.int64(1), "x"), TypeError),
            (require_non_negative, ("1", "x"), TypeError),
            (require_non_negative, (-0.5, "x"), ValueError),
            (require_positive, (0, "x"), ValueError),
            (require_positive, (False, "x"), TypeError),
            (require_rank, (True, 4), TypeError),
            (require_rank, (np.int64(1), 4), TypeError),
            (require_rank, (4, 4), ValueError),
            (require_rank, (0, 0), ValueError),
            (require_rank, (0, -1), ValueError),
            (require_rank, (0, 4.0), TypeError),
        ],
    )
    def test_the_cases_the_fast_path_must_not_swallow(self, function, args, error):
        with pytest.raises(error):
            function(*args)

    def test_nan_and_negative_zero_pass_as_before(self):
        assert math.isnan(require_non_negative(math.nan, "x"))
        assert math.isnan(require_positive(math.nan, "x"))
        assert math.copysign(1.0, require_non_negative(-0.0, "x")) == -1.0


class StrSubclass(str):
    """Equal to a legal value without being that exact object or type."""


#: What a bare ``NICConfig`` assignment might leave behind.
knob_values = st.one_of(
    st.sampled_from(CLOCK_TRANSPORT_MODES + CLOCK_WIRE_FORMATS),
    st.sampled_from(CLOCK_TRANSPORT_MODES + CLOCK_WIRE_FORMATS).map(StrSubclass),
    st.sampled_from(["Roundtrip", "piggy", "FULL", "", "sparse"]),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.just(b"full"),
    st.just(["full"]),
    st.just(("roundtrip", "piggyback")),
)


class TestKnobReadParity:
    """Every read of the transport's knobs checks them, legal or not."""

    @pytest.fixture(scope="class")
    def runtime(self):
        return DSMRuntime(RuntimeConfig(world_size=2))

    @given(knob_values)
    @settings(max_examples=200, deadline=None)
    def test_mode(self, runtime, value):
        transport = runtime.nics[1].clock_transport
        runtime.config.nic.clock_transport = value  # bare: no set_knob, no check
        assert_same_outcome(lambda _: transport.mode, validate_clock_transport, value)

    @given(knob_values)
    @settings(max_examples=200, deadline=None)
    def test_wire_format(self, runtime, value):
        transport = runtime.nics[1].clock_transport
        runtime.config.nic.clock_wire = value
        assert_same_outcome(lambda _: transport.wire_format, validate_clock_wire, value)

    def test_an_illegal_bare_assignment_raises_at_first_use_with_the_validators_text(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        runtime.config.nic.clock_transport = "carrier-pigeon"
        with pytest.raises(ValueError, match="clock_transport must be one of .*'carrier-pigeon'"):
            runtime.nics[0].clock_transport.piggyback
        runtime.config.nic.clock_wire = "morse"
        with pytest.raises(ValueError, match="clock_wire must be one of .*'morse'"):
            runtime.nics[0].clock_transport.wire_format
