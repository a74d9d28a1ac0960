"""Exception parity of the ``require_*`` fast paths with the code they front.

``require_rank`` / ``require_non_negative`` / ``require_positive`` return at
once for the exact-type in-range case and fall through to the original body
for everything else.  The ``reference_*`` functions below are that original
body, verbatim from before the fast paths existed except for one later fix —
the range test is written ``not value >= 0`` (``> 0``), so a NaN is refused;
the properties compare return value (identity included), exception type and
exception text.

A knob is checked once, where it is written: ``DSMRuntime.set_knob`` must
refuse exactly what the knob's validator refuses, with the validator's text,
and store what it returns.  The validators are unchanged and so serve as
their own reference; a built runtime's ``RuntimeConfig`` is frozen, so no
other write reaches the NICs.

The trace records, ``Decision`` and the detector's ``RaceRecord`` and
``AccessCheckResult`` have a second, unchecked constructor
(``Cls._build``, :func:`repro.util.records.trusted_build`): it must hand out
what the public one does, and the public ones must raise what they always
raised.  ``SymbolDirectory.resolve`` remembers a located cell and must answer
like ``_locate``, the validation it fronts, every time.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DSMRuntime, RuntimeConfig
from repro.core.clocks import Epoch
from repro.core.detector import _DETAIL, AccessCheckResult, ComparisonMode
from repro.core.races import RaceRecord
from repro.explore.decisions import DECISION_KINDS, Decision
from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess
from repro.memory.directory import PlacementPolicy, SymbolDirectory
from repro.memory.public import PublicMemory
from repro.runtime.knobs import KNOBS
from repro.trace.events import OperationRecord, SyncEvent
from repro.util.records import trusted_build
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
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def reference_positive(value, name):
    require_type(value, (int, float), name)
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got bool")
    if not value > 0:
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

    def test_nan_is_refused_and_negative_zero_passes(self):
        with pytest.raises(ValueError, match="x must be non-negative, got nan"):
            require_non_negative(math.nan, "x")
        with pytest.raises(ValueError, match="x must be positive, got nan"):
            require_positive(math.nan, "x")
        assert math.copysign(1.0, require_non_negative(-0.0, "x")) == -1.0


class StrSubclass(str):
    """Equal to a legal value without being that exact object or type."""


#: Every knob's legal spellings.
SPELLINGS = sorted({text for knob in KNOBS for text in knob.matrix_values})

#: What a caller might hand ``set_knob``.
knob_values = st.one_of(
    st.sampled_from(SPELLINGS),
    st.sampled_from(SPELLINGS).map(StrSubclass),
    st.sampled_from(["Roundtrip", "piggy", "FULL", "", "sparse", "UD", "On"]),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.just(b"full"),
    st.just(["full"]),
    st.just(("roundtrip", "piggyback")),
)


class TestKnobWriteParity:
    """``set_knob`` is the one writer of a built runtime's knobs, and checks them."""

    @pytest.fixture(scope="class")
    def runtime(self):
        return DSMRuntime(RuntimeConfig(world_size=2))

    @given(st.sampled_from(KNOBS), knob_values)
    @settings(deadline=None)  # the example count is the active profile's
    def test_set_knob_raises_exactly_when_the_validator_does(self, runtime, knob, value):
        before = runtime.knobs()
        expected = outcome(knob.validate, value)
        got = outcome(runtime.set_knob, knob.name, value)
        if expected[0] == "raised":
            assert got == expected
            assert runtime.knobs() == before
        else:
            assert got == ("returned", None)
            assert runtime.knobs()[knob.name] is expected[1]


# -- trusted record constructors ------------------------------------------------------

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 40), st.floats(allow_nan=False),
    st.text(max_size=4),
)
small_ints = st.integers(0, 40)
times = st.floats(0, 1e6, allow_nan=False)
addresses = st.builds(GlobalAddress, st.integers(0, 15), st.integers(0, 255))
symbols = st.one_of(st.none(), st.sampled_from(["x", "halo", "flag"]))
clocks = st.one_of(st.none(), st.lists(small_ints, max_size=6).map(tuple))
vectors = st.lists(small_ints, max_size=6).map(tuple)
kinds = st.sampled_from(list(AccessKind))
race_values = st.tuples(
    addresses, small_ints, kinds, vectors, st.one_of(st.none(), small_ints), kinds,
    vectors, times, symbols, st.sampled_from(["put", "get", "fetch_add", "send"]),
    st.sampled_from(sorted(_DETAIL.values())),
)

#: One strategy per field, in field order, and the name of a field to assign to.
RECORDS = {
    MemoryAccess: (
        st.tuples(
            small_ints, small_ints, addresses, st.sampled_from(list(AccessKind)), scalars,
            times, symbols, st.sampled_from(["", "put", "get", "local_read"]), scalars,
        ),
        "rank",
    ),
    OperationRecord: (
        st.tuples(
            st.sampled_from(["put", "get", "send", "fetch_add"]), small_ints, addresses,
            symbols, times, times, small_ints, small_ints, st.booleans(),
            st.one_of(st.none(), times),
        ),
        "end_time",
    ),
    SyncEvent: (
        st.tuples(
            small_ints, times, st.lists(small_ints, max_size=4).map(tuple),
            st.sampled_from(["barrier", "transfer", "wr_post", "recv_complete"]), clocks,
        ),
        "clock",
    ),
    Decision: (
        st.tuples(
            st.sampled_from(DECISION_KINDS), st.text(max_size=12),
            st.one_of(st.integers(0, 9), st.floats(0, 50, allow_nan=False)),
        ),
        "choice",
    ),
    RaceRecord: (race_values, "detail"),
    AccessCheckResult: (
        st.tuples(
            st.one_of(st.none(), race_values.map(lambda values: RaceRecord(*values))),
            vectors, vectors, clocks,
            st.one_of(st.none(), st.builds(Epoch, small_ints, small_ints)),
        ),
        "race",
    ),
}


class TestTrustedConstructors:
    """``Cls._build(*values)`` hands out what ``Cls(*values)`` does, unchecked."""

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_build_and_the_public_constructor_agree(self, cls, data):
        values = data.draw(RECORDS[cls][0])
        built, public = cls._build(*values), cls(*values)
        assert type(built) is cls
        assert built == public and public == built
        assert hash(built) == hash(public)
        assert repr(built) == repr(public)
        assert str(built) == str(public)
        for field, value in zip(dataclasses.fields(cls), values):
            assert getattr(built, field.name) is value
        assert pickle.loads(pickle.dumps(built)) == public
        assert copy.deepcopy(built) == public
        assert dataclasses.replace(built) == public
        first = dataclasses.fields(cls)[0].name
        moved = dataclasses.replace(built, **{first: values[0]})
        assert type(moved) is cls and moved == public

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_a_built_record_refuses_assignment_like_a_public_one(self, cls, data):
        strategy, name = RECORDS[cls]
        values = data.draw(strategy)
        for record in (cls._build(*values), cls(*values)):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"field '{name}'"):
                delattr(record, name)
            # (CPython < 3.13 answers a name that is no field with TypeError.)
            with pytest.raises((AttributeError, TypeError)):
                record.not_a_field = 1
            assert not hasattr(record, "__dict__")

    def test_a_race_record_explains_itself_per_comparison_mode(self):
        assert set(_DETAIL) == set(ComparisonMode)
        for mode, detail in _DETAIL.items():
            assert detail == f"compare_clocks failed both ways ({mode.value})"

    def test_build_takes_exactly_one_value_per_field(self):
        with pytest.raises(TypeError):
            Decision._build("latency", "key")
        with pytest.raises(TypeError):
            SyncEvent._build(1, 0.0, (0, 1), "barrier", None, "one too many")

    def test_only_a_frozen_slots_dataclass_can_be_given_one(self):
        @dataclasses.dataclass(frozen=True)
        class WithDict:
            value: int

        @dataclasses.dataclass(slots=True)
        class NotFrozen:
            value: int

        for cls in (WithDict, NotFrozen):
            with pytest.raises(TypeError, match="frozen dataclass with slots=True"):
                trusted_build(cls)

    @pytest.mark.parametrize(
        "build, error, text",
        [
            (lambda: Decision("bogus", "k", 0), ValueError, "unknown decision kind 'bogus'"),
            (lambda: Decision(None, "k", 0), ValueError, "unknown decision kind None"),
            (lambda: GlobalAddress("0", 1), TypeError, "rank must be int, got str: '0'"),
            (lambda: GlobalAddress(0, 1.0), TypeError, "offset must be int, got float: 1.0"),
            (lambda: GlobalAddress(True, 1), TypeError, "rank and offset must be plain integers"),
            (lambda: GlobalAddress(-1, 1), ValueError, "rank must be non-negative, got -1"),
            (lambda: GlobalAddress(1, -2), ValueError, "offset must be non-negative, got -2"),
            (lambda: MemoryAccess(1), TypeError, "missing 3 required positional arguments"),
            (lambda: OperationRecord("put", 0), TypeError, "missing 7 required positional"),
            (lambda: SyncEvent(1), TypeError, "missing 2 required positional arguments"),
        ],
    )
    def test_the_public_constructors_raise_what_they_always_raised(self, build, error, text):
        with pytest.raises(error) as raised:
            build()
        assert text in str(raised.value)

    def test_the_public_constructors_keep_their_defaults(self):
        access = MemoryAccess(1, 2, GlobalAddress(0, 3), AccessKind.READ)
        assert (access.value, access.time, access.symbol, access.operation, access.observed) == (
            None, 0.0, None, "", None,
        )
        assert SyncEvent(1, 0.5, (0, 1)) == SyncEvent._build(1, 0.5, (0, 1), "barrier", None)


# -- SymbolDirectory.resolve ----------------------------------------------------------

indices = st.one_of(
    st.integers(-3, 12),
    st.booleans(),
    st.integers(0, 9).map(np.int64),
    st.integers(0, 9).map(IntSubclass),
    st.floats(0, 9),
    st.none(),
    st.just("1"),
)


class TestResolveParity:
    """A located cell is remembered; what is not an exact index is judged every time."""

    @staticmethod
    def directory():
        memories = [PublicMemory(rank, 32) for rank in range(3)]
        directory = SymbolDirectory(memories)
        directory.declare_scalar("x", owner=1)
        directory.declare_array("block", 10, PlacementPolicy.BLOCK)
        directory.declare_array("cyclic", 7, PlacementPolicy.ROUND_ROBIN)
        directory.declare_array("owned", 4, owner=2)
        return directory

    @given(st.sampled_from(["x", "block", "cyclic", "owned", "nowhere"]), indices)
    @settings(max_examples=400, deadline=None)
    def test_resolve_answers_like_locating_from_scratch(self, name, index):
        directory, fresh = self.directory(), self.directory()
        expected = outcome(fresh._locate, name, index)
        for _ in range(3):  # a miss, then hits
            assert outcome(directory.resolve, name, index) == expected

    def test_a_cell_is_one_address_object_per_directory(self):
        directory = self.directory()
        first = directory.resolve("block", 4)
        assert directory.resolve("block", 4) is first
        assert directory.resolve("block", IntSubclass(4)) == first
        assert directory.resolve("block", 4) is first
        assert self.directory().resolve("block", 4) is not first
        # Declaring with an initial value resolved every cell already.
        directory.declare_array("filled", 5, initial=0)
        before = dict(directory._resolved)
        assert [directory.resolve("filled", i) for i in range(5)] == [
            before["filled", i] for i in range(5)
        ]
        assert directory._resolved == before

    def test_an_index_that_only_hashes_like_one_is_never_served_from_the_table(self):
        directory = self.directory()
        directory.resolve("block", 1)
        for alias in (True, 1.0, np.int64(1)):
            with pytest.raises(TypeError, match="index must be an int"):
                directory.resolve("block", alias)
