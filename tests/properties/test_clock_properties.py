"""Property-based tests (hypothesis) for the clock algebra.

Mattern's theorem is the foundation of the whole detection algorithm, so the
partial-order laws of vector clocks and the lattice laws of the merge
operation are checked over randomly generated clocks rather than hand-picked
examples.
"""

import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clocks import VectorClock, _adopt
from repro.core.comparator import ClockOrdering, compare_clocks, concurrent, max_clock, ordering
from repro.core.detector import ComparisonMode, DetectorConfig, DualClockRaceDetector
from repro.memory.address import GlobalAddress
from repro.memory.public import MemoryCell

# Clocks over 1..6 processes with entries in 0..20.
clock_entries = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=20), min_size=n, max_size=n)
)


def paired_entries(max_size=6):
    """Two entry lists of the same length."""
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 20), min_size=n, max_size=n),
            st.lists(st.integers(0, 20), min_size=n, max_size=n),
        )
    )


def triple_entries(max_size=5):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.tuples(
            *(st.lists(st.integers(0, 20), min_size=n, max_size=n) for _ in range(3))
        )
    )


class TestPartialOrderLaws:
    @given(clock_entries)
    def test_happens_before_is_irreflexive(self, entries):
        clock = VectorClock(entries)
        assert not clock.happens_before(clock)

    @given(paired_entries())
    def test_happens_before_is_antisymmetric(self, pair):
        a, b = VectorClock(pair[0]), VectorClock(pair[1])
        assert not (a.happens_before(b) and b.happens_before(a))

    @given(triple_entries())
    def test_happens_before_is_transitive(self, triple):
        a, b, c = (VectorClock(e) for e in triple)
        if a.happens_before(b) and b.happens_before(c):
            assert a.happens_before(c)

    @given(paired_entries())
    def test_trichotomy_of_ordering_classification(self, pair):
        a, b = VectorClock(pair[0]), VectorClock(pair[1])
        relation = ordering(a, b)
        # Exactly one classification, and it is consistent with the primitives.
        if relation is ClockOrdering.EQUAL:
            assert a == b
        elif relation is ClockOrdering.BEFORE:
            assert compare_clocks(a, b) and not compare_clocks(b, a)
        elif relation is ClockOrdering.AFTER:
            assert compare_clocks(b, a) and not compare_clocks(a, b)
        else:
            assert concurrent(a, b)

    @given(paired_entries())
    def test_concurrency_is_symmetric(self, pair):
        a, b = VectorClock(pair[0]), VectorClock(pair[1])
        assert concurrent(a, b) == concurrent(b, a)


class TestMergeLaws:
    @given(paired_entries())
    def test_merge_is_commutative(self, pair):
        assert max_clock(pair[0], pair[1]) == max_clock(pair[1], pair[0])

    @given(triple_entries())
    def test_merge_is_associative(self, triple):
        a, b, c = triple
        assert max_clock(max_clock(a, b), c) == max_clock(a, max_clock(b, c))

    @given(clock_entries)
    def test_merge_is_idempotent(self, entries):
        assert max_clock(entries, entries) == VectorClock(entries)

    @given(paired_entries())
    def test_merge_is_an_upper_bound(self, pair):
        merged = max_clock(pair[0], pair[1])
        assert merged.dominates(pair[0])
        assert merged.dominates(pair[1])

    @given(paired_entries())
    def test_merge_is_the_least_upper_bound(self, pair):
        merged = max_clock(pair[0], pair[1])
        entries = np.maximum(np.array(pair[0]), np.array(pair[1]))
        assert merged == VectorClock(entries)

    @given(clock_entries)
    def test_zero_is_the_identity(self, entries):
        zero = VectorClock.zeros(len(entries))
        assert max_clock(zero, entries) == VectorClock(entries)


class TestTickProperties:
    @given(clock_entries, st.integers(min_value=0, max_value=5))
    def test_tick_strictly_advances(self, entries, rank_seed):
        clock = VectorClock(entries)
        rank = rank_seed % clock.size
        before = clock.copy()
        clock.tick(rank)
        assert before.happens_before(clock)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=30))
    def test_process_clock_reflects_all_local_events(self, size, events):
        detector = DualClockRaceDetector(size)
        for _ in range(events):
            detector.local_event(0)
        assert detector.process_clock(0).component(0) == events
        assert detector.current_clock(0).total() == events


class TestSimulatedCausality:
    """Clocks driven by a random message history characterize causality exactly."""

    @given(
        st.integers(min_value=2, max_value=5),
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=40
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_message_chain_implies_happens_before(self, world, raw_events, rng):
        """Sending a message always makes the send happen-before the receive."""
        clocks = [VectorClock.zeros(world) for _ in range(world)]
        snapshots = []
        for src_raw, dst_raw in raw_events:
            src, dst = src_raw % world, dst_raw % world
            if src == dst:
                clocks[src].tick(src)
                continue
            clocks[src].tick(src)
            send_snapshot = clocks[src].copy()
            clocks[dst].merge_in_place(send_snapshot)
            clocks[dst].tick(dst)
            snapshots.append((send_snapshot, clocks[dst].copy()))
        for send_clock, receive_clock in snapshots:
            assert send_clock.happens_before(receive_clock)


# -- the trusted clock kernel ------------------------------------------------------
#
# ``core`` wraps arrays it produced itself without re-validating or re-copying
# them (``VectorClock._adopt``).  The one hazard of that path is aliasing: a
# returned clock that shares memory with the process clock (or the operand) it
# was built from.  Every ``VectorClock``-returning method is therefore checked
# against a pure-Python model, mutated, and checked again from both sides.

#: A process-clock history: ticks (``None``) and received vectors, over a
#: world of 1..5 processes.
process_histories = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, n - 1),
        st.lists(
            st.one_of(st.none(), st.lists(st.integers(0, 20), min_size=n, max_size=n)),
            max_size=12,
        ),
    )
)


def _replay_history(detector, rank, history):
    """Drive *rank*'s process clock and a list model through *history*."""
    model = [0] * detector.world_size
    for step in history:
        if step is None:
            detector.local_event(rank)
            model[rank] += 1
        else:
            detector.on_recv_complete(rank, VectorClock(step))
            model = [max(a, b) for a, b in zip(model, step)]
    return model


def _scribble(clock):
    """Mutate *clock* through every in-place operation it has."""
    for rank in range(clock.size):
        clock.tick(rank)
    clock.merge_in_place([1000] * clock.size)


def _assert_built_like_public(result, expected_entries):
    """*result* is what ``VectorClock(expected_entries)`` would have built."""
    reference = VectorClock(expected_entries)
    assert result == reference
    assert result.frozen() == tuple(expected_entries)
    assert result.entries.dtype == reference.entries.dtype == np.int64
    assert result.entries.shape == reference.entries.shape
    assert hash(result) == hash(reference)


class TestTrustedPathAliasing:
    @given(paired_entries())
    def test_copy_and_merged_are_independent_of_their_operands(self, pair):
        for produce, expected in (
            (lambda a, b: a.copy(), list(pair[0])),
            (lambda a, b: a.merged(b), [max(x, y) for x, y in zip(*pair)]),
            (lambda a, b: a.merged(list(pair[1])), [max(x, y) for x, y in zip(*pair)]),
        ):
            a, b = VectorClock(pair[0]), VectorClock(pair[1])
            result = produce(a, b)
            _assert_built_like_public(result, expected)
            _scribble(result)
            assert a.frozen() == tuple(pair[0]) and b.frozen() == tuple(pair[1])
            kept = result.frozen()
            _scribble(a)
            _scribble(b)
            assert result.frozen() == kept

    @given(process_histories, st.data())
    def test_detector_current_clock_is_a_private_copy(self, world, data):
        size, rank, history = world
        received = data.draw(st.lists(st.integers(0, 20), min_size=size, max_size=size))
        detector = DualClockRaceDetector(size)
        model = _replay_history(detector, rank, history)
        live = detector.process_clock(rank)
        current = detector.current_clock(rank)
        _assert_built_like_public(current, model)
        _scribble(current)
        assert live.frozen() == tuple(model)
        kept = current.frozen()
        detector.local_event(rank)
        model[rank] += 1
        assert current.frozen() == kept
        assert detector.current_clock(rank).frozen() == tuple(model)

        # The mutators return the clock *after* their update, detached from it.
        ticked = detector.local_event(rank)
        model[rank] += 1
        _assert_built_like_public(ticked, model)
        _scribble(ticked)
        assert live.frozen() == tuple(model)
        argument = VectorClock(received)
        for merge in (detector.on_recv_complete, detector.on_completion_retired):
            observed = merge(rank, argument)
            model = [max(a, b) for a, b in zip(model, received)]
            _assert_built_like_public(observed, model)
            _scribble(observed)
            assert live.frozen() == tuple(model)
        assert argument.frozen() == tuple(received)
        _scribble(argument)
        assert live.frozen() == tuple(model)

    @given(process_histories, st.data())
    def test_a_cloned_detector_carries_its_own_process_clocks(self, world, data):
        """A deep copy or pickle of a detector whose process clocks still
        shared arrays with the source's would tick the source."""
        size, rank, history = world
        received = data.draw(st.lists(st.integers(0, 20), min_size=size, max_size=size))
        cloners = {
            "deepcopy": copy.deepcopy,
            "pickle": lambda detector: pickle.loads(pickle.dumps(detector)),
        }
        for name, clone_of in cloners.items():
            source = DualClockRaceDetector(size)
            model = _replay_history(source, rank, history)
            clone = clone_of(source)
            assert clone.current_clock(rank).frozen() == tuple(model), name
            clone.local_event(rank)
            clone.on_recv_complete(rank, VectorClock(received))
            assert source.current_clock(rank).frozen() == tuple(model), name
            expected = [max(a, b) for a, b in zip(model, received)]
            expected[rank] = max(model[rank] + 1, received[rank])
            assert clone.current_clock(rank).frozen() == tuple(expected), name
            source.local_event(rank)
            source.on_recv_complete(rank, VectorClock([3000] * size))
            assert clone.current_clock(rank).frozen() == tuple(expected), name

    @given(paired_entries())
    def test_merge_in_place_matches_merged_and_reads_its_argument_only(self, pair):
        """Barriers and replay join through ``merge_in_place`` on the live
        process clock: same result as ``merged``, the clock itself returned,
        the argument untouched."""
        expected = VectorClock(pair[0]).merged(VectorClock(pair[1]))
        for argument in (VectorClock(pair[1]), list(pair[1]), np.array(pair[1])):
            clock = VectorClock(pair[0])
            assert clock.merge_in_place(argument) is clock
            assert clock == expected
            assert VectorClock(argument).frozen() == tuple(pair[1])

    @given(clock_entries)
    def test_adopt_wraps_without_copying_and_public_results_never_do(self, entries):
        array = np.array(entries, dtype=np.int64)
        adopted = _adopt(array)
        _assert_built_like_public(adopted, entries)
        # The trusted constructor shares its argument — which is why only
        # fresh arrays may be adopted ...
        array[0] += 5
        assert adopted.frozen()[0] == entries[0] + 5
        # ... and every clock a public method derives from it is its own.
        for derived in (adopted.copy(), adopted.merged(adopted), VectorClock(adopted)):
            kept = derived.frozen()
            _scribble(adopted)
            assert derived.frozen() == kept

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["on_write", "on_read", "on_rmw"]),
                st.integers(0, 2),
                st.integers(0, 2),
                st.booleans(),
            ),
            max_size=25,
        )
    )
    @settings(deadline=None)
    def test_the_kernel_reads_a_carried_clock_and_never_writes_it(self, steps):
        """The check kernel uses a carried clock's entries in place (no
        defensive copy): nothing it does may show in the caller's object."""
        detector = DualClockRaceDetector(3)
        cells = {}
        carried = detector.current_clock(0)
        for entry_point, origin, owner, refresh in steps:
            if refresh:
                detector.local_event(origin)
                carried = detector.current_clock(origin)
            before = carried.frozen()
            address = GlobalAddress(owner, 0)
            result = getattr(detector, entry_point)(
                origin, address, cells.setdefault(owner, MemoryCell()), carried_clock=carried
            )
            assert carried.frozen() == before == result.event_clock
            # The result's snapshots are detached from the live state too.
            kept = (result.datum_access_clock, result.datum_write_clock)
            detector.on_write((origin + 1) % 3, address, cells[owner])
            assert (result.datum_access_clock, result.datum_write_clock) == kept

    @given(clock_entries)
    def test_frozen_elements_are_exact_python_ints(self, entries):
        for clock in (VectorClock(entries), VectorClock(np.array(entries, dtype=np.int32))):
            frozen = clock.frozen()
            assert all(type(value) is int for value in frozen)
            assert json.loads(json.dumps(frozen)) == list(entries)
            assert json.loads(json.dumps(clock.merged(clock).frozen())) == list(entries)


def related_pairs(max_size=6):
    """Clock pairs covering equal, dominated either way, and concurrent."""

    def shape(pair_and_relation):
        (first, second), relation = pair_and_relation
        if relation == "equal":
            second = list(first)
        elif relation == "before":
            second = [max(a, b) for a, b in zip(first, second)]
        elif relation == "after":
            first = [max(a, b) for a, b in zip(first, second)]
        return first, second

    return st.tuples(
        paired_entries(max_size),
        st.sampled_from(["equal", "before", "after", "free"]),
    ).map(shape)


class TestFusedRaceTests:
    """The one-pass Mattern predicates against the three-call formulation."""

    @given(related_pairs())
    def test_clocks_unordered_matches_the_three_call_formulation(self, pair):
        a, b = VectorClock(pair[0]), VectorClock(pair[1])
        reference = not (a == b) and not compare_clocks(a, b) and not compare_clocks(b, a)
        config = DetectorConfig()
        assert config.clocks_unordered(a, b) is reference
        assert config.clocks_unordered(b, a) is reference
        assert a.concurrent_with(b) is reference
        assert concurrent(a, b) is reference
        assert (ordering(a, b) is ClockOrdering.CONCURRENT) is reference
        strict = DetectorConfig(comparison=ComparisonMode.STRICT)
        assert strict.clocks_unordered(a, b) is (
            not a.strictly_less(b) and not b.strictly_less(a)
        )

    @given(related_pairs())
    def test_reference_unknown_matches_the_two_call_formulation(self, pair):
        datum, event = VectorClock(pair[0]), VectorClock(pair[1])
        reference = not (datum == event) and not compare_clocks(datum, event)
        assert DetectorConfig().reference_unknown(datum, event) is reference
        strict = DetectorConfig(comparison=ComparisonMode.STRICT)
        assert strict.reference_unknown(datum, event) is (not datum.strictly_less(event))

    @given(clock_entries)
    def test_size_mismatch_still_raises(self, entries):
        clock, longer = VectorClock(entries), VectorClock(list(entries) + [0])
        config = DetectorConfig()
        for first, second in ((clock, longer), (longer, clock)):
            with pytest.raises(ValueError):
                config.clocks_unordered(first, second)
            with pytest.raises(ValueError):
                config.reference_unknown(first, second)
            with pytest.raises(ValueError):
                first.concurrent_with(second)


#: Entries up to 2**62.  A pair's entries are all small or all within a few
#: thousand of the top, where float64 cannot tell neighbours apart, so an
#: order test rewritten through a float subtraction (or cast) fails.
BIG = 2 ** 62


def big_order_pairs():
    """Equal, dominated either way, and concurrent pairs of 1-64 big entries."""

    def shape(drawn):
        first, steps, relation = drawn
        raised = [a + abs(s) for a, s in zip(first, steps)]
        if relation == "equal":
            return first, list(first)
        if relation == "before":
            return first, raised
        if relation == "after":
            return raised, first
        # Concurrent whenever one step is up and another down.
        return first, [max(0, a + s) for a, s in zip(first, steps)]

    def draw(size_and_base):
        n, base = size_and_base
        return st.tuples(
            st.lists(st.integers(base, base + 4093), min_size=n, max_size=n),
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            st.sampled_from(["equal", "before", "after", "concurrent"]),
        )

    return (
        st.tuples(st.integers(1, 64), st.sampled_from([0, BIG - 4096]))
        .flatmap(draw)
        .map(shape)
    )


class TestOrderTestsAgainstPythonReference:
    """The vectorized order tests against ``all(x <= y ...)`` on Python ints."""

    @given(big_order_pairs())
    def test_each_order_test_matches_its_pure_python_reference(self, pair):
        first, second = pair
        le = all(x <= y for x, y in zip(first, second))
        ge = all(x >= y for x, y in zip(first, second))
        a, b = VectorClock(first), VectorClock(second)
        assert a.dominates(b) is ge
        assert a.happens_before(b) is (le and any(x < y for x, y in zip(first, second)))
        assert a.strictly_less(b) is all(x < y for x, y in zip(first, second))
        assert a.concurrent_with(b) is (not le and not ge)
        assert b.concurrent_with(a) is (not le and not ge)

    def test_the_virgin_test_sees_one_nonzero_entry_at_any_position(self):
        """An all-zero reference is virgin (no compare); one non-zero entry
        anywhere is not, and the concurrent pair it leaves is a race."""
        world, address = 5, GlobalAddress(0, 3)
        detector = DualClockRaceDetector(world)
        assert detector.on_write(1, address, MemoryCell()).race is None
        assert detector.on_read(2, address, MemoryCell()).race is None
        profile = detector.profiler.snapshot()
        assert profile["write_live"]["compares"] == profile["read_live"]["compares"] == 0
        for position in range(world):
            entries = [0] * world
            entries[position] = BIG
            for kind in ("write_live", "read_live"):
                detector = DualClockRaceDetector(world)
                cell = MemoryCell()
                cell.access_clock = VectorClock(entries)
                cell.write_clock = VectorClock(entries)
                access = detector.on_write if kind == "write_live" else detector.on_read
                result = access((position + 1) % world, address, cell)
                assert result.race is not None, (position, kind)
                assert detector.profiler.snapshot()[kind]["compares"] == 2
