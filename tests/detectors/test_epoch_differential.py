"""Property-based differential tests for the epoch fast path (satellite of
the FastTrack-style optimisation).

Two layers of evidence that ``DetectorConfig.epochs`` is an exact shortcut:

* **raw detectors** — hypothesis-generated access sequences (read/write/rmw
  × live/carried × owner-tick × explicit sync) are replayed through two
  ``DualClockRaceDetector`` instances that differ only in the knob.  The
  end states must agree on every observable: race records field-for-field,
  per-cell access/write clock contents, per-rank process clocks, and the
  detection profile's ``checks``/``joins``/race counts.  Only ``compares``
  may differ — and then only downward, traded one-for-one against
  ``epoch_hits``.

* **whole runtimes** — the labelled pattern corpus runs through the
  runtime-level harness (``tests/detectors/differential.py``), whose digest
  covers ``RunResult.metrics`` byte-for-byte, and through schedule-space
  exploration so verdicts and decision logs are diffed across many
  interleavings, not just the uncontrolled one.  A knob-matrix test crosses
  the epoch modes with clock transports, wire formats and CQ moderation —
  the fast path must be invisible under every combination.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detector import ComparisonMode, DetectorConfig, DualClockRaceDetector
from repro.memory.address import GlobalAddress
from repro.memory.public import MemoryCell
from repro.workloads.racy_patterns import pattern_corpus, rmw_pattern_corpus

from tests.detectors.differential import (
    detector_state_digest,
    explore_differential,
    run_differential,
    run_in_mode,
    total_compares,
    total_epoch_hits,
)

WORLD = 3
ADDRESSES = (GlobalAddress(0, 0), GlobalAddress(0, 1), GlobalAddress(1, 0))

# One step of a generated history: an access (live or carried), a purely
# local tick, an explicit synchronization, or taking the post-time snapshot
# a later carried access will use.  ``arg`` is the address index for
# accesses and the partner rank for syncs.
OPS = (
    "write", "read", "rmw",
    "carried-write", "carried-read", "carried-rmw",
    "tick", "sync", "snap",
)

op_sequences = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(min_value=0, max_value=WORLD - 1),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=40,
)


def replay(ops, epochs, **config_kwargs):
    """Drive one fresh detector through *ops*; return (detector, cells).

    Carried accesses use the origin's most recent ``snap`` snapshot as the
    post-time clock (or its current clock when it never snapped) — both
    replicas compute it from their own state, so the inputs stay identical
    exactly as long as the clock contents do, which is the invariant under
    test.
    """
    detector = DualClockRaceDetector(
        WORLD, DetectorConfig(epochs=epochs, **config_kwargs)
    )
    cells = {address: MemoryCell() for address in ADDRESSES}
    snapshots = {}
    for op, rank, arg in ops:
        if op == "tick":
            detector.local_event(rank)
            continue
        if op == "sync":
            if arg != rank:
                detector.transfer_clock(rank, arg)
            continue
        if op == "snap":
            snapshots[rank] = detector.current_clock(rank)
            continue
        address = ADDRESSES[arg]
        cell = cells[address]
        symbol = f"s{arg}"
        if op == "write":
            detector.on_write(rank, address, cell, symbol=symbol)
        elif op == "read":
            detector.on_read(rank, address, cell, symbol=symbol)
        elif op == "rmw":
            detector.on_rmw(rank, address, cell, symbol=symbol)
        else:
            carried = snapshots.get(rank, detector.current_clock(rank))
            if op == "carried-write":
                detector.on_write(
                    rank, address, cell, carried_clock=carried, owner_event=True
                )
            elif op == "carried-read":
                detector.on_read(rank, address, cell, carried_clock=carried)
            else:
                detector.on_rmw(rank, address, cell, carried_clock=carried)
    return detector, cells


def cell_clock_digest(cells):
    return {
        str(address): (
            cell.access_clock.frozen() if cell.access_clock is not None else None,
            cell.write_clock.frozen() if cell.write_clock is not None else None,
        )
        for address, cell in cells.items()
    }


def assert_differential(ops, **config_kwargs):
    """The core property: both replicas end byte-identical everywhere the
    fast path claims exactness, and the fast path never compares more."""
    fast, fast_cells = replay(ops, epochs=True, **config_kwargs)
    slow, slow_cells = replay(ops, epochs=False, **config_kwargs)
    assert detector_state_digest(fast) == detector_state_digest(slow)
    assert cell_clock_digest(fast_cells) == cell_clock_digest(slow_cells)
    fast_profile = fast.profiler.totals()
    slow_profile = slow.profiler.totals()
    assert slow_profile["epoch_hits"] == 0
    assert fast_profile["checks"] == slow_profile["checks"]
    assert fast_profile["joins"] == slow_profile["joins"]
    # Every check the fast path decided by a probe is a check the slow path
    # decided by full compares; nothing is decided twice or not at all.
    assert fast_profile["compares"] <= slow_profile["compares"]
    if fast_profile["epoch_hits"]:
        assert fast_profile["compares"] < slow_profile["compares"]
    return fast, slow


class TestRawDetectorDifferential:
    @given(op_sequences)
    @settings(max_examples=120, deadline=None)
    def test_default_config(self, ops):
        assert_differential(ops)

    @given(op_sequences)
    @settings(max_examples=60, deadline=None)
    def test_rmw_pairs_ordered(self, ops):
        assert_differential(ops, treat_rmw_pairs_as_ordered=True)

    @given(op_sequences)
    @settings(max_examples=40, deadline=None)
    def test_strict_comparison_disables_the_fast_path(self, ops):
        """Under the STRICT ablation the epoch machinery must stand down
        entirely: profiles are equal including ``compares``."""
        fast, slow = assert_differential(ops, comparison=ComparisonMode.STRICT)
        assert fast.profiler.totals() == slow.profiler.totals()
        assert fast.profiler.totals()["epoch_hits"] == 0


class TestPatternCorpusDifferential:
    """Whole-runtime differential over the labelled corpus (satellite 1)."""

    @pytest.mark.parametrize(
        "pattern", pattern_corpus(), ids=lambda p: p.name
    )
    def test_verdicts_and_metrics_identical(self, pattern):
        run_differential(pattern.build, seed=0)

    @pytest.mark.parametrize(
        "pattern", rmw_pattern_corpus(), ids=lambda p: p.name
    )
    def test_rmw_corpus_identical(self, pattern):
        run_differential(pattern.build, seed=0)

    def test_epoch_mode_actually_probes_on_the_corpus(self):
        """Anti-vacuity: across the corpus the fast path must fire — a
        differential test of a path that never executes proves nothing."""
        hits = 0
        saved = 0
        for pattern in pattern_corpus():
            on = run_in_mode(pattern.build, 0, "on")
            off = run_in_mode(pattern.build, 0, "off")
            hits += total_epoch_hits(on)
            saved += total_compares(off) - total_compares(on)
        assert hits > 0
        assert saved > 0


class TestScheduleSpaceDifferential:
    """Exploration-level differential: many interleavings, decision logs
    and per-schedule metrics included in the byte-compare."""

    @pytest.mark.parametrize(
        "name", ["fig5a-concurrent-puts", "fig5c-arrival-race",
                 "unsynchronized-counter", "producer-consumer-barrier"]
    )
    def test_explored_schedules_identical(self, name):
        pattern = next(p for p in pattern_corpus() if p.name == name)
        explore_differential(pattern.build, seed=0, budget=4)


class TestKnobMatrixDifferential:
    """Epoch modes crossed with the transport/wire/moderation knobs: the
    fast path must be invisible under every combination (acceptance
    criterion; the CI campaign loop runs the full-size version)."""

    @pytest.mark.parametrize("transport", ["roundtrip", "piggyback"])
    @pytest.mark.parametrize("wire", ["full", "delta", "truncated"])
    @pytest.mark.parametrize("moderation", [False, True])
    def test_matrix(self, transport, wire, moderation):
        pattern = next(
            p for p in pattern_corpus() if p.name == "fig5a-concurrent-puts"
        )

        def build(seed):
            runtime = pattern.build(seed)
            runtime.set_knob("clock_transport", transport)
            runtime.set_knob("clock_wire", wire)
            runtime.set_knob("cq_moderation", moderation)
            return runtime

        run_differential(build, seed=0)
