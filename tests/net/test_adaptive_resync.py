"""Adaptive clock-wire resync: per-channel cadence tuning, exact decode.

The adaptive cadence's contracts:

* **Validation** — the knob is a positive count or ``"adaptive"``.
* **Exactness** — every frame still decodes to the exact clock, whatever
  the cadence does (the encode/decode round trip is verified per frame by
  the transport, so a whole-run comparison pins verdicts and bytes).
* **Adaptation direction** — a channel whose sparse frames are tiny
  stretches its period (fewer full resyncs); one whose sparse frames are
  nearly full-sized tightens it, within the [MIN, MAX] clamp.
* **Deferral soundness** — a controller-deferred resync changes only byte
  accounting, never a decoded clock.
"""

import pytest

from repro.net.clock_transport import (
    ADAPTIVE_RESYNC_MAX,
    ADAPTIVE_RESYNC_MIN,
    ADAPTIVE_RESYNC_START,
    ClockWireDecoder,
    ClockWireEncoder,
    validate_clock_wire_resync,
)
from repro.runtime.runtime import DSMRuntime, RuntimeConfig


class TestValidation:
    def test_accepts_counts_and_adaptive(self):
        assert validate_clock_wire_resync(1) == 1
        assert validate_clock_wire_resync(512) == 512
        assert validate_clock_wire_resync("adaptive") == "adaptive"

    @pytest.mark.parametrize("bad", [0, -4, True, False, 2.5, "auto", None])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="clock_wire_resync"):
            validate_clock_wire_resync(bad)

    def test_runtime_config_accepts_adaptive(self):
        runtime = DSMRuntime(
            RuntimeConfig(
                world_size=2, clock_wire="delta", clock_wire_resync="adaptive"
            )
        )
        assert runtime.config.clock_wire_resync == "adaptive"
        assert runtime.nics[0].clock_transport.adaptive_resync


def drive(encoder, decoder, clocks):
    """Round-trip a clock sequence; returns (frames, total_bytes)."""
    frames = []
    for clock in clocks:
        frame = encoder.encode(clock)
        assert decoder.decode(frame) == tuple(clock), (
            "every frame must decode to the exact clock"
        )
        frames.append(frame)
    return frames, sum(f.wire_bytes for f in frames)


class TestAdaptationDirection:
    def test_stable_channel_stretches_its_period(self):
        """One slowly-advancing component => tiny sparse frames => raise."""
        world = 16
        encoder = ClockWireEncoder(
            world, "delta", resync_period=ADAPTIVE_RESYNC_START, adaptive=True
        )
        decoder = ClockWireDecoder(world, "delta")
        clock = [0] * world
        clocks = []
        for _ in range(3 * ADAPTIVE_RESYNC_START):
            clock[0] += 1
            clocks.append(tuple(clock))
        drive(encoder, decoder, clocks)
        assert encoder.period_raises >= 1
        assert encoder.resync_period > ADAPTIVE_RESYNC_START
        assert encoder.resync_period <= ADAPTIVE_RESYNC_MAX

    def test_volatile_channel_tightens_its_period(self):
        """Most components jumping => sparse frames cost ~full => lower.

        Three of four truncated components changing costs 32 wire bytes
        against a 33-byte full frame — still sparse, but a ~0.97 realized
        ratio, well over ADAPTIVE_RATIO_HIGH.  (All four changing would
        not beat the full encoding at all and never enter the window.)
        """
        world = 4
        encoder = ClockWireEncoder(
            world, "truncated", resync_period=ADAPTIVE_RESYNC_START, adaptive=True
        )
        decoder = ClockWireDecoder(world, "truncated")
        clock = [0] * world
        clocks = []
        for step in range(3 * ADAPTIVE_RESYNC_START):
            for component in range(3):
                clock[(step + component) % world] += 1
            clocks.append(tuple(clock))
        drive(encoder, decoder, clocks)
        assert encoder.period_lowers >= 1
        assert encoder.resync_period < ADAPTIVE_RESYNC_START
        assert encoder.resync_period >= ADAPTIVE_RESYNC_MIN

    def test_fixed_cadence_never_adapts(self):
        world = 8
        encoder = ClockWireEncoder(world, "delta", resync_period=16)
        decoder = ClockWireDecoder(world, "delta")
        clock = [0] * world
        clocks = []
        for _ in range(100):
            clock[0] += 1
            clocks.append(tuple(clock))
        drive(encoder, decoder, clocks)
        assert encoder.resync_period == 16
        assert encoder.period_raises == encoder.period_lowers == 0

    def test_adaptive_saves_bytes_on_a_stable_channel(self):
        """The point of the knob: fewer full frames than the fixed cadence."""
        world = 16
        clock = [0] * world
        clocks = []
        for _ in range(4 * ADAPTIVE_RESYNC_START):
            clock[0] += 1
            clocks.append(tuple(clock))
        fixed_frames, fixed_bytes = drive(
            ClockWireEncoder(world, "delta", resync_period=ADAPTIVE_RESYNC_START),
            ClockWireDecoder(world, "delta"),
            clocks,
        )
        adaptive_frames, adaptive_bytes = drive(
            ClockWireEncoder(
                world, "delta", resync_period=ADAPTIVE_RESYNC_START, adaptive=True
            ),
            ClockWireDecoder(world, "delta"),
            clocks,
        )
        full = lambda frames: sum(1 for f in frames if f.full)
        assert full(adaptive_frames) < full(fixed_frames)
        assert adaptive_bytes < fixed_bytes


class TestDeferral:
    def test_decider_defers_the_full_frame(self):
        world = 8
        deferrals = []

        def decide(since_resync, period):
            deferrals.append((since_resync, period))
            return 3 if len(deferrals) == 1 else 0

        encoder = ClockWireEncoder(
            world, "delta", resync_period=ADAPTIVE_RESYNC_MIN, adaptive=True,
            resync_decider=decide,
        )
        decoder = ClockWireDecoder(world, "delta")
        clock = [0] * world
        clocks = []
        for _ in range(3 * ADAPTIVE_RESYNC_MIN):
            clock[0] += 1
            clocks.append(tuple(clock))
        frames, _ = drive(encoder, decoder, clocks)
        assert deferrals, "a due resync must consult the decider"
        assert encoder.resyncs_deferred == 1
        # Soundness came free: drive() verified every decode already.
        assert sum(1 for f in frames if f.full) >= 1


class TestRuntimeIntegration:
    def _run(self, resync, world_size=8, seed=0):
        """One busy rank-0 → rank-1 channel in a wide world.

        With 8 ranks a delta frame on the busy channel patches ~2 of 8
        clock components — tiny against the 8-entry full frame — so the
        adaptive cadence should stretch its period.
        """
        runtime = DSMRuntime(
            RuntimeConfig(
                world_size=world_size,
                seed=seed,
                clock_transport="piggyback",
                clock_wire="delta",
                clock_wire_resync=resync,
            )
        )
        runtime.declare_array("cells", 4, owner=1, initial=0)

        def writer(api):
            for step in range(3 * ADAPTIVE_RESYNC_START):
                yield from api.put("cells", step, index=step % 4)

        def idle(api):
            yield from api.compute(1.0)

        runtime.set_program(0, writer)
        for rank in range(1, world_size):
            runtime.set_program(rank, idle)
        return runtime, runtime.run()

    def test_adaptive_run_verdict_identical_and_cheaper(self):
        _, fixed = self._run(ADAPTIVE_RESYNC_START)
        adaptive_runtime, adaptive = self._run("adaptive")
        assert adaptive.race_count == fixed.race_count
        assert adaptive.final_shared_values == fixed.final_shared_values
        state = adaptive_runtime.nics[0].clock_transport.wire_resync_state()
        assert state[1]["resync_period"] > ADAPTIVE_RESYNC_START
        assert state[1]["period_raises"] >= 1
        saved = "clock_transport.wire_bytes_saved{rank=0}"
        assert adaptive.metrics[saved] > fixed.metrics[saved], (
            "stretching the period on a stable channel must save clock bytes"
        )

    def test_volatile_runtime_channel_tightens(self):
        """At world 2 every delta frame patches both components — nearly
        full-sized — so the same workload drives the period DOWN."""
        runtime, result = self._run("adaptive", world_size=2)
        state = runtime.nics[0].clock_transport.wire_resync_state()
        assert state[1]["resync_period"] < ADAPTIVE_RESYNC_START
        assert state[1]["period_lowers"] >= 1
        assert result.knobs["clock_wire_resync"] == "adaptive"

    def test_provenance_records_the_cadence(self):
        _, result = self._run("adaptive", world_size=2)
        assert result.knobs["clock_wire_resync"] == "adaptive"
        _, fixed = self._run(32, world_size=2)
        assert fixed.knobs["clock_wire_resync"] == 32
