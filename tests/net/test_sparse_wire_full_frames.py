"""A sparse clock wire sends a full frame only when it must.

Both halves of a ``delta``/``truncated`` channel codec advance in lockstep,
so a full frame is owed in exactly two places:

* **First contact** — the receiver has no view of the channel yet.
* **A sparse frame that would not pay** — it would cost at least a tagged
  full frame, or its changed-entry count would not fit the one-byte count
  (:data:`MAX_SPARSE_ENTRIES`).

Everything else travels sparse, and the state a fallback full frame leaves
behind is the one the next sparse frame patches.  ``tests/net/
test_clock_wire.py`` holds the rule as a property over arbitrary clock
sequences; this file pins its edges and its effect on live runs.
"""

import pytest

from repro.net.clock_transport import (
    BYTES_PER_ENTRY,
    MAX_SPARSE_ENTRIES,
    WIRE_COUNT_BYTES,
    WIRE_DELTA_BYTES,
    WIRE_RANK_BYTES,
    WIRE_TAG_BYTES,
    ClockWireDecoder,
    ClockWireEncoder,
)
from repro.runtime.runtime import DSMRuntime, RuntimeConfig

ENTRY_COST = {
    "delta": WIRE_RANK_BYTES + WIRE_DELTA_BYTES,
    "truncated": WIRE_RANK_BYTES + BYTES_PER_ENTRY,
}


def full_bytes(world):
    return WIRE_TAG_BYTES + world * BYTES_PER_ENTRY


def sparse_bytes(wire_format, changed):
    return WIRE_TAG_BYTES + WIRE_COUNT_BYTES + changed * ENTRY_COST[wire_format]


def channel(world, wire_format):
    return ClockWireEncoder(world, wire_format), ClockWireDecoder(world, wire_format)


class TestConstruction:
    @pytest.mark.parametrize("world_size", [0, -1, -8])
    def test_a_channel_covers_at_least_one_rank(self, world_size):
        with pytest.raises(ValueError, match="world_size"):
            ClockWireEncoder(world_size, "delta")

    @pytest.mark.parametrize("wire_format", ["zstd", "", "Delta", None])
    def test_an_unknown_format_is_refused_by_both_halves(self, wire_format):
        with pytest.raises(ValueError, match="clock_wire"):
            ClockWireEncoder(4, wire_format)
        with pytest.raises(ValueError, match="clock_wire"):
            ClockWireDecoder(4, wire_format)


class TestTheCountByte:
    def test_the_count_byte_counts_up_to_255(self):
        assert WIRE_COUNT_BYTES == 1
        assert MAX_SPARSE_ENTRIES == 255

    @pytest.mark.parametrize(
        "wire_format, world, changed, full",
        [
            # A delta entry is cheaper than a full one: only the count limits.
            ("delta", 300, 1, False),
            ("delta", 300, 254, False),
            ("delta", 300, 255, False),
            ("delta", 300, 256, True),
            ("delta", 300, 300, True),
            ("delta", 255, 255, False),
            ("delta", 256, 256, True),
            # A truncated entry costs more than a full one: 2 + 10k < 1 + 8n.
            ("truncated", 4, 3, False),
            ("truncated", 4, 4, True),
            ("truncated", 255, 203, False),
            ("truncated", 255, 204, True),
            ("truncated", 300, 239, False),
            ("truncated", 300, 240, True),
        ],
    )
    def test_a_frame_is_full_exactly_when_sparse_would_not_pay(
        self, wire_format, world, changed, full
    ):
        encoder, decoder = channel(world, wire_format)
        decoder.decode(encoder.encode((0,) * world))
        clock = (1,) * changed + (0,) * (world - changed)
        frame = encoder.encode(clock)
        assert frame.full == full
        if full:
            assert frame.wire_bytes == full_bytes(world)
        else:
            assert len(frame.entries) == changed
            assert frame.wire_bytes == sparse_bytes(wire_format, changed)
        assert decoder.decode(frame) == clock


class TestStateAfterAFallback:
    @pytest.mark.parametrize(
        "wire_format, world", [("delta", 300), ("truncated", 4), ("truncated", 300)]
    )
    def test_the_next_sparse_frame_patches_the_fallback_clock(self, wire_format, world):
        encoder, decoder = channel(world, wire_format)
        decoder.decode(encoder.encode((0,) * world))
        fallback = encoder.encode((5,) * world)
        assert fallback.full
        assert decoder.decode(fallback) == (5,) * world

        clock = (5,) * (world - 1) + (7,)
        frame = encoder.encode(clock)
        assert not frame.full
        expected = 2 if wire_format == "delta" else 7
        assert frame.entries == ((world - 1, expected),)
        assert decoder.decode(frame) == clock


class TestAStableChannel:
    @pytest.mark.parametrize("world", [2, 8, 64, 300])
    @pytest.mark.parametrize("wire_format", ["delta", "truncated"])
    def test_one_advancing_component_pays_one_full_frame(self, wire_format, world):
        encoder, decoder = channel(world, wire_format)
        clock = [0] * world
        frames = []
        for step in range(200):
            clock[step % 2] += 1  # one component changes per frame
            frame = encoder.encode(clock)
            assert decoder.decode(frame) == tuple(clock)
            frames.append(frame)
        assert [frame.full for frame in frames] == [True] + [False] * 199
        assert sum(frame.wire_bytes for frame in frames) == (
            full_bytes(world) + 199 * sparse_bytes(wire_format, 1)
        )


def ring_runtime(world_size, clock_transport, clock_wire):
    """Every rank puts to its successor's cell and reads its predecessor's."""
    runtime = DSMRuntime(
        RuntimeConfig(
            world_size=world_size,
            seed=0,
            clock_transport=clock_transport,
            clock_wire=clock_wire,
        )
    )
    runtime.declare_array("cells", world_size, initial=0)

    def program(api):
        for step in range(12):
            yield from api.put("cells", step, index=(api.rank + 1) % api.world_size)
            yield from api.get("cells", index=(api.rank - 1) % api.world_size)

    runtime.set_spmd_program(program)
    return runtime


class TestLiveRuns:
    @pytest.mark.parametrize("world_size", [2, 3, 8])
    @pytest.mark.parametrize("clock_transport", ["piggyback", "roundtrip"])
    def test_a_delta_run_pays_one_full_frame_per_channel(
        self, clock_transport, world_size
    ):
        # Under delta every sparse frame of a world up to 255 ranks pays, so
        # the only full frames are the channels' first contacts.
        runtime = ring_runtime(world_size, clock_transport, "delta")
        result = runtime.run()
        channels = sum(len(nic.clock_transport._encoders) for nic in runtime.nics)
        stats = result.clock_transport_stats
        assert channels > 0
        assert stats["wire_frames_full"] == channels
        assert stats["wire_frames_sparse"] > 0

        full = ring_runtime(world_size, clock_transport, "full").run()
        assert result.race_count == full.race_count
        assert result.final_shared_values == full.final_shared_values
