"""The clock wire formats reconstruct the exact clock — always.

Property acceptance for the wire-format layer: for *arbitrary* clock
sequences (monotone or not, full-frame fallbacks included), encoding through
``delta``/``truncated`` and decoding on the other end of the channel yields
the input clock bit for bit.  That identity is what makes the compressed
formats verdict-identical to ``full`` by construction — the detector always
checks with the clock the receiver would reconstruct.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DSMRuntime, RuntimeConfig
from repro.net.clock_transport import (
    BYTES_PER_ENTRY,
    CLOCK_WIRE_FORMATS,
    MAX_SPARSE_ENTRIES,
    WIRE_COUNT_BYTES,
    WIRE_DELTA_BYTES,
    WIRE_RANK_BYTES,
    WIRE_TAG_BYTES,
    ClockWireDecoder,
    ClockWireEncoder,
    validate_clock_wire,
)

SPARSE_FORMATS = ("delta", "truncated")


def clock_sequences(max_world=12, max_len=30):
    """Arbitrary sequences of same-length clocks (not necessarily monotone)."""
    return st.integers(min_value=1, max_value=max_world).flatmap(
        lambda world: st.lists(
            st.lists(
                st.integers(min_value=0, max_value=2**40),
                min_size=world,
                max_size=world,
            ),
            min_size=1,
            max_size=max_len,
        )
    )


class TestRoundTripProperty:
    @pytest.mark.parametrize("wire_format", SPARSE_FORMATS)
    @settings(max_examples=60, deadline=None)
    @given(sequence=clock_sequences())
    def test_encode_decode_reconstructs_every_clock(self, wire_format, sequence):
        world = len(sequence[0])
        encoder = ClockWireEncoder(world, wire_format)
        decoder = ClockWireDecoder(world, wire_format)
        for clock in sequence:
            frame = encoder.encode(clock)
            assert decoder.decode(frame) == tuple(clock)

    @settings(max_examples=30, deadline=None)
    @given(sequence=clock_sequences())
    def test_full_format_is_the_untagged_legacy_size(self, sequence):
        world = len(sequence[0])
        encoder = ClockWireEncoder(world, "full")
        decoder = ClockWireDecoder(world, "full")
        for clock in sequence:
            frame = encoder.encode(clock)
            assert frame.full and frame.wire_bytes == world * BYTES_PER_ENTRY
            assert decoder.decode(frame) == tuple(clock)

    @pytest.mark.parametrize("wire_format", SPARSE_FORMATS)
    @settings(max_examples=30, deadline=None)
    @given(sequence=clock_sequences(max_world=8))
    def test_sparse_frames_never_cost_more_than_a_tagged_full(
        self, wire_format, sequence
    ):
        world = len(sequence[0])
        encoder = ClockWireEncoder(world, wire_format)
        ceiling = WIRE_TAG_BYTES + world * BYTES_PER_ENTRY
        for clock in sequence:
            assert encoder.encode(clock).wire_bytes <= ceiling


class TestProtocolEdges:
    @pytest.mark.parametrize("wire_format", SPARSE_FORMATS)
    def test_first_frame_is_always_a_full_frame(self, wire_format):
        encoder = ClockWireEncoder(4, wire_format)
        assert encoder.encode((3, 0, 0, 9)).full

    @pytest.mark.parametrize("wire_format", SPARSE_FORMATS)
    @settings(max_examples=60, deadline=None)
    @given(sequence=clock_sequences())
    def test_a_frame_is_full_only_at_first_contact_or_when_sparse_would_not_pay(
        self, wire_format, sequence
    ):
        world = len(sequence[0])
        encoder = ClockWireEncoder(world, wire_format)
        entry_cost = WIRE_RANK_BYTES + (
            WIRE_DELTA_BYTES if wire_format == "delta" else BYTES_PER_ENTRY
        )
        full_bytes = WIRE_TAG_BYTES + world * BYTES_PER_ENTRY
        previous = None
        for clock in sequence:
            frame = encoder.encode(clock)
            if previous is None:
                expect_full = True
            else:
                changed = sum(a != b for a, b in zip(clock, previous))
                sparse_bytes = WIRE_TAG_BYTES + WIRE_COUNT_BYTES + changed * entry_cost
                expect_full = sparse_bytes >= full_bytes
            assert frame.full == expect_full
            assert frame.wire_bytes == (full_bytes if expect_full else sparse_bytes)
            previous = clock

    @pytest.mark.parametrize("wire_format", SPARSE_FORMATS)
    def test_unchanged_clock_costs_an_empty_sparse_frame(self, wire_format):
        encoder = ClockWireEncoder(6, wire_format)
        encoder.encode((1, 2, 3, 4, 5, 6))
        frame = encoder.encode((1, 2, 3, 4, 5, 6))
        assert not frame.full and frame.entries == ()
        assert frame.wire_bytes == WIRE_TAG_BYTES + WIRE_COUNT_BYTES

    def test_delta_entries_are_increments_truncated_are_absolute(self):
        world = 4
        for wire_format, expected in (
            ("delta", (2, 5)),        # 15 - 10
            ("truncated", (2, 15)),   # the new value itself
        ):
            encoder = ClockWireEncoder(world, wire_format)
            encoder.encode((0, 0, 10, 0))
            frame = encoder.encode((0, 0, 15, 0))
            assert frame.entries == (expected,)

    def test_sparse_entry_costs_match_the_documented_model(self):
        encoder = ClockWireEncoder(8, "delta")
        encoder.encode((0,) * 8)
        frame = encoder.encode((1, 0, 0, 0, 0, 0, 0, 2))
        assert frame.wire_bytes == (
            WIRE_TAG_BYTES + WIRE_COUNT_BYTES + 2 * (WIRE_RANK_BYTES + WIRE_DELTA_BYTES)
        )
        encoder = ClockWireEncoder(8, "truncated")
        encoder.encode((0,) * 8)
        frame = encoder.encode((1, 0, 0, 0, 0, 0, 0, 2))
        assert frame.wire_bytes == (
            WIRE_TAG_BYTES + WIRE_COUNT_BYTES + 2 * (WIRE_RANK_BYTES + BYTES_PER_ENTRY)
        )

    @pytest.mark.parametrize("world", [4, 300])
    @pytest.mark.parametrize("wire_format", SPARSE_FORMATS)
    def test_truncated_whole_vector_change_falls_back_to_a_full_frame(
        self, wire_format, world
    ):
        # A truncated entry (rank + absolute value) costs more than a full
        # entry, so a whole-vector change is cheaper as a full frame; a delta
        # entry (rank + small increment) is always cheaper than a full
        # entry, so delta falls back only when the changed count does not
        # fit the one-byte count (more than 255 changed ranks).
        encoder = ClockWireEncoder(world, wire_format)
        encoder.encode((0,) * world)
        frame = encoder.encode((1,) * world)
        if wire_format == "delta" and world <= MAX_SPARSE_ENTRIES:
            assert not frame.full
        else:
            assert frame.full
            assert frame.wire_bytes == WIRE_TAG_BYTES + world * BYTES_PER_ENTRY

    def test_sparse_before_any_full_frame_is_a_protocol_violation(self):
        from repro.net.clock_transport import ClockWireFrame

        decoder = ClockWireDecoder(3, "delta")
        rogue = ClockWireFrame(
            wire_format="delta", full=False, entries=((0, 1),), wire_bytes=8
        )
        with pytest.raises(ValueError, match="before any full frame"):
            decoder.decode(rogue)

    def test_format_mismatch_is_rejected(self):
        encoder = ClockWireEncoder(3, "delta")
        frame = encoder.encode((1, 2, 3))
        with pytest.raises(ValueError, match="channel"):
            ClockWireDecoder(3, "truncated").decode(frame)

    def test_wrong_length_clock_is_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            ClockWireEncoder(3, "delta").encode((1, 2))

    def test_validate_clock_wire(self):
        for wire_format in CLOCK_WIRE_FORMATS:
            assert validate_clock_wire(wire_format) == wire_format
        with pytest.raises(ValueError, match="clock_wire"):
            validate_clock_wire("zstd")


class TestCodecVerificationAndNormalisation:
    @pytest.mark.parametrize("wire_format", CLOCK_WIRE_FORMATS)
    def test_a_corrupting_decoder_is_caught_on_every_frame(
        self, wire_format, monkeypatch
    ):
        """The transport decodes every frame it encodes and compares."""
        runtime = DSMRuntime(
            RuntimeConfig(world_size=3, clock_transport="piggyback", clock_wire=wire_format)
        )
        transport = runtime.nics[0].clock_transport
        assert transport.encode_frame((1, 2, 3), 1).full
        decode = ClockWireDecoder.decode

        def corrupting(self, frame):
            clock = decode(self, frame)
            return (clock[0] + 1,) + clock[1:]

        monkeypatch.setattr(ClockWireDecoder, "decode", corrupting)
        with pytest.raises(RuntimeError, match="clock wire codec corrupted a clock"):
            transport.encode_frame((1, 2, 4), 1)

    @pytest.mark.parametrize("wire_format", CLOCK_WIRE_FORMATS)
    def test_the_public_encoder_normalises_whatever_it_is_given(self, wire_format):
        clocks = (
            [3, 0, 7],
            np.array([3, 1, 7], dtype=np.int64),
            (np.int64(4), np.int32(1), np.uint8(7)),
        )
        encoder = ClockWireEncoder(3, wire_format)
        decoder = ClockWireDecoder(3, wire_format)
        for clock in clocks:
            frame = encoder.encode(clock)
            flat = [
                value
                for entry in frame.entries
                for value in (entry if isinstance(entry, tuple) else (entry,))
            ]
            assert all(type(value) is int for value in flat), frame
            decoded = decoder.decode(frame)
            assert decoded == tuple(int(value) for value in clock)
            assert all(type(value) is int for value in decoded)
