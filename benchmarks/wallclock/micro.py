"""The isolated micro pass: nanoseconds per operation of one layer alone.

Every entry builds the smallest object graph its operation needs -- no layer
above, none below beyond what the constructor demands -- runs the operation
in a tight loop, and reports the fastest of five batches.  The loop calls the
operation through a zero-argument callable, so every figure carries the same
~40 ns of call overhead; compare them across commits, not against each other.

An entry whose names a refactor removed is reported as unresolved, not as a
crash: construction runs inside a guard.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Optional, Tuple

from repro.core import DetectorConfig, DualClockRaceDetector, VectorClock
from repro.explore import ScheduleController, ScheduleFuzzer
from repro.memory import GlobalAddress, MemoryCell
from repro.net import Channel, ConstantLatency, Message, MessageKind
from repro.obs import MetricsRegistry, SpanTracer
from repro.sim import Simulator
from repro.util import require_non_negative

BATCHES = 5
_WORLD = 16

#: ``setup(ops)`` returns the operation, or ``(prepare, operation)`` when an
#: untimed step must run before each timed call.
Setup = Callable[[int], object]


def _message() -> Message:
    return Message(message_id=1, kind=MessageKind.PUT_DATA, source=0, destination=1)


def _sim_step(ops: int):
    sim = Simulator(seed=0)
    for _ in range(ops):
        sim.timeout(1.0)
    return sim.step


def _net_transmit(ops: int):
    channel = Channel(Simulator(seed=0), 0, 1, ConstantLatency(1.0))
    message = _message()
    return lambda: channel.transmit(message)


def _clock_new(size: int) -> Setup:
    return lambda ops: lambda: VectorClock(size)


def _clock_tick(ops: int):
    clock = VectorClock(_WORLD)
    return lambda: clock.tick(3)


def _clock_pair() -> Tuple[VectorClock, VectorClock]:
    return (
        VectorClock(list(range(1, _WORLD + 1))),
        VectorClock(list(range(2, _WORLD + 2))),
    )


def _clock_merge(ops: int):
    first, second = _clock_pair()
    return lambda: first.merge_in_place(second)


def _clock_compare(ops: int):
    first, second = _clock_pair()
    return lambda: first.happens_before(second)


def _clock_frozen(ops: int):
    return _clock_pair()[0].frozen


def _check(epochs: bool) -> Setup:
    """``on_write`` by two origins taking turns on one remote cell.

    A clock transfer from the owner orders each write after the previous one
    (untimed), so the cell stays race-free and every check compares against
    the other origin's write: one O(1) epoch probe with *epochs* on, two
    O(n) vector compares with it off.
    """

    def setup(ops: int):
        detector = DualClockRaceDetector(_WORLD, config=DetectorConfig(epochs=epochs))
        cell, address = MemoryCell(), GlobalAddress(1, 0)
        turn = [0]

        def prepare() -> None:
            turn[0] ^= 2
            detector.transfer_clock(1, turn[0])

        return prepare, lambda: detector.on_write(turn[0], address, cell, symbol="x")

    return setup


def _wire_encode(wire_format: str) -> Setup:
    def setup(ops: int):
        from repro.net.clock_transport import ClockWireEncoder

        encoder = ClockWireEncoder(_WORLD, wire_format)
        clock = [0] * _WORLD
        step = [0]

        def prepare() -> None:
            clock[step[0] % 3] += 1
            step[0] += 1

        return prepare, lambda: encoder.encode(clock)

    return setup


def _wire_decode(wire_format: str) -> Setup:
    def setup(ops: int):
        from repro.net.clock_transport import ClockWireDecoder, ClockWireEncoder

        encoder = ClockWireEncoder(_WORLD, wire_format)
        clock = [0] * _WORLD
        frames = []
        for step in range(ops):
            clock[step % 3] += 1
            frames.append(encoder.encode(clock))
        decoder = ClockWireDecoder(_WORLD, wire_format)
        pending = iter(frames)
        return lambda: decoder.decode(next(pending))

    return setup


def _decision(ops: int):
    controller = ScheduleController(ScheduleFuzzer(seed=0))
    message = _message()
    return lambda: controller.on_message_latency(message, 0, 1, 1.0)


def _counter_inc(ops: int):
    return MetricsRegistry().counter("bench.ops", rank=0).inc


def _span(enabled: bool) -> Setup:
    def setup(ops: int):
        tracer = SpanTracer(enabled=enabled)
        return lambda: tracer.end(tracer.begin("rank-P0", "op", 0.0), 1.0)

    return setup


def _require(ops: int):
    return lambda: require_non_negative(1.5, "delay")


MICROS: Dict[str, Setup] = {
    "sim.step_ns": _sim_step,
    "net.transmit_ns": _net_transmit,
    "core.clock_new_ns": _clock_new(_WORLD),
    "core.clock_new_ns.n4": _clock_new(4),
    "core.clock_tick_ns": _clock_tick,
    "core.clock_merge_ns": _clock_merge,
    "core.clock_compare_ns": _clock_compare,
    "core.clock_frozen_ns": _clock_frozen,
    "core.check_epoch_ns": _check(epochs=True),
    "core.check_full_ns": _check(epochs=False),
    **{f"net.wire_encode_ns.{fmt}": _wire_encode(fmt) for fmt in ("full", "delta", "truncated")},
    **{f"net.wire_decode_ns.{fmt}": _wire_decode(fmt) for fmt in ("full", "delta", "truncated")},
    "explore.decision_ns": _decision,
    "obs.counter_inc_ns": _counter_inc,
    "obs.span_off_ns": _span(enabled=False),
    "obs.span_on_ns": _span(enabled=True),
    "util.require_ns": _require,
}


def _batch(setup: Setup, ops: int) -> float:
    """Nanoseconds per operation over one freshly set-up batch."""
    built = setup(ops)
    clock = time.perf_counter_ns
    if not isinstance(built, tuple):
        start = clock()
        for _ in range(ops):
            built()
        return (clock() - start) / ops
    prepare, operation = built
    total = 0
    for _ in range(ops):
        prepare()
        start = clock()
        operation()
        total += clock() - start
    return total / ops


def run_micro_pass(ops: int) -> Dict[str, Optional[float]]:
    """Every micro figure; ``None`` where the operation no longer constructs."""
    results: Dict[str, Optional[float]] = {}
    for name, setup in MICROS.items():
        try:
            results[name] = min(_batch(setup, ops) for _ in range(BATCHES))
        except (ImportError, AttributeError, TypeError) as error:
            print(
                f"warning: micro {name} no longer constructs ({error!r}); "
                "reported as null",
                file=sys.stderr,
            )
            results[name] = None
    return results
