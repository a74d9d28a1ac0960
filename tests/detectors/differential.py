"""Digests that make a behaviour-preserving rewrite cheap to prove.

The epoch fast path (``DetectorConfig.epochs`` / ``RuntimeConfig.
detector_epochs``) is an *exact* shortcut: it changes which code path
decides a check, never what the check decides or which clock contents the
merges produce.  The digests here pin what must then be byte-identical:

* :func:`run_result_digest` — one run: every race record (clocks and
  detail string included), ``RunResult.metrics``, final memory, elapsed
  sim-time and the detection profile's ``checks`` / ``joins`` (only
  ``compares`` may drop, traded for ``epoch_hits``).  The knob promise
  (``test_knob_promise.py``, P4) compares it across epoch modes;
* :func:`detector_state_digest` — a raw detector's end state, for the
  property tests that drive two detectors directly;
* :class:`CheckStream` — every check one detector makes, against the
  golden recording of a reference commit.

Byte-for-byte means exactly that: digests are compared as
``json.dumps(..., sort_keys=True)`` strings, so an ordering difference or
a numpy scalar leaking into a payload fails just as loudly as a wrong
verdict.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.detector import ComparisonMode, DetectorConfig, DualClockRaceDetector
from repro.core.races import RaceRecord
from repro.memory.address import GlobalAddress
from repro.memory.consistency import AccessKind, MemoryAccess
from repro.memory.public import MemoryCell
from repro.runtime.runtime import DSMRuntime, RunResult, RuntimeConfig
from repro.trace import replay as replay_module
from repro.trace.events import SyncEvent
from repro.trace.replay import TraceReplayer
from repro.workloads import RandomAccessWorkload, SendRecvStencilWorkload
from repro.workloads.racy_patterns import pattern_corpus, rmw_pattern_corpus

#: Profile fields that MUST match between modes.  ``compares`` and
#: ``epoch_hits`` are the two the fast path intentionally trades against
#: each other; everything else is pinned.
PINNED_PROFILE_FIELDS = ("checks", "joins")

MODES = ("on", "off")


# -- digests -------------------------------------------------------------------------


def race_digest(record: RaceRecord) -> Dict[str, object]:
    """Every observable field of one race record, JSON-safe."""
    return {
        "address": str(record.address),
        "symbol": record.symbol,
        "current_rank": record.current_rank,
        "current_kind": record.current_kind.value,
        "current_clock": [int(c) for c in record.current_clock],
        "previous_rank": record.previous_rank,
        "previous_kind": record.previous_kind.value,
        "previous_clock": [int(c) for c in record.previous_clock],
        "time": record.time,
        "operation": record.operation,
        "detail": record.detail,
    }


def run_result_digest(result: RunResult) -> str:
    """The byte-for-byte comparable view of one run.

    Everything except the two profile fields the fast path is *allowed*
    to change; serialized canonically so the comparison is a string
    equality.
    """
    pinned_profile = {
        bucket: {f: counts[f] for f in PINNED_PROFILE_FIELDS}
        for bucket, counts in sorted(result.detection_profile.items())
    }
    payload = {
        "races": [race_digest(r) for r in result.races.records()],
        "metrics": result.metrics,
        "final_shared_values": {
            symbol: [repr(v) for v in values]
            for symbol, values in sorted(result.final_shared_values.items())
        },
        "elapsed_sim_time": result.elapsed_sim_time,
        "detection_profile_pinned": pinned_profile,
    }
    return json.dumps(payload, sort_keys=True)


def detector_state_digest(detector: DualClockRaceDetector) -> str:
    """End-state digest of a raw detector: clocks, verdicts, pinned profile.

    Used by the property tests that drive two detectors directly (no
    runtime): cell clocks live on the caller's ``MemoryCell`` objects, so
    only process clocks, races and profile are captured here.
    """
    payload = {
        "process_clocks": {
            rank: list(detector.current_clock(rank).frozen())
            for rank in range(detector.world_size)
        },
        "races": [race_digest(r) for r in detector.report.records()],
        "profile_pinned": {
            bucket: {f: counts[f] for f in PINNED_PROFILE_FIELDS}
            for bucket, counts in sorted(detector.profiler.snapshot().items())
        },
        "race_counts": len(detector.report),
    }
    return json.dumps(payload, sort_keys=True)


# -- the check-stream digest ---------------------------------------------------------
#
# Everything above diffs two *modes* of one commit.  The check stream pins one
# commit against a recording of another: every instrumented access, with
# every ``AccessCheckResult`` field, then the end state of every clock the
# detector keeps.  ``tests/detectors/golden_check_stream.json`` holds one
# digest per scenario below; a rewrite of the check kernel must reproduce all
# of them (``python -m tests.detectors.differential --record`` rewrites the
# file — only ever from a commit whose detector is the reference).

GOLDEN_CHECK_STREAM = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_check_stream.json"
)

#: ``DetectorConfig`` overrides, one per ablation the kernel must honour.
ABLATIONS: Dict[str, Dict[str, object]] = {
    "default": {},
    "strict": {"comparison": ComparisonMode.STRICT},
    "rmw-ordered": {"treat_rmw_pairs_as_ordered": True},
    "no-owner-tick": {"write_effect_ticks_owner": False},
}

#: The entry point that checks each kind of access.
_ENTRY_POINTS = {
    AccessKind.WRITE: "on_write", AccessKind.READ: "on_read", AccessKind.RMW: "on_rmw",
}


def _clock_list(clock) -> Optional[List[int]]:
    return None if clock is None else [int(entry) for entry in clock.frozen()]


class CheckStream:
    """Records every check made through one detector.

    The check kernel is shadowed on the *instance*, so whoever drives the
    detector — the NICs and queue pairs through the entry points, the
    replayer through ``_check`` — records without knowing.  Each
    record carries every ``AccessCheckResult`` field, derived by the
    detector's own ``_result`` exactly as the entry points derive theirs
    (the replayer builds no result; the stream builds it for the digest).
    """

    def __init__(self, detector: DualClockRaceDetector) -> None:
        self.detector = detector
        self.accesses = 0
        self._hash = hashlib.sha256()
        self._cells: Dict[GlobalAddress, MemoryCell] = {}
        detector._instrument = self._recording(detector._instrument)

    def _feed(self, payload: object) -> None:
        self._hash.update(json.dumps(payload, sort_keys=True).encode())

    def _recording(self, kernel):
        detector = self.detector

        def record(
            access_kind, origin, address, cell, symbol, time, operation,
            carried_clock, *resolved,
        ):
            race = kernel(
                access_kind, origin, address, cell, symbol, time, operation,
                carried_clock, *resolved,
            )
            result = detector._result(race, origin, cell, carried_clock)
            self.accesses += 1
            self._cells[address] = cell
            epoch = result.datum_epoch
            self._feed(
                {
                    "entry": _ENTRY_POINTS[access_kind[0]],
                    "origin": origin,
                    "address": str(address),
                    "race": None if result.race is None else race_digest(result.race),
                    "event_clock": list(result.event_clock),
                    "datum_access_clock": list(result.datum_access_clock),
                    "datum_write_clock": (
                        None
                        if result.datum_write_clock is None
                        else list(result.datum_write_clock)
                    ),
                    "datum_epoch": None if epoch is None else [epoch.rank, epoch.scalar],
                }
            )
            return race

        return record

    def digest(self) -> Dict[str, object]:
        """Close the stream with the end state; returns the golden entry."""
        detector = self.detector
        plain = detector._plain_clocks
        self._feed(
            {
                "cells": {
                    str(address): [
                        _clock_list(cell.access_clock),
                        _clock_list(cell.write_clock),
                        _clock_list(plain.get(address)),
                    ]
                    for address, cell in sorted(self._cells.items())
                },
                "process_clocks": [
                    list(detector.current_clock(rank).frozen())
                    for rank in range(detector.world_size)
                ],
                "profile": detector.profiler.snapshot(),
                "report": [race_digest(r) for r in detector.report.records()],
                "checks_performed": detector.checks_performed,
                "plain_clock_entries": sum(clock.size for clock in plain.values()),
            }
        )
        return {
            "accesses": self.accesses,
            "races": len(detector.report),
            "sha256": self._hash.hexdigest(),
        }


def runtime_check_stream(
    build: Callable[[int], DSMRuntime], mode: str, ablation: str, seed: int = 0
) -> Dict[str, object]:
    """Build, pin the epoch mode and the ablation, run, digest."""
    runtime = build(seed)
    runtime.set_knob("detector_epochs", mode)
    for name, value in ABLATIONS[ablation].items():
        setattr(runtime.detector.config, name, value)
    stream = CheckStream(runtime.detector)
    runtime.run()
    return stream.digest()


def generated_trace(
    seed: int, world_size: int = 4, steps: int = 160
) -> Tuple[List[MemoryAccess], List[SyncEvent]]:
    """A fixed-seed trace exercising every path of the replayer.

    Live and posted (carried) puts / gets / atomics by owner and foreign
    origins, gathered sends with their scatter writes, completion
    retirements, barriers and one sync kind the replayer does not know.
    Post-time snapshots come from a program-order-only model of the process
    clocks, so they are stale (they miss what data flow taught the poster)
    but never ahead of the poster's own ticks — the shape real snapshots
    have.
    """
    rng = random.Random(seed)
    model = [[0] * world_size for _ in range(world_size)]
    addresses = [
        GlobalAddress(rank, offset) for rank in range(world_size) for offset in (0, 1)
    ]
    accesses: List[MemoryAccess] = []
    syncs: List[SyncEvent] = []
    ids = itertools.count(1)
    now = [0.0]

    def tick(rank: int) -> tuple:
        model[rank][rank] += 1
        return tuple(model[rank])

    def joined(*clocks) -> tuple:
        return tuple(max(column) for column in zip(*clocks))

    def sync(kind: str, participants: tuple, clock: Optional[tuple] = None) -> None:
        now[0] += 1.0
        syncs.append(SyncEvent(next(ids), now[0], participants, kind, clock))

    def access(rank: int, address: GlobalAddress, kind: AccessKind, operation: str) -> None:
        now[0] += 1.0
        accesses.append(
            MemoryAccess(
                next(ids), rank, address, kind, value=len(accesses), time=now[0],
                symbol=f"s{address.rank}.{address.offset}", operation=operation,
            )
        )

    operations = {
        AccessKind.WRITE: "put", AccessKind.READ: "get", AccessKind.RMW: "fetch_add",
    }
    for _ in range(steps):
        choice = rng.random()
        rank = rng.randrange(world_size)
        address = rng.choice(addresses)
        kind = rng.choice(list(operations))
        if choice < 0.40:  # blocking one-sided access
            tick(rank)
            access(rank, address, kind, operations[kind])
        elif choice < 0.65:  # posted one-sided access, retired or left unwaited
            snapshot = tick(rank)
            sync("wr_post", (rank, address.rank))
            for _ in range(rng.randrange(3)):  # the poster runs on meanwhile
                tick(rank)
                access(rank, rng.choice(addresses), AccessKind.WRITE, "put")
            sync("wr_transfer", (rank, address.rank), snapshot)
            access(rank, address, kind, operations[kind])
            if rng.random() < 0.6:
                sync("wr_retire", (rank, address.rank), joined(snapshot, model[address.rank]))
        elif choice < 0.80:  # gathered send, scatter writes, retirement
            receiver = rng.randrange(world_size)
            if receiver == rank:
                continue
            posted = tick(rank)
            sync("send_post", (rank, receiver))
            buffer = tick(receiver)
            sync("recv_post", (receiver, rank))
            carried = joined(posted, buffer)
            sync("transfer", (rank, receiver), carried)
            for offset in range(rng.randrange(1, 3)):
                access(rank, GlobalAddress(receiver, offset), AccessKind.WRITE, "send")
            if rng.random() < 0.7:
                sync("recv_complete", (receiver, rank), carried)
                model[receiver] = list(joined(model[receiver], carried))
        elif choice < 0.92:  # barrier over a subset
            members = tuple(sorted(rng.sample(range(world_size), rng.randrange(2, world_size + 1))))
            common = joined(*(model[member] for member in members))
            for member in members:
                model[member] = list(common)
            sync(rng.choice(("barrier", "notify")), members)
        elif choice < 0.96:
            sync("from-a-newer-producer", (rank,))
        else:  # purely local access on the owner's own cell
            tick(address.rank)
            access(address.rank, address, kind, operations[kind])
    return accesses, syncs


def replay_check_stream(seed: int, mode: str, ablation: str) -> Dict[str, object]:
    """Replay :func:`generated_trace` through a recorded ``TraceReplayer`` run."""
    accesses, syncs = generated_trace(seed)
    config = DetectorConfig(epochs=(mode == "on"), **ABLATIONS[ablation])
    streams: List[CheckStream] = []

    def recorded_detector(*args, **keywords):
        detector = DualClockRaceDetector(*args, **keywords)
        streams.append(CheckStream(detector))
        return detector

    original = replay_module.DualClockRaceDetector
    replay_module.DualClockRaceDetector = recorded_detector
    try:
        outcome = TraceReplayer(4, config=config).replay(accesses, syncs)
    finally:
        replay_module.DualClockRaceDetector = original
    (stream,) = streams
    entry = stream.digest()
    assert outcome.accesses_replayed == entry["accesses"] == len(accesses)
    return entry


def _stencil(seed: int) -> DSMRuntime:
    config = RuntimeConfig(clock_transport="piggyback", clock_wire="delta")
    return SendRecvStencilWorkload(world_size=4, iterations=3, config=config).build(seed)


def _random_access(seed: int) -> DSMRuntime:
    return RandomAccessWorkload(world_size=4, operations_per_rank=40).build(seed)


GENERATED_TRACE_SEEDS = (0, 1, 2, 3, 4, 5)


def check_stream_scenarios() -> Dict[str, Callable[[str, str], Dict[str, object]]]:
    """``name -> run(mode, ablation)`` for every scenario of the golden file."""
    scenarios: Dict[str, Callable[[str, str], Dict[str, object]]] = {}
    builders = {pattern.name: pattern.build for pattern in pattern_corpus() + rmw_pattern_corpus()}
    builders["send-recv-stencil-piggyback-delta"] = _stencil
    builders["random-access"] = _random_access
    for name, build in builders.items():
        scenarios[name] = functools.partial(runtime_check_stream, build)
    for seed in GENERATED_TRACE_SEEDS:
        scenarios[f"generated-trace-{seed}"] = functools.partial(replay_check_stream, seed)
    return scenarios


def check_stream_key(scenario: str, mode: str, ablation: str) -> str:
    """The golden file's key for one (scenario, epoch mode, ablation) cell."""
    return f"{scenario}|epochs={mode}|{ablation}"


def record_golden_check_stream(path: str = GOLDEN_CHECK_STREAM) -> int:
    """Rewrite the golden file from this checkout; returns the entry count."""
    golden = {
        check_stream_key(name, mode, ablation): run(mode, ablation)
        for name, run in check_stream_scenarios().items()
        for mode in MODES
        for ablation in ABLATIONS
    }
    lines = [f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}" for key in sorted(golden)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    return len(golden)


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python -m tests.detectors.differential --record")
    print(f"recorded {record_golden_check_stream()} check streams to {GOLDEN_CHECK_STREAM}")
