"""Differential-testing harness for the epoch fast path.

The epoch fast path (``DetectorConfig.epochs`` / ``RuntimeConfig.
detector_epochs``) is an *exact* shortcut: by construction it changes which
code path decides a check, never what the check decides or which clock
contents the merges produce.  This module is the machinery that proves the
claim instead of asserting it — every helper runs the same program through
both modes and diffs what must be byte-identical:

* **verdicts** — the full race-record list, every field including the
  clock snapshots and the detail string;
* **decision logs** — the schedule-replay recipe of every explored
  schedule, entry for entry;
* **``RunResult.metrics``** — the canonical metrics-registry snapshot
  (the epoch path books no registry counters, so even the observability
  payload cannot drift);
* clock *contents* — per-cell access/write clocks and per-rank process
  clocks at end of run;
* the detection profile's ``checks``, ``joins`` and race counts (only
  ``compares`` may drop, traded for ``epoch_hits``).

Byte-for-byte means exactly that: digests are compared as
``json.dumps(..., sort_keys=True)`` strings, so an ordering difference or
a numpy scalar leaking into a payload fails just as loudly as a wrong
verdict.

Every helper builds a fresh runtime per mode (``build(seed)``) and flips the
knob on that runtime alone; each runtime owns its copy of the configuration,
so runtimes derived from one config object never see each other's mode.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.detector import DualClockRaceDetector
from repro.core.races import RaceRecord
from repro.explore.runner import Explorer, ExplorationResult
from repro.runtime.runtime import DSMRuntime, RunResult

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


def exploration_digest(result: ExplorationResult) -> str:
    """Byte-for-byte view of a whole exploration, decision logs included.

    ``ExplorationResult.as_dict()`` already carries verdicts, fingerprints
    and per-schedule ``metrics``; the decision logs and observable
    behaviour are appended explicitly because the campaign payload only
    summarizes them.
    """
    payload = result.as_dict()
    payload["decision_logs"] = [o.decisions.to_jsonable() for o in result.outcomes]
    payload["final_values"] = [
        {s: [repr(v) for v in vals] for s, vals in sorted(o.final_values.items())}
        for o in result.outcomes
    ]
    payload["read_values"] = [
        {f"{sym}[{off}]": list(vals) for (sym, off), vals in sorted(o.read_values.items())}
        for o in result.outcomes
    ]
    return json.dumps(payload, sort_keys=True)


# -- runners -------------------------------------------------------------------------


def run_in_mode(
    build: Callable[[int], DSMRuntime], seed: int, mode: str
) -> RunResult:
    """Build a fresh runtime, pin the epoch mode, run it."""
    runtime = build(seed)
    runtime.set_knob("detector_epochs", mode)
    return runtime.run()


def run_differential(
    build: Callable[[int], DSMRuntime], seed: int = 0
) -> Tuple[RunResult, RunResult]:
    """One run per mode; asserts the byte-identical contract, returns both."""
    on = run_in_mode(build, seed, "on")
    off = run_in_mode(build, seed, "off")
    assert run_result_digest(on) == run_result_digest(off), (
        f"epoch fast path changed an observable (seed={seed})"
    )
    return on, off


def explore_in_mode(
    build: Callable[[int], DSMRuntime],
    mode: str,
    seed: int = 0,
    budget: int = 4,
    offline_detectors=None,
) -> ExplorationResult:
    """Explore the schedule space with every runtime pinned to *mode*."""
    explorer = Explorer(
        build,
        seed=seed,
        offline_detectors=offline_detectors,
        configure=lambda runtime: runtime.set_knob("detector_epochs", mode),
    )
    return explorer.explore_fuzzed(budget)


def explore_differential(
    build: Callable[[int], DSMRuntime],
    seed: int = 0,
    budget: int = 4,
    offline_detectors=None,
) -> Tuple[ExplorationResult, ExplorationResult]:
    """The schedule-space differential: every schedule through both modes.

    Fuzz seeds derive deterministically from the exploration seed, so both
    explorations replay the *same* schedules; the assertion then covers
    verdicts, decision logs, fingerprints, metrics, final values and read
    multisets of every schedule at once.
    """
    on = explore_in_mode(build, "on", seed=seed, budget=budget,
                         offline_detectors=offline_detectors)
    off = explore_in_mode(build, "off", seed=seed, budget=budget,
                          offline_detectors=offline_detectors)
    assert exploration_digest(on) == exploration_digest(off), (
        f"epoch fast path changed an explored schedule (seed={seed})"
    )
    return on, off


def profile_compares(result: RunResult) -> Dict[str, int]:
    """Per-bucket full-vector compare counts of one run."""
    return {
        bucket: counts["compares"]
        for bucket, counts in result.detection_profile.items()
    }


def total_compares(result: RunResult) -> int:
    """Full-vector compares summed over every check type."""
    return sum(profile_compares(result).values())


def total_epoch_hits(result: RunResult) -> int:
    """O(1) epoch probes summed over every check type."""
    return sum(
        counts["epoch_hits"] for counts in result.detection_profile.values()
    )
