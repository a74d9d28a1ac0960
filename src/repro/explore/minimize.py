"""Racing-schedule minimization: shrink a decision log, keep the race.

A fuzzer that finds a race hands back a decision log with dozens of
perturbations, most of them irrelevant.  :func:`minimize_racing_schedule`
delta-debugs that log against a replay predicate ("does the matrix-clock
detector still flag the target symbols?") in three passes:

1. **prefix truncation** — binary search for the shortest log prefix that
   still produces the race (every choice point past the prefix replays at
   its default), using the standard bisection invariant: the upper bound
   always satisfies the predicate, so the returned prefix is guaranteed
   racing even if the predicate is not monotone in between;
2. **chunked removal (ddmin)** — within the surviving prefix, *chunks* of
   the remaining non-default decisions are replaced wholesale by the
   default marker (``None``), starting with half the decisions per chunk
   and halving on a sweep that removes nothing.  Racing schedules found
   mainly through tie shuffling have their irrelevant perturbations
   scattered across the whole log, where prefix truncation removes nothing;
   chunking defaults them in O(log n) sweeps instead of one replay each;
3. **sparsification** — each surviving non-default decision is individually
   replaced by the default and the replacement kept when the race survives,
   walking from the back so later decisions (the ones most likely to be
   mere noise) are removed first.  After the chunk pass this is cheap:
   only the genuinely load-bearing decisions remain.

The result replays deterministically, and :func:`save_artifact` emits a
self-contained JSON artifact: the decision recipe plus the minimized run's
full trace through the existing trace layer — so the race can be re-analysed
offline (:class:`~repro.trace.replay.TraceReplayer` reproduces the same
report from the stored accesses alone) or re-executed live
(:func:`replay_artifact`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro.explore.controller import (
    MAX_TIES,
    ReplayDivergence,
    ReplayStrategy,
    ScheduleController,
)
from repro.explore.decisions import DecisionLog
from repro.explore.runner import (
    MATRIX_CLOCK,
    RuntimeFactory,
    ScheduleOutcome,
    run_schedule,
)
from repro.sim.events import SimulationError
from repro.trace.serialization import trace_to_json

#: Artifact format marker (bumped on incompatible changes).
ARTIFACT_FORMAT = "repro-racing-schedule"
#: Version 3: every SEND claims a receive credit (there is no RNR retry
#: protocol and no ``rnr`` kind), so a log recorded under version 2's default
#: RNR flow control can misalign: a SEND that once retried now stalls, and
#: its grant is a ``credit`` decision the old log never held.
ARTIFACT_VERSION = 3


@dataclass
class MinimizedSchedule:
    """The output of one minimization."""

    decisions: DecisionLog
    target_symbols: Set[str]
    flagged: Set[str]
    original_length: int
    original_perturbations: int
    replays_used: int
    outcome: ScheduleOutcome

    @property
    def minimized_length(self) -> int:
        """Entries kept in the minimized log (prefix length)."""
        return len(self.decisions)

    @property
    def perturbations(self) -> int:
        """Non-default decisions surviving minimization."""
        return self.decisions.perturbations()


def _replay(
    factory: RuntimeFactory, seed: int, log: DecisionLog
) -> Optional[ScheduleOutcome]:
    """Replay one candidate log; ``None`` when the candidate misaligns.

    Defaulting a *tie* decision can change which events exist downstream,
    so a sparsified candidate may stop matching its own tail — strict
    replay then raises :class:`ReplayDivergence` (possibly wrapped in a
    :class:`SimulationError` when the divergence hits inside a simulated
    process).  A divergent candidate is simply not a valid shrink: the
    minimizer treats it exactly like one that lost the race.
    """
    try:
        return run_schedule(factory, seed, ReplayStrategy(log), offline_detectors=())
    except ReplayDivergence:
        return None
    except SimulationError as error:
        if isinstance(error.__cause__, ReplayDivergence):
            return None
        raise


def minimize_racing_schedule(
    factory: RuntimeFactory,
    seed: int,
    decisions: DecisionLog,
    target_symbols: Set[str],
    predicate: Optional[Callable[[ScheduleOutcome], bool]] = None,
) -> MinimizedSchedule:
    """Shrink *decisions* to a minimal log still flagging *target_symbols*.

    *decisions* must come from a schedule of ``factory(seed)`` on which the
    matrix-clock detector flagged every symbol in *target_symbols* (a
    :class:`ValueError` is raised otherwise — minimizing a non-racing log is
    a caller bug, not an empty result).

    *predicate*, when given, replaces the default "matrix-clock flags the
    targets" criterion with an arbitrary check over the replayed
    :class:`~repro.explore.runner.ScheduleOutcome` — e.g. "the race
    *manifests*: cell a's final value is the overwritten one".  Because the
    clock detector flags a real race in every schedule, the default
    criterion usually minimizes all the way to the empty log (the baseline
    already races); an outcome predicate pins the schedule down to the
    perturbations that make the bug observable.
    """
    if not target_symbols:
        raise ValueError("target_symbols must name at least one racy symbol")
    replays = 0

    def holds(outcome: ScheduleOutcome) -> bool:
        if predicate is not None:
            return predicate(outcome)
        return target_symbols <= outcome.flagged.get(MATRIX_CLOCK, set())

    def races(log: DecisionLog) -> Optional[ScheduleOutcome]:
        nonlocal replays
        replays += 1
        outcome = _replay(factory, seed, log)
        if outcome is not None and holds(outcome):
            return outcome
        return None

    full = DecisionLog(decisions.entries)
    outcome = races(full)
    if outcome is None:
        raise ValueError(
            f"the given schedule does not satisfy the racing criterion "
            f"(targets {sorted(target_symbols)}); nothing to minimize"
        )

    # Pass 1: shortest racing prefix.  Invariant: prefix(high) races.
    low, high = 0, len(full)
    best = outcome
    while low < high:
        mid = (low + high) // 2
        candidate = races(full.prefix(mid))
        if candidate is not None:
            high, best = mid, candidate
        else:
            low = mid + 1
    log = full.prefix(high)

    # Pass 2: chunked (ddmin-style) removal.  Default-out whole chunks of
    # the surviving non-default decisions; halve the chunk size whenever a
    # full sweep removes nothing.  Tie-shuffle-found schedules — whose
    # irrelevant perturbations are scattered, not clustered at the tail —
    # converge in O(log n) sweeps here instead of one replay per decision.
    def non_default_indices(current: DecisionLog):
        return [
            index
            for index, entry in enumerate(current.entries)
            if entry is not None and not entry.is_default
        ]

    chunk = len(non_default_indices(log)) // 2
    while chunk >= 2:
        removed = False
        indices = non_default_indices(log)
        for start in range(0, len(indices), chunk):
            batch = indices[start:start + chunk]
            if not batch:
                continue
            candidate_log = log
            for index in batch:
                candidate_log = candidate_log.with_default_at(index)
            candidate = races(candidate_log)
            if candidate is not None:
                log, best = candidate_log, candidate
                removed = True
        if not removed:
            chunk //= 2
        else:
            chunk = min(chunk, max(2, len(non_default_indices(log)) // 2))
        if not non_default_indices(log):
            break

    # Pass 3: default-out individually unnecessary perturbations (the
    # chunk-1 granularity the ddmin pass deliberately leaves to this sweep,
    # walking from the back so later decisions — the ones most likely to be
    # mere noise — are removed first).
    for index in reversed(range(len(log))):
        entry = log.entries[index]
        if entry is None or entry.is_default:
            continue
        candidate_log = log.with_default_at(index)
        candidate = races(candidate_log)
        if candidate is not None:
            log, best = candidate_log, candidate

    return MinimizedSchedule(
        decisions=log,
        target_symbols=set(target_symbols),
        flagged=set(best.flagged.get(MATRIX_CLOCK, set())),
        original_length=len(decisions),
        original_perturbations=len(decisions.non_default()),
        replays_used=replays,
        outcome=best,
    )


def save_artifact(
    minimized: MinimizedSchedule,
    factory: RuntimeFactory,
    seed: int,
    path: str,
    pattern: Optional[str] = None,
) -> Dict[str, object]:
    """Write a self-contained, replayable racing-schedule artifact.

    The minimized schedule is re-executed once to capture its full trace;
    the artifact bundles the decision recipe (live replay) with the trace
    (offline replay through :class:`~repro.trace.replay.TraceReplayer`).
    Returns the artifact dictionary that was written.
    """
    runtime = factory(seed)
    controller = ScheduleController(ReplayStrategy(minimized.decisions))
    runtime.sim.install_controller(controller)
    result = runtime.run()
    artifact: Dict[str, object] = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "pattern": pattern,
        "seed": seed,
        "max_ties": MAX_TIES,
        "target_symbols": sorted(minimized.target_symbols),
        "flagged_symbols": sorted(
            s for s in result.races.by_symbol() if s is not None
        ),
        "decisions": minimized.decisions.to_jsonable(),
        "trace": json.loads(
            trace_to_json(
                runtime.config.world_size,
                runtime.recorder.accesses(),
                operations=runtime.recorder.operations(),
                syncs=runtime.recorder.syncs(),
                run_info=runtime.recorder.run_info(),
            )
        ),
    }
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2)
    return artifact


def load_artifact(path: str) -> Dict[str, object]:
    """Read an artifact written by :func:`save_artifact` (format-checked)."""
    with open(path) as handle:
        artifact = json.load(handle)
    if artifact.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"not a racing-schedule artifact (format={artifact.get('format')!r})"
        )
    if int(artifact.get("version", 0)) != ARTIFACT_VERSION:
        raise ValueError(
            f"unsupported racing-schedule artifact version "
            f"{artifact.get('version')!r} (supported: {ARTIFACT_VERSION})"
        )
    return artifact


def replay_artifact(
    path: str, factory: RuntimeFactory
) -> ScheduleOutcome:
    """Re-execute an artifact's schedule live; returns the fresh outcome.

    The caller checks the outcome against the artifact's recorded verdict
    (the determinism tests assert they always agree).
    """
    artifact = load_artifact(path)
    log = DecisionLog.from_jsonable(artifact["decisions"])
    return run_schedule(
        factory,
        int(artifact["seed"]),
        ReplayStrategy(log),
        offline_detectors=(),
    )
