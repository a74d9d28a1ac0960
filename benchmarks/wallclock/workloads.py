"""The four benchmark workloads.

Each workload has three phases the harness times separately:

* ``setup(seed)`` -- generate the inputs from the seed and do the first
  ``build``; part of ``setup_s``, never of a repetition;
* ``timed()`` -- one repetition: the call a user of the library makes, and
  nothing else;
* ``inspect(result)`` -- untimed: reduce the repetition's result to an
  :class:`Outcome` (application units, the simulated digest, output checks,
  exact per-layer counts).

Only names exported by the ``repro`` packages are imported, so a refactor
inside a package cannot break the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro import RuntimeConfig
from repro.explore import CampaignConfig, run_campaign
from repro.trace import TraceReplayer, trace_from_json, trace_to_json
from repro.workloads import (
    RandomAccessWorkload,
    SendRecvStencilWorkload,
    pattern_corpus,
)

MATRIX_CLOCK = "matrix-clock"


@dataclass
class Outcome:
    """What one repetition is reduced to once the clock has stopped."""

    #: Detector-checked shared accesses the application made.
    accesses: int
    #: Schedules explored (1 for a single run or a replay).
    schedules: int
    #: Every simulated statistic; must be identical on every repetition.
    digest: Dict[str, Any]
    #: Output-check failures (empty = correct).
    problems: List[str] = field(default_factory=list)
    #: Exact per-layer counts read from the public result objects.
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def sim_digest(self) -> str:
        """Short hash of the digest, for printing and comparing."""
        text = json.dumps(self.digest, sort_keys=True, default=repr)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _profile_totals(profile: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    """``core.*`` counts from a ``detection_profile`` (online or replay)."""
    totals = {
        key: sum(entry.get(key, 0) for entry in profile.values())
        for key in ("checks", "compares", "joins", "epoch_hits")
    }
    return {
        "core.checks": totals["checks"],
        "core.compares": totals["compares"],
        "core.joins": totals["joins"],
        "core.epoch_hits": totals["epoch_hits"],
        "core.epoch_hit_ratio": totals["epoch_hits"] / max(1, totals["checks"]),
    }


class SingleRunWorkload:
    """Build one scenario and run it to completion: ``scenario.run(seed)``."""

    def __init__(self, name: str, why: str, make_scenario) -> None:
        self.name = name
        self.why = why
        self._make_scenario = make_scenario

    def setup(self, seed: int, quick: bool) -> None:
        self._seed = seed
        self._scenario = self._make_scenario(quick)
        self._scenario.build(seed)

    def timed(self):
        return self._scenario.run(self._seed)

    def inspect(self, result) -> Outcome:
        run, runtime = result.run, result.runtime
        accesses = len(runtime.recorder.accesses())
        stats = run.fabric_stats
        digest = {
            "races": run.race_count,
            "races_by_symbol": {
                str(symbol): len(records)
                for symbol, records in run.races.by_symbol().items()
            },
            "events": runtime.sim.events_processed,
            "messages": stats.total_messages,
            "bytes": stats.total_bytes,
            "elapsed_sim_time": run.elapsed_sim_time,
            "final_shared_values": run.final_shared_values,
        }
        problems = []
        if not result.detection_matches_expectation:
            problems.append(
                f"verdict racy={result.detected_racy}, expected {result.expected_racy}"
            )
        violations = runtime.consistency_check()
        if violations:
            problems.append(f"consistency_check: {violations[0]}")
        if not runtime.sim.all_finished():
            problems.append("a rank never finished")
        counts = {
            "sim.events": runtime.sim.events_processed,
            "sim.elapsed_sim_time": run.elapsed_sim_time,
            "net.messages": stats.total_messages,
            "net.bytes": stats.total_bytes,
            "net.clock_bytes": run.detection_clock_bytes,
            "core.races": run.race_count,
            **_profile_totals(run.detection_profile),
        }
        return Outcome(accesses, 1, digest, problems, counts)


class CampaignWorkload:
    """A fuzz campaign over the default labelled corpus, in-process."""

    name = "campaign_fuzz"
    why = (
        "300 short 3-4 rank schedules: build-dominated, so memory construction, "
        "explore decisions, offline detectors and small-n clocks lead"
    )

    def setup(self, seed: int, quick: bool) -> None:
        self._config = CampaignConfig(
            strategy="fuzz", budget=2 if quick else 20, seed=seed, workers=0
        )
        # The report carries no recorder, so the application's access count
        # is taken per pattern under the default schedule, once, here.
        per_schedule = 0
        for pattern in pattern_corpus():
            runtime = pattern.build(seed)
            runtime.run()
            per_schedule += len(runtime.recorder.accesses())
        self._accesses = per_schedule * self._config.budget

    def timed(self):
        return run_campaign(self._config)

    def inspect(self, report) -> Outcome:
        patterns = report.per_pattern
        outcomes = [o for pattern in patterns for o in pattern["outcomes"]]
        schedules = sum(int(pattern["schedules_run"]) for pattern in patterns)
        fingerprints = sum(int(pattern["distinct_fingerprints"]) for pattern in patterns)
        digest = {
            "patterns": {
                str(pattern["pattern"]): {
                    "schedules": pattern["schedules_run"],
                    "fingerprints": pattern["distinct_fingerprints"],
                    "flagged": pattern["flagged_in_any"],
                }
                for pattern in patterns
            },
            "schedules": [
                [
                    o["fingerprint"],
                    o["flagged"],
                    o["decisions"],
                    o["events_processed"],
                    o["total_messages"],
                    o["detection_bytes"],
                    o["elapsed_sim_time"],
                ]
                for o in outcomes
            ],
        }
        problems = [
            f"{pattern['pattern']}: matrix-clock flagged "
            f"{pattern['flagged_in_any'].get(MATRIX_CLOCK)}, labelled racy="
            f"{pattern['labelled_racy']}"
            for pattern in patterns
            if bool(pattern["flagged_in_any"].get(MATRIX_CLOCK))
            != bool(pattern["labelled_racy"])
        ]
        counts = {
            "sim.events": sum(o["events_processed"] for o in outcomes),
            "sim.elapsed_sim_time": sum(o["elapsed_sim_time"] for o in outcomes),
            "net.messages": sum(o["total_messages"] for o in outcomes),
            "net.clock_bytes": sum(o["detection_bytes"] for o in outcomes),
            "core.races": sum(len(o["flagged"].get(MATRIX_CLOCK, ())) for o in outcomes),
            "explore.schedules": schedules,
            "explore.distinct_fingerprints": fingerprints,
            "explore.dedup_ratio": fingerprints / max(1, schedules),
            "explore.decisions": sum(o["decisions"] for o in outcomes),
        }
        return Outcome(self._accesses, schedules, digest, problems, counts)


class ReplayWorkload:
    """Post-mortem detection: replay an archived trace through the detector."""

    name = "replay_postmortem"
    why = (
        "detector and clocks only (no sim, net or verbs): a core gain must show "
        "here most, a sim or net gain not at all"
    )

    def setup(self, seed: int, quick: bool) -> None:
        world, operations = (4, 60) if quick else (16, 300)
        recorded = RandomAccessWorkload(
            world_size=world, operations_per_rank=operations
        ).run(seed)
        recorder = recorded.runtime.recorder
        archive = trace_to_json(
            world, recorder.accesses(), recorder.operations(), recorder.syncs()
        )
        self._world, self._accesses, _operations, self._syncs = trace_from_json(archive)
        self._online_races = recorded.run.race_count

    def timed(self):
        return TraceReplayer(self._world).replay(self._accesses, self._syncs)

    def inspect(self, outcome) -> Outcome:
        by_symbol: Dict[str, int] = {}
        for record in outcome.races:
            by_symbol[str(record.symbol)] = by_symbol.get(str(record.symbol), 0) + 1
        digest = {
            "races": outcome.race_count,
            "races_by_symbol": by_symbol,
            "accesses_replayed": outcome.accesses_replayed,
            "cells_touched": outcome.cells_touched,
        }
        problems = []
        if outcome.race_count != self._online_races:
            problems.append(
                f"offline races {outcome.race_count} != online {self._online_races}"
            )
        if outcome.accesses_replayed != len(self._accesses):
            problems.append("not every recorded access was replayed")
        counts = {
            "core.races": outcome.race_count,
            **_profile_totals(outcome.detection_profile),
        }
        return Outcome(len(self._accesses), 1, digest, problems, counts)


def _blocking_scenario(quick: bool):
    if quick:
        return RandomAccessWorkload(world_size=4, operations_per_rank=50)
    return RandomAccessWorkload(world_size=16, operations_per_rank=200)


def _posted_scenario(quick: bool):
    config = RuntimeConfig(clock_transport="piggyback", clock_wire="delta")
    if quick:
        return SendRecvStencilWorkload(world_size=4, iterations=5, config=config)
    return SendRecvStencilWorkload(world_size=16, iterations=30, config=config)


def all_workloads():
    """The benchmark's workloads, in the order ``BENCHMARK.json`` lists them."""
    return [
        SingleRunWorkload(
            "run_blocking",
            "the paper's basic model: blocking put/get with roundtrip clocks and "
            "racy hot cells; 4.3 messages per access, so net and sim lead",
            _blocking_scenario,
        ),
        SingleRunWorkload(
            "run_posted",
            "the optimised path: verbs QPs/CQs, piggybacked delta wire clocks, "
            "barriers; race-free cells take the detector's epoch fast path",
            _posted_scenario,
        ),
        CampaignWorkload(),
        ReplayWorkload(),
    ]
