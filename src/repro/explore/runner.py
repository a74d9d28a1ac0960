"""Running schedules and exploring schedule spaces.

:func:`run_schedule` executes one program under one controlled schedule and
reduces the run to a :class:`ScheduleOutcome`: the decision log (replay
recipe), the conflict-order fingerprint, every detector's flagged symbols,
and the observable behaviour (final shared values, per-cell read multisets)
the cross-schedule ground truth is computed from.

:class:`Explorer` drives a whole exploration under a schedule budget with
either strategy family:

* :meth:`Explorer.explore_fuzzed` — schedule 0 is the uncontrolled baseline,
  schedules 1..budget-1 are fuzzed with per-schedule seeds derived from the
  exploration seed;
* :meth:`Explorer.explore_systematic` — breadth-first search over delay-slot
  assignments (see :mod:`repro.explore.systematic`), expanding children only
  for runs whose fingerprint is novel (sleep-set-style dedup).

Both return an :class:`ExplorationResult` whose
:meth:`~ExplorationResult.ground_truth_racy_symbols` applies the paper's
operational race definition *across schedules of the same seed* instead of
across seeds: a symbol is truly racy when its observable behaviour differs
between two explored interleavings.  This is the schedule-space analogue of
:class:`~repro.detectors.ground_truth.SeedVaryingOracle`, with the advantage
that every divergence is attributable to scheduling alone — the program and
every random draw are held fixed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.detectors.base import BaselineDetector
from repro.detectors.lockset import LocksetDetector
from repro.detectors.single_clock import SingleClockDetector
from repro.explore.controller import (
    PassthroughStrategy,
    ScheduleController,
    ScheduleStrategy,
)
from repro.explore.decisions import DecisionLog
from repro.explore.fuzzer import ScheduleFuzzer
from repro.explore.systematic import SystematicStrategy, schedule_fingerprint
from repro.memory.consistency import AccessKind
from repro.runtime.runtime import DSMRuntime

#: Builds a fresh, fully configured runtime for a given seed (the same
#: contract as :data:`repro.detectors.ground_truth.RuntimeFactory`).
RuntimeFactory = Callable[[int], DSMRuntime]

#: The report name of the paper's online detector in exploration verdicts.
#: The dual-clock algorithm is the vector/matrix-clock detection the paper
#: builds its "flagged in every schedule" claim on.
MATRIX_CLOCK = "matrix-clock"


def default_offline_detectors() -> List[BaselineDetector]:
    """The baseline detectors scored on every explored schedule."""
    return [SingleClockDetector(), LocksetDetector()]


@dataclass
class ScheduleOutcome:
    """Everything one controlled schedule is reduced to."""

    schedule_id: int
    strategy: str
    decisions: DecisionLog
    fingerprint: str
    flagged: Dict[str, Set[str]]
    final_values: Dict[str, Tuple[object, ...]]
    read_values: Dict[Tuple[str, int], Tuple[str, ...]]
    symbols: Set[str]
    elapsed_sim_time: float
    events_processed: int
    #: Fabric traffic of the schedule, for the clock-transport comparisons:
    #: piggyback mode must move strictly fewer messages than roundtrip at
    #: byte-identical verdicts.
    total_messages: int = 0
    data_messages: int = 0
    detection_messages: int = 0
    detection_bytes: int = 0
    #: The schedule's canonical metric snapshot (``RunResult.metrics``):
    #: per-schedule observability that campaign workers ship back verbatim,
    #: byte-identical for byte-identical schedules.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Critical-path summary of the schedule (``CriticalPath.summary()``),
    #: recorded only when the run opted into path analysis — pure
    #: post-processing of the span trace, so verdicts/decisions/metrics are
    #: unchanged whether it is on or off.
    critical_path: Dict[str, object] = field(default_factory=dict)

    @property
    def racy(self) -> bool:
        """True when the matrix-clock detector flagged anything."""
        return bool(self.flagged.get(MATRIX_CLOCK))

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe summary (what campaign workers ship back)."""
        return {
            "schedule_id": self.schedule_id,
            "strategy": self.strategy,
            "fingerprint": self.fingerprint,
            "flagged": {name: sorted(symbols) for name, symbols in self.flagged.items()},
            "decisions": len(self.decisions),
            "perturbations": self.decisions.perturbations(),
            "elapsed_sim_time": self.elapsed_sim_time,
            "events_processed": self.events_processed,
            "total_messages": self.total_messages,
            "data_messages": self.data_messages,
            "detection_messages": self.detection_messages,
            "detection_bytes": self.detection_bytes,
            "metrics": dict(self.metrics),
            "critical_path": dict(self.critical_path),
        }


def run_schedule(
    factory: RuntimeFactory,
    seed: int,
    strategy: ScheduleStrategy,
    schedule_id: int = 0,
    offline_detectors: Optional[Sequence[BaselineDetector]] = None,
    configure: Optional[Callable[[DSMRuntime], None]] = None,
    critical_path: bool = False,
) -> ScheduleOutcome:
    """Build, control and run one schedule; reduce it to its outcome.

    *configure*, when given, is applied to the freshly built runtime before
    the controller is installed (the campaign runner uses it to sweep
    detector knobs without touching the factory).  With *critical_path*,
    span tracing is enabled for the run and the outcome carries the
    schedule's critical-path summary — analysis is pure post-processing, so
    verdicts, decision logs and metric snapshots are identical either way.
    """
    runtime = factory(seed)
    if configure is not None:
        configure(runtime)
    if critical_path:
        runtime.sim.obs.configure(trace_spans=True)
    controller = ScheduleController(strategy)
    runtime.sim.install_controller(controller)
    result = runtime.run()

    path_summary: Dict[str, object] = {}
    if critical_path:
        from repro.obs.critical_path import CriticalPathAnalyzer

        path_summary = CriticalPathAnalyzer.from_tracer(
            runtime.sim.obs.spans, result.elapsed_sim_time
        ).summary()

    flagged: Dict[str, Set[str]] = {
        MATRIX_CLOCK: {s for s in result.races.by_symbol() if s is not None}
    }
    accesses = runtime.recorder.accesses()
    syncs = runtime.recorder.syncs()
    detectors = (
        default_offline_detectors() if offline_detectors is None else offline_detectors
    )
    for detector in detectors:
        found = detector.detect(accesses, runtime.config.world_size, syncs=syncs)
        flagged[detector.name] = found.flagged_symbols()

    final_values = {
        symbol: tuple(values) for symbol, values in result.final_shared_values.items()
    }
    # Per-cell multiset of values observed by reads (an RMW observes its
    # cell's pre-update value) — the second half of the operational race
    # definition: a cell whose *reads* see different value multisets across
    # schedules is racy even when its final value converges.
    per_cell: Dict[Tuple[str, int], List[str]] = {}
    for access in accesses:
        if not access.kind.is_read or access.symbol is None:
            continue
        seen = access.observed if access.kind is AccessKind.RMW else access.value
        per_cell.setdefault((access.symbol, access.address.offset), []).append(
            repr(seen)
        )
    read_values = {cell: tuple(sorted(vals)) for cell, vals in per_cell.items()}

    return ScheduleOutcome(
        schedule_id=schedule_id,
        strategy=strategy.describe(),
        decisions=controller.log,
        fingerprint=schedule_fingerprint(accesses),
        flagged=flagged,
        final_values=final_values,
        read_values=read_values,
        symbols={symbol.name for symbol in runtime.directory.symbols()},
        elapsed_sim_time=result.elapsed_sim_time,
        events_processed=runtime.sim.events_processed,
        total_messages=result.fabric_stats.total_messages,
        data_messages=result.fabric_stats.data_messages,
        detection_messages=result.fabric_stats.detection_messages,
        detection_bytes=result.fabric_stats.detection_bytes,
        metrics=result.metrics,
        critical_path=path_summary,
    )


@dataclass
class ExplorationResult:
    """A completed exploration of one program's schedule space."""

    strategy: str
    seed: int
    budget: int
    outcomes: List[ScheduleOutcome] = field(default_factory=list)
    #: Runs whose fingerprint matched an earlier schedule (their subtrees
    #: were pruned by the systematic searcher's dedup).
    deduplicated: int = 0

    @property
    def schedules_run(self) -> int:
        """Schedules actually executed."""
        return len(self.outcomes)

    @property
    def distinct_fingerprints(self) -> int:
        """Conflict-order equivalence classes covered."""
        return len({o.fingerprint for o in self.outcomes})

    @property
    def symbols(self) -> Set[str]:
        """All shared symbols of the program."""
        return set().union(*(o.symbols for o in self.outcomes)) if self.outcomes else set()

    def detector_names(self) -> List[str]:
        """Every detector scored, matrix-clock first."""
        names: Set[str] = set()
        for outcome in self.outcomes:
            names.update(outcome.flagged)
        return sorted(names, key=lambda n: (n != MATRIX_CLOCK, n))

    def ground_truth_racy_symbols(self) -> Set[str]:
        """Symbols whose observable behaviour diverges across schedules.

        The paper's operational definition, applied across interleavings of
        one seed: divergent final contents, or divergent per-cell read
        multisets.
        """
        racy: Set[str] = set()
        finals: Dict[str, Set[Tuple[object, ...]]] = {}
        reads: Dict[Tuple[str, int], Set[Tuple[str, ...]]] = {}
        for outcome in self.outcomes:
            for symbol, values in outcome.final_values.items():
                finals.setdefault(symbol, set()).add(values)
            for cell, values in outcome.read_values.items():
                reads.setdefault(cell, set()).add(values)
        for symbol, observed in finals.items():
            if len(observed) > 1:
                racy.add(symbol)
        for (symbol, _offset), observed in reads.items():
            if len(observed) > 1:
                racy.add(symbol)
        return racy

    def flagged_in_any(self, detector: str) -> Set[str]:
        """Symbols *detector* flagged in at least one explored schedule."""
        out: Set[str] = set()
        for outcome in self.outcomes:
            out.update(outcome.flagged.get(detector, set()))
        return out

    def flag_fraction(self, detector: str, symbol: str) -> float:
        """Fraction of explored schedules in which *detector* flagged *symbol*."""
        if not self.outcomes:
            return 0.0
        hits = sum(
            1 for o in self.outcomes if symbol in o.flagged.get(detector, set())
        )
        return hits / len(self.outcomes)

    def racing_outcome(self, symbols: Optional[Set[str]] = None) -> Optional[ScheduleOutcome]:
        """The first schedule whose matrix-clock verdict covers *symbols*.

        With ``symbols=None``, the first schedule flagging anything.  The
        returned outcome's decision log is what the minimizer shrinks.
        """
        for outcome in self.outcomes:
            flagged = outcome.flagged.get(MATRIX_CLOCK, set())
            if symbols is None:
                if flagged:
                    return outcome
            elif symbols <= flagged:
                return outcome
        return None

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe summary (per-pattern campaign payload)."""
        ground_truth = sorted(self.ground_truth_racy_symbols())
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "budget": self.budget,
            "schedules_run": self.schedules_run,
            "deduplicated": self.deduplicated,
            "distinct_fingerprints": self.distinct_fingerprints,
            "symbols": sorted(self.symbols),
            "ground_truth_racy_symbols": ground_truth,
            "flagged_in_any": {
                name: sorted(self.flagged_in_any(name))
                for name in self.detector_names()
            },
            "flag_fractions": {
                name: {
                    symbol: self.flag_fraction(name, symbol)
                    for symbol in sorted(self.flagged_in_any(name) | set(ground_truth))
                }
                for name in self.detector_names()
            },
            "outcomes": [o.as_dict() for o in self.outcomes],
        }


class Explorer:
    """Explores one program's schedule space under a schedule budget."""

    def __init__(
        self,
        factory: RuntimeFactory,
        seed: int = 0,
        offline_detectors: Optional[Sequence[BaselineDetector]] = None,
        configure: Optional[Callable[[DSMRuntime], None]] = None,
        critical_path: bool = False,
    ) -> None:
        self._factory = factory
        self.seed = seed
        self._offline = offline_detectors
        self._configure = configure
        self._critical_path = critical_path

    def _run(self, strategy: ScheduleStrategy, schedule_id: int) -> ScheduleOutcome:
        return run_schedule(
            self._factory,
            self.seed,
            strategy,
            schedule_id=schedule_id,
            offline_detectors=self._offline,
            configure=self._configure,
            critical_path=self._critical_path,
        )

    # -- fuzzing ---------------------------------------------------------------------

    def explore_fuzzed(
        self,
        budget: int,
        reorder_probability: float = 0.35,
        reorder_aggressiveness: float = 2.0,
        quantum: float = 1.0,
        tie_shuffle_probability: float = 0.15,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
    ) -> ExplorationResult:
        """Run the baseline plus ``budget - 1`` fuzzed schedules.

        Fuzz seeds are derived deterministically from the exploration seed,
        so the whole exploration is a pure function of ``(program, seed,
        budget, knobs)`` — re-running it reproduces identical schedules and
        verdicts.  *drop_probability* / *duplicate_probability* govern the
        per-datagram ``drop`` fate decisions and only bite under the
        ``"ud"`` transport (RC schedules never consult them); schedule 0
        stays the uncontrolled baseline where every datagram delivers.
        """
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")
        result = ExplorationResult(strategy="fuzz", seed=self.seed, budget=budget)
        for schedule_id in range(budget):
            if schedule_id == 0:
                strategy: ScheduleStrategy = PassthroughStrategy()
            else:
                strategy = ScheduleFuzzer(
                    seed=(self.seed * 1_000_003 + schedule_id),
                    reorder_probability=reorder_probability,
                    reorder_aggressiveness=reorder_aggressiveness,
                    quantum=quantum,
                    tie_shuffle_probability=tie_shuffle_probability,
                    drop_probability=drop_probability,
                    duplicate_probability=duplicate_probability,
                )
            result.outcomes.append(self._run(strategy, schedule_id))
        return result

    # -- systematic search -------------------------------------------------------------

    def explore_systematic(
        self,
        budget: int,
        branch_factor: int = 2,
        quantum: float = 1.0,
        max_branch_points: int = 8,
    ) -> ExplorationResult:
        """Breadth-first DPOR-lite over delay-slot assignments.

        The root is the uncontrolled baseline.  After each run, children are
        generated by perturbing one *later* branch point than the deepest
        already forced (each node is reached exactly once), but only when
        the run's fingerprint is novel — a schedule equivalent to one
        already seen proves its whole neighbourhood redundant, the sleep-set
        intuition.  Exploration stops at *budget* executed schedules or when
        the frontier empties, whichever is first.
        """
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")
        result = ExplorationResult(strategy="systematic", seed=self.seed, budget=budget)
        # Frontier entries: (forced assignment, index of the first branch
        # point a child may perturb).  BFS order = fewest perturbations first.
        frontier: Deque[Tuple[Dict[str, int], int]] = deque([({}, 0)])
        seen_fingerprints: Set[str] = set()
        schedule_id = 0
        while frontier and schedule_id < budget:
            forced, next_position = frontier.popleft()
            strategy = SystematicStrategy(
                forced,
                branch_factor=branch_factor,
                quantum=quantum,
                max_branch_points=max_branch_points,
            )
            outcome = self._run(strategy, schedule_id)
            result.outcomes.append(outcome)
            schedule_id += 1
            if outcome.fingerprint in seen_fingerprints:
                result.deduplicated += 1
                continue  # equivalent schedule: prune this subtree
            seen_fingerprints.add(outcome.fingerprint)
            branch_points = strategy.branch_points
            for position in range(next_position, len(branch_points)):
                key = branch_points[position]
                if key in forced:
                    continue
                for slot in range(1, branch_factor):
                    child = dict(forced)
                    child[key] = slot
                    frontier.append((child, position + 1))
        return result
