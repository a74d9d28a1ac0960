"""Sharded exploration campaigns with aggregated accuracy reports.

A *campaign* explores the schedule space of every pattern in a labelled
corpus, scores each detector's per-schedule verdicts against the corpus
labels, and aggregates the result into one JSON/markdown report.  Patterns
are independent, so the campaign shards at pattern granularity across worker
processes (:mod:`multiprocessing`); workers resolve their pattern by
``(corpus name, pattern name)`` — corpus builders hold closures that do not
pickle — and ship back plain-dict payloads, so the aggregate is identical
whether the campaign ran inline (``workers=0``) or sharded.

Determinism contract (asserted by the tests): a campaign re-run with the
same seed, budget and knobs reproduces byte-identical reports, schedules
included, regardless of worker count.

Run a campaign from the command line::

    python -m repro.explore.campaign --corpus default \\
        --patterns fig5a-concurrent-puts fig5c-arrival-race \\
        --strategy systematic --budget 6

``--expect-consistent`` makes the process exit non-zero unless the
matrix-clock detector flagged every labelled racy symbol in **100%** of the
explored schedules — the paper's every-schedule guarantee, enforced in CI.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import DetectorScore, score_against_labels
from repro.explore.fuzzer import ScheduleFuzzer
from repro.explore.runner import MATRIX_CLOCK, Explorer
from repro.explore.systematic import SystematicStrategy
from repro.runtime.knobs import KNOBS, Knob
from repro.util.validation import require_non_negative, require_positive, require_type


@dataclass(frozen=True)
class CampaignConfig:
    """Everything one campaign run depends on (picklable, hashable).

    ``treat_rmw_pairs_as_ordered`` — when not ``None``, override the online
    detector's RMW-pair knob on every built runtime (the atomic-aware
    accuracy sweep runs one campaign per setting).

    The consistency knobs (one field per entry of
    :data:`repro.runtime.knobs.KNOBS`, described on
    :class:`~repro.runtime.runtime.RuntimeConfig`) — when not ``None``,
    set that knob on every built runtime.  A knob moves traffic, bytes or
    timing and never the verdict of a given execution; a timing knob
    (``clock_transport``, ``cq_moderation``) changes which execution
    happens, and so may change which timing-dependent races a schedule
    shows.  ``tests/detectors/test_knob_promise.py`` checks the promise over
    the knob product, ``transport="ud"`` with nonzero ``drop_probability`` /
    ``duplicate_probability`` included (the fuzzer then drops, duplicates
    and delays the clock-carrying datagrams themselves).
    """

    strategy: str = "fuzz"
    budget: int = 6
    seed: int = 0
    workers: int = 0
    # fuzz knobs
    reorder_probability: float = 0.35
    reorder_aggressiveness: float = 2.0
    quantum: float = 1.0
    tie_shuffle_probability: float = 0.15
    # UD datagram-fate fuzz knobs (only bite under transport="ud")
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    # systematic knobs
    branch_factor: int = 2
    max_branch_points: int = 8
    # detector knob sweeps
    treat_rmw_pairs_as_ordered: Optional[bool] = None
    # clock-transport sweep
    clock_transport: Optional[str] = None
    # clock wire-format sweep
    clock_wire: Optional[str] = None
    # completion-coalescing sweep
    cq_moderation: Optional[bool] = None
    # detector epoch-fast-path sweep
    detector_epochs: Optional[str] = None
    # data-message service-level sweep ("rc" / "ud")
    transport: Optional[str] = None
    #: Record each schedule's critical-path summary (span tracing on for
    #: every explored run; pure post-processing, verdict-identical) and rank
    #: schedules by path composition in the markdown report.
    critical_path: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in ("fuzz", "systematic"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        require_positive(require_type(self.budget, int, "budget"), "budget")
        require_non_negative(require_type(self.workers, int, "workers"), "workers")
        require_type(
            self.treat_rmw_pairs_as_ordered,
            (bool, type(None)),
            "treat_rmw_pairs_as_ordered",
        )
        self.knob_settings()  # raises on an illegal override
        # The search parameters are the strategies' own, so the strategies
        # check them — here, not in a worker after schedule 0 has run.
        ScheduleFuzzer(**self.fuzz_parameters())
        SystematicStrategy({}, **self.systematic_parameters())

    def fuzz_parameters(self) -> Dict[str, float]:
        """The keywords of :meth:`Explorer.explore_fuzzed` this campaign sets."""
        return {
            "reorder_probability": self.reorder_probability,
            "reorder_aggressiveness": self.reorder_aggressiveness,
            "quantum": self.quantum,
            "tie_shuffle_probability": self.tie_shuffle_probability,
            "drop_probability": self.drop_probability,
            "duplicate_probability": self.duplicate_probability,
        }

    def systematic_parameters(self) -> Dict[str, Any]:
        """The keywords of :meth:`Explorer.explore_systematic` this campaign sets."""
        return {
            "branch_factor": self.branch_factor,
            "quantum": self.quantum,
            "max_branch_points": self.max_branch_points,
        }

    def knob_settings(self) -> List[Tuple[str, Any]]:
        """``(name, validated runtime value)`` of every knob this campaign overrides."""
        return [
            (knob.name, knob.validate(getattr(self, knob.name)))
            for knob in KNOBS
            if getattr(self, knob.name) is not None
        ]


def _resolve_corpus(corpus: str):
    """Look up a corpus builder by name (late import: corpora are heavy)."""
    from repro.workloads.racy_patterns import pattern_corpus, rmw_pattern_corpus

    corpora = {"default": pattern_corpus, "rmw": rmw_pattern_corpus}
    if corpus not in corpora:
        raise ValueError(f"unknown corpus {corpus!r} (have {sorted(corpora)})")
    return corpora[corpus]()


def _resolve_pattern(corpus: str, name: str):
    for pattern in _resolve_corpus(corpus):
        if pattern.name == name:
            return pattern
    raise ValueError(f"corpus {corpus!r} has no pattern named {name!r}")


def _knob_configure(config: CampaignConfig):
    """The hook applying *config*'s overrides to each built runtime, if any."""
    rmw_pairs_ordered = config.treat_rmw_pairs_as_ordered
    settings = config.knob_settings()
    if rmw_pairs_ordered is None and not settings:
        return None

    def configure(runtime) -> None:
        if rmw_pairs_ordered is not None:
            runtime.detector.config.treat_rmw_pairs_as_ordered = rmw_pairs_ordered
        for name, value in settings:
            runtime.set_knob(name, value)

    return configure


def _explore_pattern_task(task: Dict[str, object]) -> Dict[str, object]:
    """One shard: explore one pattern's schedule space (runs in a worker)."""
    config = CampaignConfig(**task["config"])  # type: ignore[arg-type]
    pattern = _resolve_pattern(str(task["corpus"]), str(task["pattern"]))
    explorer = Explorer(
        pattern.build,
        seed=config.seed,
        configure=_knob_configure(config),
        critical_path=config.critical_path,
    )
    if config.strategy == "systematic":
        result = explorer.explore_systematic(
            config.budget, **config.systematic_parameters()
        )
    else:
        result = explorer.explore_fuzzed(config.budget, **config.fuzz_parameters())
    payload = result.as_dict()
    payload["pattern"] = pattern.name
    payload["labelled_racy"] = pattern.racy
    payload["labelled_racy_symbols"] = sorted(pattern.racy_symbols)
    return payload


@dataclass
class CampaignReport:
    """The aggregated outcome of one campaign."""

    config: CampaignConfig
    corpus: str
    per_pattern: List[Dict[str, object]] = field(default_factory=list)

    # -- accuracy ------------------------------------------------------------------

    def detector_names(self) -> List[str]:
        names = set()
        for payload in self.per_pattern:
            names.update(payload["flagged_in_any"])
        return sorted(names, key=lambda n: (n != MATRIX_CLOCK, n))

    def detector_scores(self) -> Dict[str, DetectorScore]:
        """Symbol/program precision-recall per detector, against the labels.

        A detector "flags" a symbol for a pattern when it flagged it in at
        least one explored schedule — the recall-friendly reading; how
        *consistently* it flags is reported separately
        (:meth:`matrix_clock_consistency`).
        """
        labels = {
            str(p["pattern"]): set(p["labelled_racy_symbols"])
            for p in self.per_pattern
        }
        symbols = {str(p["pattern"]): set(p["symbols"]) for p in self.per_pattern}
        scores: Dict[str, DetectorScore] = {}
        for detector in self.detector_names():
            flagged = {
                str(p["pattern"]): set(p["flagged_in_any"].get(detector, []))
                for p in self.per_pattern
            }
            scores[detector] = score_against_labels(detector, flagged, labels, symbols)
        return scores

    def matrix_clock_consistency(self) -> Dict[str, Dict[str, float]]:
        """Per pattern, the matrix-clock flag fraction of each labelled symbol.

        The paper's claim is that these fractions are **1.0**: a real race
        is flagged in every schedule, not just the lucky one.
        """
        out: Dict[str, Dict[str, float]] = {}
        for payload in self.per_pattern:
            fractions = payload["flag_fractions"].get(MATRIX_CLOCK, {})
            out[str(payload["pattern"])] = {
                symbol: float(fractions.get(symbol, 0.0))
                for symbol in payload["labelled_racy_symbols"]
            }
        return out

    def fully_consistent(self) -> bool:
        """True when every labelled racy symbol was flagged in every schedule."""
        return all(
            fraction == 1.0
            for per_symbol in self.matrix_clock_consistency().values()
            for fraction in per_symbol.values()
        )

    # -- serialization ----------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        scores = {
            name: {
                "program_accuracy": score.program_level.accuracy,
                "symbol_precision": score.symbol_level.precision,
                "symbol_recall": score.symbol_level.recall,
                "symbol_f1": score.symbol_level.f1,
            }
            for name, score in self.detector_scores().items()
        }
        return {
            "format": "repro-exploration-campaign",
            "version": 1,
            "corpus": self.corpus,
            "config": asdict(self.config),
            "patterns": self.per_pattern,
            "detector_scores": scores,
            "matrix_clock_consistency": self.matrix_clock_consistency(),
            "fully_consistent": self.fully_consistent(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The JSON report."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_markdown(self) -> str:
        """The human-readable report."""
        lines = [
            f"# Exploration campaign — corpus `{self.corpus}`",
            "",
            f"strategy `{self.config.strategy}`, budget {self.config.budget} "
            f"schedules/pattern, seed {self.config.seed}, "
            f"{len(self.per_pattern)} patterns",
            "",
            "## Detector accuracy across explored schedules",
            "",
            "| detector | program accuracy | symbol precision | symbol recall | symbol F1 |",
            "|---|---|---|---|---|",
        ]
        for name, score in self.detector_scores().items():
            lines.append(
                f"| {name} | {score.program_level.accuracy:.2f} "
                f"| {score.symbol_level.precision:.2f} "
                f"| {score.symbol_level.recall:.2f} "
                f"| {score.symbol_level.f1:.2f} |"
            )
        lines += [
            "",
            "## Per-pattern exploration",
            "",
            "| pattern | schedules | dedup | distinct orders | racy symbols "
            "(label) | matrix-clock flag fraction |",
            "|---|---|---|---|---|---|",
        ]
        consistency = self.matrix_clock_consistency()
        for payload in self.per_pattern:
            name = str(payload["pattern"])
            per_symbol = consistency.get(name, {})
            fraction = (
                ", ".join(
                    f"{symbol}: {value:.0%}" for symbol, value in sorted(per_symbol.items())
                )
                or "—"
            )
            lines.append(
                f"| {name} | {payload['schedules_run']} "
                f"| {payload['deduplicated']} "
                f"| {payload['distinct_fingerprints']} "
                f"| {', '.join(payload['labelled_racy_symbols']) or '—'} "
                f"| {fraction} |"
            )
        lines += [
            "",
            "## Per-pattern traffic (from the per-schedule metric snapshots)",
            "",
            "| pattern | messages | detection messages | detection bytes "
            "| metric instruments |",
            "|---|---|---|---|---|",
        ]
        for payload in self.per_pattern:
            outcomes = payload.get("outcomes", [])
            instruments = max(
                (len(o.get("metrics", {})) for o in outcomes), default=0
            )
            lines.append(
                f"| {payload['pattern']} "
                f"| {sum(o['total_messages'] for o in outcomes)} "
                f"| {sum(o['detection_messages'] for o in outcomes)} "
                f"| {sum(o['detection_bytes'] for o in outcomes)} "
                f"| {instruments} |"
            )
        composition = self._path_composition_rows()
        if composition:
            lines += [
                "",
                "## Schedules ranked by critical-path composition",
                "",
                "longest explored schedule per pattern, slowest first; the "
                "category split says *why* that interleaving was slow",
                "",
                "| pattern | schedule | path sim time | dominant | composition |",
                "|---|---|---|---|---|",
            ]
            lines += composition
        lines += [
            "",
            f"matrix-clock every-schedule guarantee: "
            f"{'HOLDS' if self.fully_consistent() else 'VIOLATED'}",
            "",
        ]
        return "\n".join(lines)

    def _path_composition_rows(self) -> List[str]:
        """Markdown rows ranking patterns by their slowest schedule's path.

        Empty when the campaign ran without ``critical_path`` (no summaries
        were recorded).
        """
        ranked = []
        for payload in self.per_pattern:
            best = None
            for outcome in payload.get("outcomes", []):
                summary = outcome.get("critical_path") or {}
                total = summary.get("path_sim_time")
                if total is None:
                    continue
                if best is None or total > best[1]:
                    best = (outcome.get("schedule_id", 0), total, summary)
            if best is not None:
                ranked.append((str(payload["pattern"]),) + best)
        ranked.sort(key=lambda row: (-row[2], row[0]))
        rows = []
        for pattern, schedule_id, total, summary in ranked:
            categories = summary.get("categories", {})
            split = ", ".join(
                f"{category} {value / total:.0%}"
                for category, value in sorted(
                    categories.items(), key=lambda item: (-item[1], item[0])
                )
                if value > 0
            ) or "—"
            rows.append(
                f"| {pattern} | {schedule_id} | {total:.2f} "
                f"| {summary.get('dominant', '—')} | {split} |"
            )
        return rows


def run_campaign(
    config: CampaignConfig,
    patterns: Optional[Sequence[Union[str, object]]] = None,
    corpus: str = "default",
) -> CampaignReport:
    """Explore every selected pattern and aggregate the report.

    *patterns* selects by name (strings) or by
    :class:`~repro.workloads.racy_patterns.LabelledPattern` objects whose
    names exist in *corpus*; ``None`` selects the whole corpus.  With
    ``config.workers > 0`` the patterns are sharded across that many worker
    processes; the report is identical either way.
    """
    if patterns is None:
        names = [p.name for p in _resolve_corpus(corpus)]
    else:
        names = [p if isinstance(p, str) else p.name for p in patterns]
    tasks = [
        {"config": asdict(config), "corpus": corpus, "pattern": name}
        for name in names
    ]
    if config.workers > 0 and len(tasks) > 1:
        # Tasks are plain dicts resolved by (corpus, name) inside the worker,
        # so any start method works; prefer fork for speed where it exists
        # (Linux), fall back to spawn elsewhere (Windows, macOS default).
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = multiprocessing.get_context("spawn")
        with context.Pool(min(config.workers, len(tasks))) as pool:
            payloads = pool.map(_explore_pattern_task, tasks)
    else:
        payloads = [_explore_pattern_task(task) for task in tasks]
    payloads.sort(key=lambda p: str(p["pattern"]))
    return CampaignReport(config=config, corpus=corpus, per_pattern=payloads)


def minimize_campaign_artifacts(
    config: CampaignConfig,
    out_dir: str,
    patterns: Optional[Sequence[Union[str, object]]] = None,
    corpus: str = "default",
) -> List[str]:
    """Delta-debug one racing schedule per racy pattern into an artifact.

    For every labelled-racy selected pattern, re-explore a small fuzzed
    budget under the campaign's knobs, take the first schedule on which
    matrix-clock flagged a labelled symbol, shrink its decision log with
    :func:`~repro.explore.minimize.minimize_racing_schedule`, and write the
    self-contained replayable artifact to
    ``<out_dir>/minimized-<pattern>.json``.  Returns the written paths.

    The nightly CI fuzz campaign uploads these next to the report: a failure
    investigated days later starts from a minimal racing recipe, not a
    thousand-decision fuzz log.
    """
    import os

    from repro.explore.minimize import minimize_racing_schedule, save_artifact

    configure = _knob_configure(config)
    if patterns is None:
        selected = [p for p in _resolve_corpus(corpus) if p.racy]
    else:
        names = {p if isinstance(p, str) else p.name for p in patterns}
        selected = [
            p for p in _resolve_corpus(corpus) if p.name in names and p.racy
        ]
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    for pattern in selected:
        if configure is None:
            factory = pattern.build
        else:
            # The minimizer replays through the bare factory, so the
            # campaign's knob overrides must be baked in, not passed along.
            def factory(seed, _build=pattern.build, _configure=configure):
                runtime = _build(seed)
                _configure(runtime)
                return runtime

        explorer = Explorer(factory, seed=config.seed, offline_detectors=[])
        result = explorer.explore_fuzzed(
            max(config.budget, 2), **config.fuzz_parameters()
        )
        labels = set(pattern.racy_symbols)
        chosen = None
        for outcome in result.outcomes:
            flagged = outcome.flagged.get(MATRIX_CLOCK, set())
            targets = (flagged & labels) or flagged
            if targets:
                chosen = (outcome, targets)
                break
        if chosen is None:  # pragma: no cover - racy corpus always flags
            continue
        outcome, targets = chosen
        minimized = minimize_racing_schedule(
            factory, config.seed, outcome.decisions, targets
        )
        path = os.path.join(out_dir, f"minimized-{pattern.name}.json")
        save_artifact(minimized, factory, config.seed, path, pattern=pattern.name)
        written.append(path)
    return written


def build_parser() -> argparse.ArgumentParser:
    """The campaign command line (one flag per registry knob).

    A flag that sets a ``CampaignConfig`` field defaults to that field's own
    default.
    """
    default = {spec.name: spec.default for spec in fields(CampaignConfig)}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", default="default", help="default | rmw")
    parser.add_argument(
        "--patterns", nargs="*", default=None, help="pattern names (default: all)"
    )
    parser.add_argument(
        "--strategy", default=default["strategy"], choices=("fuzz", "systematic")
    )
    parser.add_argument("--budget", type=int, default=default["budget"])
    parser.add_argument("--seed", type=int, default=default["seed"])
    parser.add_argument("--workers", type=int, default=default["workers"])
    parser.add_argument("--branch-factor", type=int, default=default["branch_factor"])
    parser.add_argument(
        "--max-branch-points", type=int, default=default["max_branch_points"]
    )
    parser.add_argument(
        "--reorder-probability", type=float, default=default["reorder_probability"]
    )
    parser.add_argument(
        "--reorder-aggressiveness",
        type=float,
        default=default["reorder_aggressiveness"],
    )
    parser.add_argument("--quantum", type=float, default=default["quantum"])
    for knob in KNOBS:
        parser.add_argument(knob.flag, default=None, **knob.cli)
    parser.add_argument(
        "--drop-rate",
        type=float,
        default=default["drop_probability"],
        help="per-datagram drop probability for fuzzed schedules (UD only; "
        "schedule 0 stays the drop-free baseline)",
    )
    parser.add_argument(
        "--duplicate-rate",
        type=float,
        default=default["duplicate_probability"],
        help="per-datagram duplication probability for fuzzed schedules "
        "(UD only)",
    )
    parser.add_argument(
        "--critical-path",
        action="store_true",
        help="record each schedule's critical-path summary and rank "
        "schedules by path composition in the report",
    )
    parser.add_argument("--json", dest="json_path", default=None)
    parser.add_argument("--markdown", dest="markdown_path", default=None)
    parser.add_argument(
        "--minimize-dir",
        default=None,
        metavar="DIR",
        help="after the report, delta-debug one racing schedule per racy "
        "pattern (under the same knobs) and write replayable "
        "minimized-<pattern>.json artifacts into DIR",
    )
    parser.add_argument(
        "--expect-consistent",
        action="store_true",
        help="exit 1 unless matrix-clock flagged every labelled racy symbol "
        "in 100%% of explored schedules",
    )
    return parser


def _flag_value(knob: Knob, text: Optional[str]):
    """What ``CampaignConfig`` (and so the report) holds for a knob's flag:
    its value (``--cq-moderation on`` is ``True``), or ``None`` if unset."""
    return None if text is None else knob.validate(text)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m repro.explore.campaign``)."""
    args = build_parser().parse_args(argv)
    config = CampaignConfig(
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
        workers=args.workers,
        branch_factor=args.branch_factor,
        max_branch_points=args.max_branch_points,
        reorder_probability=args.reorder_probability,
        reorder_aggressiveness=args.reorder_aggressiveness,
        quantum=args.quantum,
        **{knob.name: _flag_value(knob, getattr(args, knob.name)) for knob in KNOBS},
        drop_probability=args.drop_rate,
        duplicate_probability=args.duplicate_rate,
        critical_path=args.critical_path,
    )
    report = run_campaign(config, patterns=args.patterns, corpus=args.corpus)
    if args.json_path:
        with open(args.json_path, "w") as handle:
            handle.write(report.to_json())
    markdown = report.to_markdown()
    if args.markdown_path:
        with open(args.markdown_path, "w") as handle:
            handle.write(markdown)
    print(markdown)
    if args.minimize_dir:
        for path in minimize_campaign_artifacts(
            config, args.minimize_dir, patterns=args.patterns, corpus=args.corpus
        ):
            print(f"minimized racing schedule: {path}")
    if args.expect_consistent and not report.fully_consistent():
        print("ERROR: matrix-clock missed a labelled race in some schedule")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke job
    sys.exit(main())
