"""Critical-path extraction and attribution over span traces.

The simulator already records the happens-before structure of a run as span
events (:mod:`repro.obs.spans`): WR posts and retirements on the rank tracks,
NIC service spans and drain bursts on the engine tracks, lock waits at the
owner, barrier fan-in, credit stalls, CQ/event-channel waits, clock-transport
round trips, and cross-rank flow arrows.  This module turns that record into
the two artefacts a perf investigation actually wants:

* :class:`CriticalPathAnalyzer` reconstructs per-rank dependency timelines
  from the trace and extracts **the critical path**: a gap-free chain of
  :class:`PathSegment` intervals from sim time 0 to the run's end, each
  attributed to one category (:data:`CATEGORIES`) with per-segment
  provenance (the span that explains it, its track and owning rank).  The
  walk runs *backward* from the end of the run, always blaming the innermost
  activity covering the current instant, and hops across ranks where the
  trace names the true blocker (barrier releases hop to the last arriver,
  SEND deliveries hop to the sender).
* :class:`~repro.obs.whatif.WhatIfEngine` (built on the analyzer) virtually
  rescales categories and recomputes the end-to-end time without rerunning.

Exactness contract (tested over the whole workload corpus): the segments
tile ``[0, end_time]`` with shared endpoints, so the path length equals the
simulated run time *exactly* and the per-category attribution sums to the
path length *exactly*.  Because adjacent segments share their boundary
float, the sums are evaluated in exact rational arithmetic
(:class:`fractions.Fraction` — every float is a dyadic rational), never in
accumulated floating point.  The analyzer consumes
:meth:`~repro.obs.spans.SpanTracer.sim_events` (sim-time-native records), so
no timestamp ever round-trips through the Chrome-trace microsecond scaling.

Analysis is pure post-processing of an existing trace: running it (or not)
cannot change verdicts, decision logs or metric snapshots — PR 6's
zero-footprint guarantee extends to this module by construction.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.spans import (
    SIM_TIME_TO_US,
    TRACE_SCHEMA_VERSION,
    unreadable_schema_version,
)

#: Attribution categories, in reporting order.  ``compute`` is the residual:
#: intervals no instrumented span covers are the process (or analysis-unknown
#: spans) simply executing.
CATEGORIES = (
    "network",
    "nic_serialization",
    "lock_wait",
    "credit_stall",
    "resync_wait",
    "cq_wait",
    "clock_transport",
    "barrier_wait",
    "compute",
)

#: Categories that are *waits* — elastic time that exists only because some
#: other activity had not finished yet.  The what-if engine excludes them
#: from the per-rank rigid-work floors.  ``credit_stall`` is a wait (the
#: sender parks until the receiver posts a buffer).
WAIT_CATEGORIES = frozenset({"lock_wait", "cq_wait", "barrier_wait", "credit_stall"})

#: Span name -> category.  Names absent here attribute to ``compute``.
SPAN_CATEGORY: Dict[str, str] = {
    "put": "network",
    "get": "network",
    "send": "network",
    "fetch_add": "network",
    "compare_and_swap": "network",
    "qp_drain": "nic_serialization",
    "lock_wait": "lock_wait",
    "credit_stall": "credit_stall",
    "resync_wait": "resync_wait",
    "cq_wait": "cq_wait",
    "evch_wait": "cq_wait",
    "clock_sync": "clock_transport",
    "barrier_wait": "barrier_wait",
}

#: Tie-break priority between spans *starting at the same instant*: the
#: higher wins.  Work beats waits (a wait overlapping active service is not
#: the binding constraint), and the most specific cause beats the most
#: aggregate one.
_CATEGORY_PRIORITY: Dict[str, int] = {
    "lock_wait": 6,
    "credit_stall": 6,
    "resync_wait": 5,
    "clock_transport": 5,
    "network": 4,
    "nic_serialization": 3,
    "barrier_wait": 2,
    "cq_wait": 1,
    "compute": 0,
}


def _parse_rank(label: object) -> Optional[int]:
    """``"P3"`` / ``"rank-P3"`` / ``"nic-P3"`` / ``3`` -> 3 (None if not a rank)."""
    if isinstance(label, int):
        return label
    if not isinstance(label, str):
        return None
    tail = label.rsplit("P", 1)[-1] if "P" in label else label
    try:
        return int(tail)
    except ValueError:
        return None


@dataclass(frozen=True)
class SpanRecord:
    """One complete span, normalized for analysis."""

    track: str
    name: str
    start: float
    end: float
    owner: int
    category: str
    args: Mapping[str, object]


@dataclass(frozen=True)
class PathSegment:
    """One attributed interval of the critical path (or a rank partition)."""

    start: float
    end: float
    category: str
    #: Provenance: the covering span's name, ``"gap"`` for uninstrumented
    #: intervals, ``"barrier_release"`` for the hop across a barrier open,
    #: ``"untraced"`` when the trace was empty.
    name: str
    track: str
    rank: int

    @property
    def duration(self) -> float:
        """Float duration (display only — sums use :meth:`duration_exact`)."""
        return self.end - self.start

    @property
    def duration_exact(self) -> Fraction:
        """Exact duration as a rational: telescopes across shared endpoints."""
        return Fraction(self.end) - Fraction(self.start)

    def as_dict(self) -> Dict[str, object]:
        return {
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "category": self.category,
            "name": self.name,
            "track": self.track,
            "rank": self.rank,
        }


class CriticalPath:
    """The extracted path: chronological segments tiling ``[0, end_time]``."""

    def __init__(self, segments: Sequence[PathSegment], end_time: float) -> None:
        self.segments: Tuple[PathSegment, ...] = tuple(segments)
        self.end_time = end_time

    @property
    def length_exact(self) -> Fraction:
        """Exact path length — equals ``Fraction(end_time)`` by construction."""
        return sum((s.duration_exact for s in self.segments), Fraction(0))

    @property
    def length(self) -> float:
        return float(self.length_exact)

    def attribution_exact(self) -> Dict[str, Fraction]:
        """Per-category exact durations; sums to :attr:`length_exact` exactly."""
        totals: Dict[str, Fraction] = {category: Fraction(0) for category in CATEGORIES}
        for segment in self.segments:
            totals[segment.category] += segment.duration_exact
        return totals

    def attribution(self) -> Dict[str, float]:
        """Per-category durations as floats (for reports and JSON)."""
        return {k: float(v) for k, v in self.attribution_exact().items()}

    def attribution_by_name(self) -> Dict[str, float]:
        """Per-provenance (span-name) durations — the what-if "edge classes"."""
        totals: Dict[str, Fraction] = {}
        for segment in self.segments:
            totals[segment.name] = (
                totals.get(segment.name, Fraction(0)) + segment.duration_exact
            )
        return {name: float(totals[name]) for name in sorted(totals)}

    def dominant_category(self) -> str:
        """The category holding the most path time (ties: reporting order)."""
        attribution = self.attribution_exact()
        return max(CATEGORIES, key=lambda c: (attribution[c], -CATEGORIES.index(c)))

    def summary(self, top_segments: int = 5) -> Dict[str, object]:
        """JSON-safe summary: what schedule outcomes and benchmarks record."""
        attribution = self.attribution()
        total = self.length
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "end_time": self.end_time,
            "path_sim_time": total,
            "segments": len(self.segments),
            "categories": attribution,
            "fractions": {
                category: (value / total if total else 0.0)
                for category, value in attribution.items()
            },
            "dominant": self.dominant_category(),
            "top_segments": [
                segment.as_dict()
                for segment in sorted(
                    self.segments,
                    key=lambda s: (-s.duration, s.start, s.rank, s.name),
                )[:top_segments]
            ],
        }

    def __len__(self) -> int:
        return len(self.segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CriticalPath {len(self.segments)} segments, "
            f"length={self.length:g}, dominant={self.dominant_category()}>"
        )


class CriticalPathAnalyzer:
    """Reconstructs dependency timelines from a span trace; extracts the path.

    Construct from a live tracer (:meth:`from_tracer` — lossless sim times)
    or from an exported Chrome trace file (:meth:`from_chrome_trace` — sim
    times recovered through the microsecond scaling, so exactness holds only
    for the live path).  ``end_time`` is the simulated run time the path
    must reach back from (``RunResult.elapsed_sim_time``).
    """

    def __init__(
        self, events: Sequence[Mapping[str, object]], end_time: float
    ) -> None:
        self.end_time = float(end_time)
        self._spans: Dict[int, List[SpanRecord]] = {}
        self._span_starts: Dict[int, List[float]] = {}
        self._span_maxend: Dict[int, List[float]] = {}
        self._points: Dict[int, List[float]] = {}
        self._deliveries: Dict[int, Dict[float, int]] = {}
        self._last_activity: Dict[int, float] = {}
        self._path: Optional[CriticalPath] = None
        self._parse(events)

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def from_tracer(cls, tracer, end_time: float) -> "CriticalPathAnalyzer":
        """Analyze a live :class:`~repro.obs.spans.SpanTracer` (exact)."""
        return cls(tracer.sim_events(), end_time)

    @classmethod
    def from_chrome_trace(
        cls, trace: Mapping[str, object], end_time: Optional[float] = None
    ) -> "CriticalPathAnalyzer":
        """Analyze an exported trace object (``{"traceEvents": [...]}``).

        Rejects a trace whose ``schema_version`` names a layout this analyzer
        does not understand (absent means a pre-versioning export and is
        accepted).  ``end_time`` defaults to ``otherData.elapsed_sim_time``
        when the exporter recorded it, else the latest event end.
        """
        version = unreadable_schema_version(trace)
        if version is not None:
            raise ValueError(
                f"trace schema_version {version!r} is not supported "
                f"(this analyzer reads version {TRACE_SCHEMA_VERSION})"
            )
        other = trace.get("otherData") or {}
        scale = float(other.get("sim_time_to_us", SIM_TIME_TO_US)) or SIM_TIME_TO_US
        events = []
        latest = 0.0
        for event in trace.get("traceEvents", []):
            if not isinstance(event, dict):
                continue
            converted = dict(event)
            if "ts" in converted:
                converted["ts"] = float(converted["ts"]) / scale
                if "dur" in converted:
                    converted["dur"] = float(converted["dur"]) / scale
                latest = max(
                    latest, converted["ts"] + converted.get("dur", 0.0)
                )
            events.append(converted)
        if end_time is None:
            end_time = other.get("elapsed_sim_time", latest)
        return cls(events, float(end_time))

    @classmethod
    def from_trace_file(cls, path: str) -> "CriticalPathAnalyzer":
        """Load and analyze an exported trace JSON file."""
        with open(path) as handle:
            return cls.from_chrome_trace(json.load(handle))

    # -- parsing --------------------------------------------------------------------

    def _parse(self, events: Sequence[Mapping[str, object]]) -> None:
        track_names: Dict[object, str] = {}
        spans: Dict[int, List[SpanRecord]] = {}
        points: Dict[int, set] = {}
        for event in events:
            phase = event.get("ph")
            if phase == "M":
                args = event.get("args") or {}
                if event.get("name") == "process_name" and "name" in args:
                    track_names[event.get("pid")] = str(args["name"])
                continue
            track = track_names.get(event.get("pid"), "")
            track_rank = _parse_rank(track)
            args = event.get("args") or {}
            if phase == "X":
                start = float(event.get("ts", 0.0))
                end = start + float(event.get("dur", 0.0))
                name = str(event.get("name", ""))
                # A lock wait is charged to the *requester* — the rank whose
                # operation stalled at the owner's lock table — not to the
                # track (the owner's NIC) it is drawn on.
                owner = track_rank
                if name == "lock_wait":
                    owner = _parse_rank(args.get("requester"))
                    if owner is None:
                        owner = track_rank
                if owner is None:
                    continue
                record = SpanRecord(
                    track=track,
                    name=name,
                    start=start,
                    end=end,
                    owner=owner,
                    category=SPAN_CATEGORY.get(name, "compute"),
                    args=args,
                )
                spans.setdefault(owner, []).append(record)
                rank_points = points.setdefault(owner, set())
                rank_points.add(start)
                rank_points.add(end)
            elif phase in ("i", "s", "f"):
                if track_rank is None:
                    continue
                when = float(event.get("ts", 0.0))
                points.setdefault(track_rank, set()).add(when)
                if phase == "i" and event.get("name") == "send_delivered":
                    source = _parse_rank(args.get("source"))
                    if source is not None:
                        self._deliveries.setdefault(track_rank, {})[when] = source

        for rank, records in spans.items():
            # Sort by start; equal starts break by the tie priority then span
            # extent, so a backward scan meets the preferred cover first.
            records.sort(
                key=lambda r: (
                    r.start,
                    _CATEGORY_PRIORITY.get(r.category, 0),
                    r.end,
                    r.name,
                    r.track,
                )
            )
            self._spans[rank] = records
            self._span_starts[rank] = [r.start for r in records]
            maxend: List[float] = []
            running = float("-inf")
            for record in records:
                running = max(running, record.end)
                maxend.append(running)
            self._span_maxend[rank] = maxend
        for rank, rank_points in points.items():
            self._points[rank] = sorted(rank_points)
            self._last_activity[rank] = self._points[rank][-1]

    # -- timeline queries -----------------------------------------------------------

    def ranks(self) -> List[int]:
        """Ranks with any recorded activity, ascending."""
        return sorted(set(self._points) | set(self._spans))

    def last_activity(self, rank: int) -> float:
        """The rank's latest recorded event time (0.0 when untraced)."""
        return self._last_activity.get(rank, 0.0)

    def _covering(self, rank: int, t: float) -> Optional[SpanRecord]:
        """The innermost span of *rank* with ``start < t <= end``.

        Innermost = maximal start; equal starts resolved by the category
        priority (work beats waits), then by extent — exactly the sort order,
        so the backward scan's first hit in the final tie group wins.
        """
        records = self._spans.get(rank)
        if not records:
            return None
        starts = self._span_starts[rank]
        maxend = self._span_maxend[rank]
        index = bisect.bisect_left(starts, t) - 1
        while index >= 0:
            if maxend[index] < t:
                return None  # nothing at or before this start reaches t
            record = records[index]
            if record.end >= t:
                return record
            index -= 1
        return None

    def _previous_point(self, rank: int, t: float) -> float:
        """The latest recorded event time of *rank* strictly before *t*."""
        rank_points = self._points.get(rank)
        if not rank_points:
            return 0.0
        index = bisect.bisect_left(rank_points, t) - 1
        return rank_points[index] if index >= 0 else 0.0

    def _delivery_source(self, rank: int, t: float) -> Optional[int]:
        """The sender rank of a SEND delivered to *rank* at exactly *t*."""
        return self._deliveries.get(rank, {}).get(t)

    # -- the walk -------------------------------------------------------------------

    def _start_rank(self) -> int:
        """The rank whose activity ends latest (ties: lowest rank)."""
        best = -1
        best_time = float("-inf")
        for rank in self.ranks():
            last = self.last_activity(rank)
            if last > best_time:
                best, best_time = rank, last
        return best

    def critical_path(self) -> CriticalPath:
        """Extract (and cache) the critical path of the traced run."""
        if self._path is None:
            self._path = CriticalPath(self._walk(), self.end_time)
        return self._path

    def _walk(self) -> List[PathSegment]:
        segments: List[PathSegment] = []
        t = self.end_time
        if t <= 0.0:
            return segments
        rank = self._start_rank()
        if rank < 0:
            return [PathSegment(0.0, t, "compute", "untraced", "", -1)]
        hops_taken: set = set()
        while t > 0.0:
            span = self._covering(rank, t)
            if span is not None:
                hop = self._hop(span, rank, t, hops_taken)
                if hop is not None:
                    segment, rank, t = hop
                    if segment is not None:
                        segments.append(segment)
                    continue
                seg_start = max(span.start, 0.0)
                segments.append(
                    PathSegment(seg_start, t, span.category, span.name, span.track, rank)
                )
                t = seg_start
                continue
            previous = self._previous_point(rank, t)
            segments.append(
                PathSegment(previous, t, "compute", "gap", f"rank-P{rank}", rank)
            )
            t = previous
        segments.reverse()
        return segments

    def _hop(
        self, span: SpanRecord, rank: int, t: float, hops_taken: set
    ) -> Optional[Tuple[Optional[PathSegment], int, float]]:
        """Cross-rank continuation at a wait whose unblocker the trace names.

        Returns ``(segment_or_None, next_rank, next_time)`` when the walk
        should jump to the true blocker, else ``None`` (attribute the wait
        locally).  Each hop site fires at most once, so a trace with
        surprising timestamps can never cycle the walk.
        """
        if span.name == "barrier_wait":
            opened_at = span.args.get("opened_at")
            opener = _parse_rank(span.args.get("opener"))
            if (
                isinstance(opened_at, (int, float))
                and opener is not None
                and opener != rank
                and span.start <= float(opened_at) < t
                and ("barrier", rank, t) not in hops_taken
            ):
                hops_taken.add(("barrier", rank, t))
                # The release flight from the open to this rank's resume is
                # real network time; the wait before the open belongs to the
                # rank that opened the barrier last.
                segment = PathSegment(
                    float(opened_at), t, "network", "barrier_release", span.track, rank
                )
                return segment, opener, float(opened_at)
        if span.category == "cq_wait" and t == span.end:
            source = self._delivery_source(rank, t)
            if (
                source is not None
                and source != rank
                and ("delivery", rank, t) not in hops_taken
            ):
                hops_taken.add(("delivery", rank, t))
                return None, source, t
        return None

    # -- per-rank partitions (what-if floors) ----------------------------------------

    def rank_partition(self, rank: int) -> List[PathSegment]:
        """Partition ``[0, last_activity(rank)]`` of one rank's own timeline.

        The same innermost-cover attribution as the critical path, restricted
        to one rank and with no cross-rank hops: this is the rank's serial
        story, which the what-if engine uses as a rigid-work floor (waits
        excluded).  Time after the rank's last recorded event is dropped —
        the rank is done, not busy.
        """
        segments: List[PathSegment] = []
        t = min(self.last_activity(rank), self.end_time)
        while t > 0.0:
            span = self._covering(rank, t)
            if span is not None:
                seg_start = max(span.start, 0.0)
                segments.append(
                    PathSegment(seg_start, t, span.category, span.name, span.track, rank)
                )
                t = seg_start
                continue
            previous = self._previous_point(rank, t)
            segments.append(
                PathSegment(previous, t, "compute", "gap", f"rank-P{rank}", rank)
            )
            t = previous
        segments.reverse()
        return segments

    def summary(self, top_segments: int = 5) -> Dict[str, object]:
        """Shorthand for ``critical_path().summary(...)``."""
        return self.critical_path().summary(top_segments=top_segments)


def category_deltas(
    before: Mapping[str, object], after: Mapping[str, object]
) -> List[Dict[str, object]]:
    """Rank the per-category path-time movement between two summaries.

    *before*/*after* are :meth:`CriticalPath.summary` dicts.  Returns one row
    per category with a nonzero delta, largest absolute delta first — the
    table the regression explainer prints.
    """
    rows: List[Dict[str, object]] = []
    before_cats = before.get("categories", {}) if isinstance(before, Mapping) else {}
    after_cats = after.get("categories", {}) if isinstance(after, Mapping) else {}
    for category in CATEGORIES:
        b = float(before_cats.get(category, 0.0) or 0.0)
        a = float(after_cats.get(category, 0.0) or 0.0)
        if a != b:
            rows.append(
                {
                    "category": category,
                    "before": b,
                    "after": a,
                    "delta": a - b,
                    "pct": ((a - b) / b * 100.0) if b else float("inf"),
                }
            )
    rows.sort(key=lambda row: (-abs(row["delta"]), row["category"]))
    return rows
