"""Detector hot-path profiler: per-check-type attribution.

The detection hot path is dominated by O(n) vector-clock operations: the
directional compares inside ``clocks_unordered`` / ``reference_unknown`` and
the merges/observes that fold clock knowledge into process and datum clocks.
This profiler attributes those costs per check type — the cross product of
access kind (``read`` / ``write`` / ``rmw``) and clock provenance (``live``
post-check vs ``carried`` post-time snapshot) — which is exactly the
breakdown the epoch fast path (``detector_epochs``) has to improve without
changing verdicts.

Counts (checks, compares, joins) are deterministic and feed benchmark
artifacts gated by ``tools/perf_gate.py``.  Wall time is optional and
excluded from snapshots unless explicitly enabled, because it is
nondeterministic and would break byte-identical artifacts.

The check kernel (``DualClockRaceDetector._instrument``) books each check
into its bucket itself, so a check enters no frame of this module; it reads
the perf counter only while :attr:`DetectionProfiler.wall_clock` is on.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: All check types, in canonical order: (kind, provenance).
CHECK_TYPES: Tuple[Tuple[str, str], ...] = tuple(
    (kind, provenance)
    for kind in ("read", "write", "rmw")
    for provenance in ("live", "carried")
)


class _Bucket:
    """The running counts of one check type (``wall_ns`` only under ``wall_clock``)."""

    __slots__ = ("checks", "compares", "joins", "epoch_hits", "wall_ns")

    def __init__(self) -> None:
        self.checks = 0
        self.compares = 0
        self.joins = 0
        self.epoch_hits = 0
        self.wall_ns = 0


class DetectionProfiler:
    """Aggregates per-check-type costs for one detector."""

    def __init__(self, wall_clock: bool = False) -> None:
        self.wall_clock = wall_clock
        self._buckets: Dict[Tuple[str, str], _Bucket] = {
            check_type: _Bucket() for check_type in CHECK_TYPES
        }

    # -- aggregation ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Deterministic per-check-type summary (sorted keys, counts only).

        ``wall_ns`` appears only when wall-clock profiling is enabled, so the
        default snapshot stays byte-identical across reruns.
        """
        out: Dict[str, Dict[str, int]] = {}
        for (kind, provenance), bucket in sorted(self._buckets.items()):
            entry: Dict[str, int] = {
                "checks": bucket.checks,
                "compares": bucket.compares,
                "joins": bucket.joins,
                "epoch_hits": bucket.epoch_hits,
            }
            if self.wall_clock:
                entry["wall_ns"] = bucket.wall_ns
            out[f"{kind}_{provenance}"] = entry
        return out

    def totals(self) -> Dict[str, int]:
        """Summed counts across every check type."""
        totals = {"checks": 0, "compares": 0, "joins": 0, "epoch_hits": 0}
        for bucket in self._buckets.values():
            totals["checks"] += bucket.checks
            totals["compares"] += bucket.compares
            totals["joins"] += bucket.joins
            totals["epoch_hits"] += bucket.epoch_hits
        return totals

    def merge(self, other: "DetectionProfiler") -> "DetectionProfiler":
        """Fold *other*'s buckets into this profiler (returns self)."""
        for check_type, bucket in other._buckets.items():
            mine = self._buckets[check_type]
            mine.checks += bucket.checks
            mine.compares += bucket.compares
            mine.joins += bucket.joins
            mine.epoch_hits += bucket.epoch_hits
            mine.wall_ns += bucket.wall_ns
        return self

    def reset(self) -> None:
        """Zero every bucket."""
        for bucket in self._buckets.values():
            bucket.checks = 0
            bucket.compares = 0
            bucket.joins = 0
            bucket.epoch_hits = 0
            bucket.wall_ns = 0
