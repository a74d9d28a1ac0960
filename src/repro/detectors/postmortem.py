"""The paper's detector deployed offline, over a recorded trace.

Section V-B lists two implementation routes for the detection algorithm: in
the communication library (the online detector wired into the NIC) or "in the
pre-compiler, as wrappers around remote data accesses" — i.e. log every remote
access and analyse the log.  :class:`PostMortemDualClockDetector` is that
second route: it adapts :class:`~repro.trace.replay.TraceReplayer` to the
common :class:`~repro.detectors.base.BaselineDetector` interface so the
accuracy benchmarks can compare both deployments on identical traces (they
should — and the property tests check that they do — agree).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.detector import DetectorConfig
from repro.detectors.base import BaselineDetector, DetectedRace, DetectionResult
from repro.memory.consistency import MemoryAccess
from repro.trace.replay import TraceReplayer


class PostMortemDualClockDetector(BaselineDetector):
    """Replay-based deployment of the dual-clock algorithm."""

    name = "dual-clock-postmortem"

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        #: Detector configuration used during replay (defaults to the paper's
        #: dual-clock settings with the Mattern comparison).
        self.config = config if config is not None else DetectorConfig()

    def detect(
        self, accesses: Sequence[MemoryAccess], world_size: int, syncs: Sequence = ()
    ) -> DetectionResult:
        """Replay *accesses* (and recorded synchronizations) through the detector."""
        if world_size <= 0:
            raise ValueError(f"world_size must be positive, got {world_size}")
        replayer = TraceReplayer(world_size, config=self.config)
        outcome = replayer.replay(list(accesses), syncs=list(syncs))
        findings: List[DetectedRace] = []
        for record in outcome.races:
            findings.append(
                DetectedRace(
                    address=record.address,
                    symbol=record.symbol,
                    ranks=(
                        record.current_rank,
                        record.previous_rank if record.previous_rank is not None else -1,
                    ),
                    kinds=(record.current_kind.value, record.previous_kind.value),
                    detail=record.detail,
                )
            )
        return DetectionResult(
            detector_name=self.name,
            findings=findings,
            accesses_analyzed=len(accesses),
        )
