"""Seed-controlled schedule fuzzing.

The fuzzer perturbs a run's schedule at the controller's choice points using
one private :class:`random.Random` stream, so a fuzzed schedule is a pure
function of its fuzz seed: the same seed replays the same perturbations (and
the recorded decision log replays them without the RNG at all).

Three groups of knobs shape the search:

* ``reorder_probability`` / ``reorder_aggressiveness`` — how often a data
  message's delivery is delayed and by how much (in units of ``quantum``,
  which should be on the order of the fabric's typical one-hop latency).
  Delays *stretch* flight times only; shrinking could not reorder anything
  per-channel FIFO does not already forbid, and additive delays already
  reach every cross-channel arrival order.  The other delay kind, a
  credit grant, is stretched the same way
  (:mod:`repro.explore.decisions` says what each stretch races);
* ``tie_shuffle_probability`` — how often a same-time scheduling tie, or a
  barrier's fan-out order, is resolved against insertion order
  (process-scheduling perturbation);
* ``drop_probability`` / ``duplicate_probability`` — under the UD
  transport, how often a datagram is dropped (forcing a sender
  retransmission and usually a receiver-driven clock resync) or delivered
  twice.  Both default to 0 so RC runs spend no rolls on them; a delivered
  datagram's flight is a ``latency`` decision like any message's.

Only *reorderable* deliveries are perturbed — data messages and the lock
requests that decide which conflicting access the target NIC serializes
first (see :func:`repro.explore.controller.is_reorderable`); detection
round-trips ride inside an operation that already holds the cell lock, so
perturbing them only re-explores equivalent schedules, and they spend no
roll.  Every other choice point spends exactly one ``random()`` roll and then
at most one value draw, so the stream stays seed-pure whatever the rates.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.explore.controller import _REORDERABLE, ScheduleStrategy
from repro.explore.decisions import DECISION_SHAPES, Choice
from repro.net.message import Message


class ScheduleFuzzer(ScheduleStrategy):
    """Randomized schedule perturbation driven by one fuzz seed."""

    def __init__(
        self,
        seed: int = 0,
        reorder_probability: float = 0.35,
        reorder_aggressiveness: float = 2.0,
        quantum: float = 1.0,
        tie_shuffle_probability: float = 0.15,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
    ) -> None:
        for name, probability in (
            ("reorder_probability", reorder_probability),
            ("tie_shuffle_probability", tie_shuffle_probability),
            ("drop_probability", drop_probability),
            ("duplicate_probability", duplicate_probability),
        ):
            if not (0.0 <= probability <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {probability}")
        if reorder_aggressiveness < 0:
            raise ValueError(
                f"reorder_aggressiveness must be non-negative, got {reorder_aggressiveness}"
            )
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if drop_probability + duplicate_probability > 1.0:
            raise ValueError(
                "drop_probability + duplicate_probability must not exceed 1, got "
                f"{drop_probability} + {duplicate_probability}"
            )
        self.seed = seed
        self.reorder_probability = reorder_probability
        self.reorder_aggressiveness = reorder_aggressiveness
        self.quantum = quantum
        self.tie_shuffle_probability = tie_shuffle_probability
        self.drop_probability = drop_probability
        self.duplicate_probability = duplicate_probability
        self._rng = random.Random(seed)

    def choose(
        self,
        kind: str,
        key: str,
        bound: Optional[int] = None,
        message: Optional[Message] = None,
    ) -> Choice:
        if kind == "latency" and message.kind not in _REORDERABLE:
            return 0  # not reorderable (``controller.is_reorderable``, inline)
        roll = self._rng.random()
        if kind == "drop":
            # The roll alone decides the fate: [0, drop) drops,
            # [drop, drop + duplicate) duplicates, the rest delivers.
            if roll < self.drop_probability:
                return 1
            if roll < self.drop_probability + self.duplicate_probability:
                return 2
            return 0
        shape = DECISION_SHAPES[kind]
        if shape == "index":
            if roll >= self.tie_shuffle_probability:
                return 0
            return self._rng.randrange(bound)
        if roll >= self.reorder_probability:
            return 0
        return self._rng.uniform(0.0, self.reorder_aggressiveness * self.quantum)

    def describe(self) -> str:
        return (
            f"fuzz(seed={self.seed}, p={self.reorder_probability}, "
            f"aggr={self.reorder_aggressiveness})"
        )
