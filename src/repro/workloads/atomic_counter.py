"""Lock-free shared counter: the canonical one-sided atomics workload.

Every rank bumps one shared counter ``increments`` times.  Two modes:

* ``use_atomics=True`` (default) — each bump is a single ``fetch_add``
  serviced atomically by the owning NIC.  No update can be lost: the final
  value is exactly ``world_size * increments`` on **every** seed, which is
  how lock-free algorithms look to the paper's execution-varying ground
  truth (the outcome never diverges).  The happens-before detector still
  signals the causally unordered RMW/RMW pairs — benign races in the
  paper's sense (Section IV-D), silenced by the
  ``treat_rmw_pairs_as_ordered`` detector knob.
* ``use_atomics=False`` — each bump is the get-then-put read-modify-write
  idiom of the master/worker ticket.  Concurrent bumps overlap and lose
  updates on most interleavings; the ground truth observes divergent final
  values and the detector flags a true race.

The pair gives the detector-accuracy experiments a minimal scenario where
"racy by happens-before" and "racy by observable outcome" genuinely differ.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.workloads.base import WorkloadScenario
from repro.util.validation import require_positive


class LockFreeCounterWorkload(WorkloadScenario):
    """All ranks bump one shared counter, atomically or with get-then-put."""

    name = "lock-free-counter"
    expected_racy = True

    def __init__(
        self,
        world_size: int = 4,
        increments: int = 4,
        work_cost: float = 1.0,
        use_atomics: bool = True,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        super().__init__(config)
        require_positive(world_size, "world_size")
        require_positive(increments, "increments")
        self.world_size = world_size
        self.increments = increments
        self.work_cost = work_cost
        self.use_atomics = use_atomics
        self.expected_racy_symbols = {"counter"}

    @property
    def expected_total(self) -> int:
        """The lossless final counter value."""
        return self.world_size * self.increments

    def build(self, seed: int = 0) -> DSMRuntime:
        """Counter lives on rank 0; every rank (rank 0 included) bumps it."""
        runtime = DSMRuntime(
            self._config_for_seed(
                seed, world_size=self.world_size, latency="uniform",
            )
        )
        runtime.declare_scalar("counter", owner=0, initial=0)
        workload = self

        def program(api):
            rng = api.random_stream(f"workload.atomic_counter.P{api.rank}")
            observed = []
            for _ in range(workload.increments):
                yield from api.compute(workload.work_cost * (0.5 + float(rng.uniform())))
                if workload.use_atomics:
                    old = yield from api.fetch_add("counter", 1)
                else:
                    old = (yield from api.get("counter")) or 0
                    yield from api.put("counter", old + 1)
                observed.append(old)
            api.private.write("observed", observed)

        runtime.set_spmd_program(program)
        return runtime
