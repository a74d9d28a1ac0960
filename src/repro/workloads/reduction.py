"""One-sided, non-collective global reduction (the paper's future work).

Section V-B: *"a process can perform a reduction (i.e., a global operation on
some data held by all the other processes) without any participation for the
other processes, by fetching the data remotely."*

Each rank deposits a contribution into its own slot of a block-distributed
shared array; one designated rank then reduces the whole array with remote
``get`` operations only.  Two variants:

* ``synchronize=True`` (default): a barrier separates the deposits from the
  reduction, so the reducer's reads are ordered after every write — no race,
  and the reduced value is exact;
* ``synchronize=False``: the reducer starts immediately; its reads race with
  the laggards' writes, the detector flags them, and (on some interleavings)
  the reduced value misses contributions — the observable symptom the oracle
  keys on.
"""

from __future__ import annotations

from typing import Optional

from repro.memory.directory import PlacementPolicy
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.workloads.base import WorkloadScenario
from repro.util.validation import require_positive, require_rank


class OneSidedReductionWorkload(WorkloadScenario):
    """Global sum performed by one process through remote gets."""

    name = "one-sided-reduction"

    def __init__(
        self,
        world_size: int = 6,
        reducer: int = 0,
        contribution_cost: float = 2.0,
        synchronize: bool = True,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        super().__init__(config)
        require_positive(world_size, "world_size")
        require_rank(reducer, world_size, "reducer")
        self.world_size = world_size
        self.reducer = reducer
        self.contribution_cost = contribution_cost
        self.synchronize = synchronize
        self.expected_racy = not synchronize
        self.expected_racy_symbols = {"contrib"} if self.expected_racy else set()

    def expected_sum(self) -> int:
        """The exact reduction value when no contribution is missed."""
        return sum(self.contribution(rank) for rank in range(self.world_size))

    @staticmethod
    def contribution(rank: int) -> int:
        """Deterministic per-rank contribution."""
        return (rank + 1) * 10

    def build(self, seed: int = 0) -> DSMRuntime:
        """Block-distributed contribution array, one element per rank."""
        runtime = DSMRuntime(
            self._config_for_seed(
                seed,
                world_size=self.world_size,
                latency="uniform",
            )
        )
        runtime.declare_array(
            "contrib", self.world_size, policy=PlacementPolicy.BLOCK, initial=0
        )
        runtime.declare_scalar("total", owner=self.reducer, initial=None)
        workload = self

        def program(api):
            rng = api.random_stream(f"workload.reduction.P{api.rank}")
            # Every rank (including the reducer) deposits its contribution
            # into its own slot after some local work.
            yield from api.compute(workload.contribution_cost * float(rng.uniform()))
            yield from api.put(
                "contrib", workload.contribution(api.rank), index=api.rank
            )
            if workload.synchronize:
                yield from api.barrier()
            if api.rank == workload.reducer:
                total = yield from api.reduce_shared(
                    "contrib", workload.world_size, operator=lambda a, b: a + (b or 0),
                    initial=0,
                )
                yield from api.put("total", total)
                api.private.write("total", total)
            elif workload.synchronize:
                # Nothing else to do; the barrier already ordered everything.
                yield from api.compute(0.0)

        runtime.set_spmd_program(program)
        return runtime
