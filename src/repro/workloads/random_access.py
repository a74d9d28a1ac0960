"""Synthetic random put/get traffic.

The scalability and accuracy experiments need workloads whose size (number of
processes, number of accesses) and conflict level can be dialled freely.  Each
rank performs ``operations_per_rank`` accesses; each access picks a cell of a
shared array and is a write with probability ``write_fraction``.  Conflict
pressure is controlled by ``hotspot_fraction``: that fraction of the accesses
goes to a small "hot" prefix of the array, the rest spreads over a per-rank
private slice (which never conflicts).

With ``synchronize=True`` a barrier separates every round of accesses, turning
most conflicts into ordered accesses; with ``synchronize=False`` (the default)
conflicting accesses are unordered and the workload is genuinely racy.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.memory.directory import PlacementPolicy
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.workloads.base import WorkloadScenario
from repro.util.validation import require_in_range, require_positive


class RandomAccessWorkload(WorkloadScenario):
    """Randomized shared-array traffic with tunable conflict probability."""

    name = "random-access"

    def __init__(
        self,
        world_size: int = 8,
        operations_per_rank: int = 20,
        array_length: Optional[int] = None,
        hot_cells: int = 4,
        hotspot_fraction: float = 0.3,
        write_fraction: float = 0.5,
        synchronize: bool = False,
        rounds: int = 1,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        super().__init__(config)
        require_positive(world_size, "world_size")
        require_positive(operations_per_rank, "operations_per_rank")
        require_positive(hot_cells, "hot_cells")
        require_in_range(hotspot_fraction, 0.0, 1.0, "hotspot_fraction")
        require_in_range(write_fraction, 0.0, 1.0, "write_fraction")
        require_positive(rounds, "rounds")
        self.world_size = world_size
        self.operations_per_rank = operations_per_rank
        self.array_length = array_length or max(world_size * 8, hot_cells + world_size)
        self.hot_cells = min(hot_cells, self.array_length)
        self.hotspot_fraction = hotspot_fraction
        self.write_fraction = write_fraction
        self.synchronize = synchronize
        self.rounds = rounds
        # Whether the workload is expected to race depends on its parameters.
        self.expected_racy = (not synchronize) and hotspot_fraction > 0 and write_fraction > 0
        self.expected_racy_symbols = {"data"} if self.expected_racy else set()

    def build(self, seed: int = 0) -> DSMRuntime:
        """Declare the shared array and register one program per rank."""
        runtime = DSMRuntime(
            self._config_for_seed(
                seed,
                world_size=self.world_size,
                latency="uniform",
                public_memory_cells=max(256, self.array_length + 8),
            )
        )
        runtime.declare_array(
            "data", self.array_length, policy=PlacementPolicy.BLOCK, initial=0
        )
        ops_per_round = max(1, self.operations_per_rank // self.rounds)
        workload = self

        def program(api, rank_seed: int = 0):
            rng = api.random_stream(f"workload.random_access.P{api.rank}")
            counter = 0
            for _round in range(workload.rounds):
                for _op in range(ops_per_round):
                    if float(rng.uniform()) < workload.hotspot_fraction:
                        index = int(rng.integers(0, workload.hot_cells))
                    else:
                        # A per-rank slice of the cold region: never conflicts.
                        cold = workload.array_length - workload.hot_cells
                        per_rank = max(1, cold // workload.world_size)
                        base = workload.hot_cells + (api.rank * per_rank) % max(cold, 1)
                        index = min(
                            workload.array_length - 1,
                            base + int(rng.integers(0, per_rank)),
                        )
                    if float(rng.uniform()) < workload.write_fraction:
                        counter += 1
                        yield from api.put("data", (api.rank, counter), index=index)
                    else:
                        value = yield from api.get("data", index=index)
                        api.private.write(f"last-read-{index}", value)
                    yield from api.compute(float(rng.uniform()) * 0.5)
                if workload.synchronize:
                    yield from api.barrier()

        runtime.set_spmd_program(program)
        return runtime
