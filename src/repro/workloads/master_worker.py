"""Master/worker computation — the paper's example of an *intentional* race.

Section IV-D: *"some algorithms contain race conditions on purpose.  For
example, parallel master-worker computation patterns induce a race condition
between workers when the results are sent to the master.  Therefore, race
conditions must be signaled to the user ... but they must not abort the
execution of the program."*

The workload models exactly that: the master owns a result array plus a shared
"next ticket" counter; each worker repeatedly (1) reads the ticket, (2) writes
an incremented ticket back, (3) computes the task and (4) puts its result into
the master's result area.  Steps (1)–(2) on the ticket and the appends to the
shared completion counter are unsynchronized and therefore race — on purpose.
Each task's result goes to a distinct cell, so the *results* themselves are
well-defined; only the coordination cells are racy, which is what the paper
calls a benign race.

Benchmark E10 asserts two things: the detector signals races on the ticket /
completion cells, and the run completes normally (the default signalling
policy never aborts).
"""

from __future__ import annotations

from typing import Optional

from repro.memory.directory import PlacementPolicy
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.workloads.base import WorkloadScenario
from repro.util.validation import require_positive


def default_task(task_id: int, rank: int) -> int:
    """The unit of work: a cheap deterministic function of the task id."""
    return task_id * task_id + rank


class MasterWorkerWorkload(WorkloadScenario):
    """Self-scheduling master/worker pattern with intentionally racy coordination."""

    name = "master-worker"
    expected_racy = True

    def __init__(
        self,
        world_size: int = 5,
        tasks: int = 12,
        task_cost: float = 2.0,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        super().__init__(config)
        require_positive(world_size, "world_size")
        if world_size < 2:
            raise ValueError("master-worker needs at least one master and one worker")
        require_positive(tasks, "tasks")
        self.world_size = world_size
        self.tasks = tasks
        self.task_cost = task_cost
        # The ticket and completion counter race by construction; because the
        # racy ticket can hand the same task to two workers, the result cell of
        # a duplicated task is also written twice without ordering.
        self.expected_racy_symbols = {"ticket", "completed", "results"}

    @property
    def workers(self) -> int:
        """Number of worker ranks (everyone except rank 0, the master)."""
        return self.world_size - 1

    def build(self, seed: int = 0) -> DSMRuntime:
        """Master is rank 0; workers are ranks 1..n-1."""
        runtime = DSMRuntime(
            self._config_for_seed(
                seed,
                world_size=self.world_size,
                latency="uniform",
                public_memory_cells=max(256, self.tasks + 16),
            )
        )
        runtime.declare_scalar("ticket", owner=0, initial=0)
        runtime.declare_scalar("completed", owner=0, initial=0)
        runtime.declare_array(
            "results", self.tasks, policy=PlacementPolicy.OWNER, owner=0, initial=None
        )
        workload = self

        # Bound every loop explicitly: the racy read-modify-writes below can
        # lose updates, so an unbounded "poll until completed == tasks" could
        # spin forever.  The observable effect of the race (a final "completed"
        # counter below the task count on some interleavings) is exactly what
        # the ground-truth oracle looks for.
        max_polls = 4 * self.tasks + 8

        def master(api):
            # The master polls its *own* public memory (no network traffic);
            # the polling reads race with the workers' increments of
            # "completed" — the intentional race of the paper.
            done = 0
            for _poll in range(max_polls):
                if done >= workload.tasks:
                    break
                yield from api.compute(workload.task_cost)
                done = (yield from api.get("completed")) or 0
            collected = []
            for index in range(workload.tasks):
                value = yield from api.get("results", index=index)
                collected.append(value)
            api.private.write("collected", collected)
            api.private.write("completed_seen", done)

        def worker(api):
            rng = api.random_stream(f"workload.master_worker.P{api.rank}")
            for _iteration in range(workload.tasks):
                ticket = (yield from api.get("ticket")) or 0
                if ticket >= workload.tasks:
                    break
                # Unsynchronized read-modify-write of the ticket: two workers
                # can grab the same task; that is the (benign) race.
                yield from api.put("ticket", ticket + 1)
                yield from api.compute(workload.task_cost * (0.5 + float(rng.uniform())))
                result = default_task(ticket, api.rank)
                yield from api.put("results", result, index=ticket)
                done = yield from api.get("completed")
                yield from api.put("completed", (done or 0) + 1)

        runtime.set_program(0, master)
        for rank in range(1, self.world_size):
            runtime.set_program(rank, worker)
        return runtime
