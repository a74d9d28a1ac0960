"""Event-channel fairness: several server processes share one channel.

`EventChannel.wait` wakes waiters in arrival order, so a pool of worker
processes blocked on one channel should drain a request stream roughly
round-robin — and above all, no waiter may starve.  The stress test spawns
several worker processes on the server rank, all waiting on one channel fed
by an SRQ's receive CQ, and asserts every worker handles at least one
completion *in every fuzzed schedule* — fairness must be a property of the
wakeup discipline, not of one lucky interleaving.
"""

import pytest

from repro.explore import PassthroughStrategy, ScheduleController, ScheduleFuzzer
from repro.runtime.runtime import DSMRuntime, RuntimeConfig

NUM_WORKERS = 3
NUM_CLIENTS = 3
REQUESTS_PER_CLIENT = 4


def build_shared_channel_server(seed: int) -> DSMRuntime:
    """Rank 0 runs a worker pool on one event channel; other ranks send."""
    runtime = DSMRuntime(
        RuntimeConfig(
            world_size=NUM_CLIENTS + 1,
            seed=seed,
            latency="uniform",
        )
    )
    total = NUM_CLIENTS * REQUESTS_PER_CLIENT
    slots = NUM_CLIENTS + 1
    runtime.declare_array("slots", slots, owner=0, initial=0)
    runtime.declare_srq(0)

    def server(api):
        for slot in range(slots):
            api.post_srq_recv("slots", indices=[slot])
        channel = api.verbs.create_event_channel()
        channel.attach(api.verbs.recv_cq)
        counts = [0] * NUM_WORKERS
        progress = {"handled": 0}
        all_done = runtime.sim.event(name="all-requests-handled")

        def worker(wid):
            api.verbs.recv_cq.arm()
            while progress["handled"] < total:
                cq = yield from channel.wait()
                for completion in cq.poll():
                    counts[wid] += 1
                    progress["handled"] += 1
                    api.verbs.post_srq_recv(completion.addresses, symbol="slots")
                cq.arm()
                if progress["handled"] >= total and not all_done.triggered:
                    all_done.succeed()

        for wid in range(NUM_WORKERS):
            runtime.sim.process(worker(wid), name=f"server-worker-{wid}")
        yield all_done
        api.private.write("counts", list(counts))

    def client(api):
        for i in range(REQUESTS_PER_CLIENT):
            request = api.isend(0, [api.rank * 100 + i], symbol="slots")
            yield from api.wait(request)
            yield from api.compute(1.0)

    runtime.set_program(0, server)
    for rank in range(1, NUM_CLIENTS + 1):
        runtime.set_program(rank, client)
    return runtime


@pytest.mark.parametrize("schedule", range(4))
def test_no_worker_starves_across_fuzzed_schedules(schedule):
    runtime = build_shared_channel_server(seed=0)
    strategy = (
        PassthroughStrategy()
        if schedule == 0
        else ScheduleFuzzer(
            seed=schedule, reorder_probability=0.4, reorder_aggressiveness=2.0
        )
    )
    runtime.sim.install_controller(ScheduleController(strategy))
    runtime.run()
    counts = runtime.private_memories[0].snapshot()["counts"]
    assert sum(counts) == NUM_CLIENTS * REQUESTS_PER_CLIENT
    assert min(counts) >= 1, (
        f"a worker starved on one event channel under schedule {schedule}: {counts}"
    )


def test_wakeups_are_roughly_round_robin_on_spaced_traffic():
    """With requests spaced out, arrival-order wakeup spreads work evenly."""
    runtime = build_shared_channel_server(seed=0)
    runtime.run()
    counts = runtime.private_memories[0].snapshot()["counts"]
    assert max(counts) - min(counts) <= NUM_CLIENTS, counts
