"""Send backpressure: a plain post raises, a throttled post waits for a slot.

When `verbs_max_send_wr` requests are already outstanding on the queue pair,
``iput`` / ``isend`` surface :class:`SendQueueFull` at the post site (they
cannot yield), and ``iput_throttled`` / ``isend_throttled`` yield the posting
process until a completion frees a slot — so a saturating producer
self-paces instead of crashing.
"""

import pytest

from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.sim.events import SimulationError
from repro.verbs.queue_pair import SendQueueFull

DEPTH = 2
POSTS = 12


def build_saturating_producer(throttled: bool = True) -> DSMRuntime:
    """Rank 0 posts POSTS puts to rank 1 through a DEPTH-deep send queue."""
    runtime = DSMRuntime(
        RuntimeConfig(world_size=2, seed=0, verbs_max_send_wr=DEPTH)
    )
    runtime.declare_array("x", POSTS, owner=1, initial=None)

    def producer(api):
        requests = []
        for i in range(POSTS):
            if throttled:
                request = yield from api.iput_throttled("x", i * 10, index=i)
            else:
                request = api.iput("x", i * 10, index=i)
            requests.append(request)
        yield from api.wait(*requests)
        api.private.write("posted", len(requests))

    def consumer(api):
        yield from api.compute(0.0)

    runtime.set_program(0, producer)
    runtime.set_program(1, consumer)
    return runtime


def test_plain_posts_raise_send_queue_full():
    """iput (non-generator) cannot yield, so it keeps the raise contract."""
    runtime = build_saturating_producer(throttled=False)
    with pytest.raises(SimulationError) as excinfo:
        runtime.run()
    assert isinstance(excinfo.value.__cause__, SendQueueFull)


def test_throttled_saturation_completes_with_stalls():
    runtime = build_saturating_producer()
    result = runtime.run()
    # Every put landed, in order, with no exception.
    assert result.final_shared_values["x"] == [i * 10 for i in range(POSTS)]
    assert runtime.private_memories[0].snapshot()["posted"] == POSTS
    queue_pair = runtime.verbs_contexts[0].queue_pair(1)
    # The producer genuinely saturated the queue: it parked at least once
    # per post beyond the queue depth, and never exceeded the depth.
    assert queue_pair.blocked_posts >= POSTS - DEPTH
    assert queue_pair.posted == POSTS
    assert queue_pair.outstanding == 0


def test_throttled_posting_is_deterministic():
    elapsed = set()
    for _ in range(2):
        runtime = build_saturating_producer()
        result = runtime.run()
        elapsed.add(
            (
                result.elapsed_sim_time,
                runtime.verbs_contexts[0].queue_pair(1).blocked_posts,
            )
        )
    assert len(elapsed) == 1


def test_throttled_send_blocks_too():
    """The two-sided path waits for a slot the same way."""
    runtime = DSMRuntime(
        RuntimeConfig(
            world_size=2,
            seed=0,
            verbs_max_send_wr=DEPTH,
        )
    )
    runtime.declare_array("inbox", POSTS, owner=1, initial=None)

    def sender(api):
        requests = []
        for i in range(POSTS):
            request = yield from api.isend_throttled(1, [i], symbol="inbox")
            requests.append(request)
        yield from api.wait(*requests)

    def receiver(api):
        for i in range(POSTS):
            api.irecv(0, "inbox", indices=[i])
        completions = yield from api.wait_recv(POSTS)
        api.private.write("received", [c.value[0] for c in completions])

    runtime.set_program(0, sender)
    runtime.set_program(1, receiver)
    runtime.run()
    assert runtime.private_memories[1].snapshot()["received"] == list(range(POSTS))
    assert runtime.verbs_contexts[0].queue_pair(1).blocked_posts > 0
