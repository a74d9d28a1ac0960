"""SRQ low-watermark limit events (the IBV_EVENT_SRQ_LIMIT_REACHED analogue).

Arming a limit makes the SRQ fire exactly one asynchronous event when a
consumed receive drops the pool strictly below the threshold, then disarm
until re-armed — the hook real servers use to replenish receives in bulk
instead of once per completion.  The RPC echo workload exercises the full
pattern end to end in its ``srq_replenish="bulk"`` mode.
"""

import pytest

from repro.verbs.receive_queue import SharedReceiveQueue
from repro.workloads.rpc_echo import RPCEchoWorkload


def test_limit_fires_once_below_threshold_then_disarms():
    srq = SharedReceiveQueue(0, max_wr=8)

    class _WR:
        def __init__(self, wr_id):
            self.wr_id = wr_id
            self.addresses = ()

    for wr_id in range(4):
        srq._pending.append(_WR(wr_id))  # bypass address checks: unit scope
    srq.arm_limit(3)
    srq.match(1)  # depth 3: not strictly below the limit yet
    assert srq.limit_events_fired == 0 and srq.limit == 3
    srq.match(1)  # depth 2 < 3: fires and disarms
    assert srq.depth == 2 and srq.limit == 0
    assert srq.limit_events_fired == srq.limit_events_pending == 1
    srq.match(1)  # disarmed: silent
    assert srq.limit_events_fired == 1
    srq.arm_limit(2)
    srq.match(1)  # depth 0 < 2: fires again after re-arm
    assert srq.depth == 0 and srq.limit_events_fired == srq.limit_events_pending == 2
    # Taking an event consumes one pending count; the fired count stays.
    assert srq.take_limit_event() and srq.take_limit_event()
    assert not srq.take_limit_event()
    assert srq.limit_events_pending == 0 and srq.limit_events_fired == 2


def test_arm_limit_validates_threshold():
    srq = SharedReceiveQueue(0, max_wr=4)
    with pytest.raises(ValueError):
        srq.arm_limit(0)
    with pytest.raises(ValueError):
        srq.arm_limit(5)


def test_rpc_echo_bulk_replenish_end_to_end():
    workload = RPCEchoWorkload(
        num_clients=3, requests_per_client=3, srq_replenish="bulk"
    )
    runtime = workload.build(seed=0)
    runtime.run()
    # Every client got every echo back despite the lazier replenishing.
    for rank in range(1, workload.world_size):
        assert runtime.private_memories[rank].snapshot()["all_echoed"] is True
    srq = runtime.verbs_contexts[0].srq
    server_private = runtime.private_memories[0].snapshot()
    # The limit tripped and drove at least one bulk repost burst.
    assert srq.limit_events_fired >= 1
    assert server_private["bulk_replenishes"] >= 1
    # Each replenish took one fired event; an untaken one stays pending.
    assert srq.limit_events_fired == (
        server_private["bulk_replenishes"] + srq.limit_events_pending
    )
    assert server_private["served"] == workload.total_requests


def test_per_completion_mode_never_trips_the_limit():
    workload = RPCEchoWorkload(num_clients=3, requests_per_client=3)
    runtime = workload.build(seed=0)
    runtime.run()
    assert runtime.verbs_contexts[0].srq.limit_events_fired == 0
    for rank in range(1, workload.world_size):
        assert runtime.private_memories[rank].snapshot()["all_echoed"] is True


def test_bulk_mode_is_deterministic_per_seed():
    outcomes = set()
    for _ in range(2):
        runtime = RPCEchoWorkload(
            num_clients=3, requests_per_client=3, srq_replenish="bulk"
        ).build(seed=1)
        result = runtime.run()
        outcomes.add(
            (
                result.elapsed_sim_time,
                runtime.verbs_contexts[0].srq.limit_events_fired,
            )
        )
    assert len(outcomes) == 1
