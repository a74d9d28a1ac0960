"""Unit tests for posted receive buffers, receive queues and SRQs."""

import pytest

from repro.memory.address import GlobalAddress
from repro.net.nic import ReceiverNotReady
from repro.verbs.receive_queue import (
    ReceiveQueue,
    ReceiveQueueFull,
    ReceiveWorkRequest,
    RecvQueueEmpty,
    SharedReceiveQueue,
)


def make_wr(wr_id, rank=1, offsets=(0,)):
    return ReceiveWorkRequest(
        wr_id=wr_id, addresses=tuple(GlobalAddress(rank, o) for o in offsets)
    )


class TestReceiveQueue:
    def test_fifo_matching_order(self):
        queue = ReceiveQueue(rank=1)
        first = queue.post(make_wr(1))
        second = queue.post(make_wr(2))
        assert queue.match(source=0) is first
        assert queue.match(source=0) is second
        assert queue.depth == 0

    def test_empty_queue_raises_recv_queue_empty(self):
        queue = ReceiveQueue(rank=1)
        with pytest.raises(RecvQueueEmpty):
            queue.match(source=0)

    def test_recv_queue_empty_is_the_nic_receiver_not_ready_condition(self):
        # The net layer names the condition without importing the verbs
        # package; the verbs-level exception must be its subclass.
        assert issubclass(RecvQueueEmpty, ReceiverNotReady)

    def test_bounded_posting(self):
        queue = ReceiveQueue(rank=1, max_wr=2)
        queue.post(make_wr(1))
        queue.post(make_wr(2))
        with pytest.raises(ReceiveQueueFull):
            queue.post(make_wr(3))
        queue.match(source=0)  # freeing a slot re-enables posting
        queue.post(make_wr(4))

    def test_buffers_must_be_receiver_local(self):
        queue = ReceiveQueue(rank=1)
        with pytest.raises(ValueError, match="not.*local"):
            queue.post(make_wr(1, rank=2))

    def test_counters_and_capacity(self):
        queue = ReceiveQueue(rank=0)
        wr = queue.post(make_wr(1, rank=0, offsets=(0, 1, 2)))
        assert wr.capacity == 3
        assert queue.posted == 1 and queue.matched == 0
        queue.match(source=3)
        assert queue.matched == 1 and queue.matched_by == {3: 1}


class TestSharedReceiveQueue:
    def test_multiple_sources_drain_one_pool_in_fifo_order(self):
        srq = SharedReceiveQueue(rank=0, max_wr=8)
        first = srq.post(make_wr(1, rank=0))
        second = srq.post(make_wr(2, rank=0))
        # Whoever's send arrives first gets the oldest buffer.
        assert srq.match(source=2) is first
        assert srq.match(source=1) is second
        assert srq.matched_by == {1: 1, 2: 1}
