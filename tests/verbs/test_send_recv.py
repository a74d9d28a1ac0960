"""Two-sided SEND/RECV semantics: matching, SRQ, scatter/gather, admission, errors."""

import pytest

from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.trace.replay import TraceReplayer
from repro.verbs.receive_queue import ReceiveQueueFull
from repro.verbs.work import CompletionError, CompletionStatus, Opcode


def make_runtime(world_size=2, **overrides):
    overrides.setdefault("latency", "constant")
    return DSMRuntime(RuntimeConfig(world_size=world_size, **overrides))


class TestBasicSendRecv:
    def test_payload_lands_in_posted_buffer(self):
        runtime = make_runtime()
        runtime.declare_array("inbox", 4, owner=1, initial=0)

        def sender(api):
            request = api.isend(1, [10, 20, 30], symbol="inbox")
            (completion,) = yield from api.wait(request)
            api.private.write("send_status", completion.status.value)

        def receiver(api):
            posted = api.irecv(0, "inbox", indices=range(3))
            (completion,) = yield from api.wait_recv(1)
            api.private.write("wr_id_matches", completion.wr_id == posted.wr_id)
            api.private.write("value", completion.value)
            api.private.write("peer", completion.peer)
            api.private.write("opcode", completion.opcode.value)
            api.private.write("addresses", len(completion.addresses))

        runtime.set_program(0, sender)
        runtime.set_program(1, receiver)
        result = runtime.run()
        assert result.final_shared_values["inbox"] == [10, 20, 30, 0]
        assert result.per_rank_private[0]["send_status"] == "success"
        private = result.per_rank_private[1]
        assert private["wr_id_matches"] and private["value"] == (10, 20, 30)
        assert private["peer"] == 0 and private["opcode"] == "recv"
        assert private["addresses"] == 3
        assert result.race_count == 0
        assert result.trace_summary.sends == 1
        assert runtime.consistency_check() == []

    def test_matching_is_fifo_per_queue_pair(self):
        runtime = make_runtime()
        runtime.declare_array("inbox", 2, owner=1, initial=0)

        def sender(api):
            first = api.isend(1, "first")
            second = api.isend(1, "second")
            yield from api.wait(first, second)

        def receiver(api):
            api.irecv(0, "inbox", index=0)
            api.irecv(0, "inbox", index=1)
            completions = yield from api.wait_recv(2)
            api.private.write("order", [c.value for c in completions])

        runtime.set_program(0, sender)
        runtime.set_program(1, receiver)
        result = runtime.run()
        # First posted buffer absorbs the first send, in posting order.
        assert result.final_shared_values["inbox"] == ["first", "second"]
        assert result.per_rank_private[1]["order"] == [("first",), ("second",)]

    def test_zero_length_send_is_pure_synchronization(self):
        runtime = make_runtime()
        runtime.declare_array("inbox", 1, owner=1, initial=99)

        def sender(api):
            request = api.verbs.post_send(1)  # empty payload
            yield from api.wait(request)

        def receiver(api):
            api.irecv(0, "inbox", index=0)
            (completion,) = yield from api.wait_recv(1)
            api.private.write("value", completion.value)

        runtime.set_program(0, sender)
        runtime.set_program(1, receiver)
        result = runtime.run()
        assert result.per_rank_private[1]["value"] == ()
        assert result.final_shared_values["inbox"] == [99]  # untouched

    def test_gathered_send_reads_local_cells_at_service_time(self):
        runtime = make_runtime()
        runtime.declare_array("outbox", 3, owner=0, initial=0)
        runtime.declare_array("inbox", 3, owner=1, initial=0)

        def sender(api):
            for index, value in enumerate((5, 6, 7)):
                yield from api.put("outbox", value, index=index)
            request = api.isend_gather(1, "outbox", indices=range(3))
            yield from api.wait(request)

        def receiver(api):
            api.irecv(0, "inbox", indices=range(3))
            (completion,) = yield from api.wait_recv(1)
            api.private.write("value", completion.value)

        runtime.set_program(0, sender)
        runtime.set_program(1, receiver)
        result = runtime.run()
        assert result.final_shared_values["inbox"] == [5, 6, 7]
        assert result.per_rank_private[1]["value"] == (5, 6, 7)

    def test_short_payload_leaves_buffer_tail_untouched(self):
        runtime = make_runtime()
        runtime.declare_array("inbox", 3, owner=1, initial=-1)

        def sender(api):
            yield from api.wait(api.isend(1, [42]))

        def receiver(api):
            api.irecv(0, "inbox", indices=range(3))
            yield from api.wait_recv(1)

        runtime.set_program(0, sender)
        runtime.set_program(1, receiver)
        result = runtime.run()
        assert result.final_shared_values["inbox"] == [42, -1, -1]


class TestSharedReceiveQueueEndToEnd:
    def test_sends_from_several_peers_drain_one_srq(self):
        runtime = make_runtime(world_size=3, latency="uniform")
        runtime.declare_array("slots", 2, owner=0, initial=0)
        runtime.declare_srq(0)

        def server(api):
            api.post_srq_recv("slots", index=0)
            api.post_srq_recv("slots", index=1)
            completions = yield from api.wait_recv(2)
            api.private.write("sources", sorted(c.peer for c in completions))

        def client(api):
            yield from api.wait(api.isend(0, api.rank * 10, symbol="slots"))

        runtime.set_program(0, server)
        runtime.set_program(1, client)
        runtime.set_program(2, client)
        result = runtime.run()
        assert result.per_rank_private[0]["sources"] == [1, 2]
        assert sorted(result.final_shared_values["slots"]) == [10, 20]
        assert runtime.verbs_contexts[0].srq.matched == 2

    def test_post_recv_rejected_on_srq_backed_queue_pair(self):
        runtime = make_runtime()
        runtime.declare_array("slots", 1, owner=1, initial=0)
        runtime.declare_srq(1)

        def receiver(api):
            with pytest.raises(ValueError, match="post_srq_recv"):
                api.irecv(0, "slots", index=0)
            yield from api.compute(0.0)

        def idle(api):
            yield from api.compute(0.0)

        runtime.set_program(0, idle)
        runtime.set_program(1, receiver)
        runtime.run()

    def test_one_srq_per_context(self):
        runtime = make_runtime()
        runtime.declare_srq(0)
        with pytest.raises(RuntimeError, match="already has"):
            runtime.declare_srq(0)

    def test_every_queue_pair_of_a_declared_rank_drains_the_srq(self):
        runtime = make_runtime(world_size=3)
        srq = runtime.declare_srq(0, max_wr=4)
        context = runtime.verbs_contexts[0]
        assert srq is context.srq and srq.max_wr == 4
        assert all(context.queue_pair(peer).recv_queue is srq for peer in range(3))
        other = runtime.verbs_contexts[1]
        assert not other.queue_pair(0).uses_srq

    def test_declare_srq_validates_at_build(self):
        runtime = make_runtime()
        with pytest.raises(ValueError, match="outside world"):
            runtime.declare_srq(2)
        runtime.verbs_contexts[1].queue_pair(0)
        with pytest.raises(RuntimeError, match="first queue pair"):
            runtime.declare_srq(1)

        def idle(api):
            yield from api.compute(0.0)

        runtime.set_spmd_program(idle)
        runtime.run()
        with pytest.raises(RuntimeError, match="before run"):
            runtime.declare_srq(0)

    def test_srq_verbs_on_a_rank_without_one_are_rejected(self):
        context = make_runtime().verbs_contexts[0]
        for call in (
            lambda: context.post_srq_recv([]),
            lambda: context.arm_srq_limit(1),
            context.take_srq_limit_event,
        ):
            with pytest.raises(RuntimeError, match="declared no shared receive queue"):
                call()


class TestReceiverNotReady:
    def test_a_receiver_that_never_posts_parks_the_sender(self):
        runtime = make_runtime()
        runtime.declare_array("inbox", 1, owner=1, initial=0)

        def sender(api):
            yield from api.wait(api.isend(1, 5, symbol="inbox"))

        def receiver(api):
            yield from api.compute(50.0)  # never posts a receive

        runtime.set_program(0, sender)
        runtime.set_program(1, receiver)
        result = runtime.run()
        # The SEND stalls at home on its credit: nothing crossed the wire,
        # nothing landed, and the run ends naming who is left waiting on what.
        assert result.blocked == (
            ("rank-0", "cq-P0:wait"),
            ("qp-P0->P1", "credit-wait:op-P0-0"),
        )
        assert result.final_shared_values["inbox"] == [0]
        assert runtime.recorder.operations("send") == []

    def test_a_late_receive_releases_the_stalled_sender(self):
        runtime = make_runtime()
        runtime.declare_array("inbox", 1, owner=1, initial=0)

        def sender(api):
            yield from api.wait(api.isend(1, 5, symbol="inbox"))
            api.private.write("done_at", api.now)

        def receiver(api):
            yield from api.compute(7.0)
            api.irecv(0, "inbox", index=0)
            (completion,) = yield from api.wait_recv(1)
            api.private.write("value", completion.value)

        runtime.set_program(0, sender)
        runtime.set_program(1, receiver)
        result = runtime.run()
        assert result.blocked == ()
        assert result.per_rank_private[1]["value"] == (5,)
        assert result.per_rank_private[0]["done_at"] >= 7.0
        (send_op,) = runtime.recorder.operations("send")
        assert send_op.data_messages == 1, "a stalled SEND is transmitted once"


class TestLengthError:
    def test_overrun_consumes_buffer_and_fails_both_sides(self):
        runtime = make_runtime()
        runtime.declare_array("inbox", 1, owner=1, initial=-1)

        def sender(api):
            request = api.isend(1, [1, 2, 3], symbol="inbox")
            (completion,) = yield from api.wait(request, raise_on_error=False)
            api.private.write("status", completion.status.value)

        def receiver(api):
            api.irecv(0, "inbox", index=0)
            completions = yield from api.verbs.wait_recv(1)
            api.private.write("status", completions[0].status.value)

        runtime.set_program(0, sender)
        runtime.set_program(1, receiver)
        result = runtime.run()
        assert result.per_rank_private[0]["status"] == "length-error"
        assert result.per_rank_private[1]["status"] == "length-error"
        assert result.final_shared_values["inbox"] == [-1]  # untouched

    def test_api_wait_recv_raises_on_length_error(self):
        runtime = make_runtime()
        runtime.declare_array("inbox", 1, owner=1, initial=0)

        def sender(api):
            yield from api.wait(api.isend(1, [1, 2]), raise_on_error=False)

        def receiver(api):
            api.irecv(0, "inbox", index=0)
            with pytest.raises(CompletionError, match="overruns"):
                yield from api.wait_recv(1)

        runtime.set_program(0, sender)
        runtime.set_program(1, receiver)
        runtime.run()

    def test_wait_recv_error_carries_the_successful_siblings(self):
        """One bad-length peer must not cost the server the good payloads:
        the already-retired completions ride on the exception."""
        runtime = make_runtime(world_size=3)
        runtime.declare_array("inbox", 3, owner=2, initial=0)

        def good_sender(api):
            yield from api.wait(api.isend(2, [7], symbol="inbox"))

        def bad_sender(api):
            yield from api.compute(5.0)  # arrive second, deterministically
            yield from api.wait(
                api.isend(2, [1, 2, 3], symbol="inbox"), raise_on_error=False
            )

        def receiver(api):
            api.irecv(0, "inbox", index=0)
            api.irecv(1, "inbox", index=1)
            try:
                yield from api.wait_recv(2)
            except CompletionError as error:
                api.private.write(
                    "recovered",
                    sorted(
                        (c.peer, c.status.value, c.value) for c in error.completions
                    ),
                )

        runtime.set_program(0, good_sender)
        runtime.set_program(1, bad_sender)
        runtime.set_program(2, receiver)
        result = runtime.run()
        assert result.per_rank_private[2]["recovered"] == [
            (0, "success", (7,)),
            (1, "length-error", None),
        ]


class TestBoundedReceiveCQ:
    def test_recv_cq_overflow_is_a_receiver_side_async_error(self):
        """A full receive CQ must not crash the sender's drain process: the
        payload lands, the sender succeeds, and the receiver records the
        lost completion as an async error (IBV_EVENT_CQ_ERR in miniature)."""
        runtime = make_runtime(verbs_cq_capacity=1)
        runtime.declare_array("inbox", 2, owner=1, initial=0)

        def sender(api):
            first = api.isend(1, [10], symbol="inbox")
            second = api.isend(1, [20], symbol="inbox")
            completions = yield from api.wait(first, second)
            api.private.write(
                "statuses", [completion.status.value for completion in completions]
            )

        def receiver(api):
            api.irecv(0, "inbox", index=0)
            api.irecv(0, "inbox", index=1)
            yield from api.compute(50.0)  # both land before anything retires
            retired = yield from api.wait_recv(1)
            api.private.write("retired", len(retired))
            api.private.write("errors", len(api.verbs.async_errors))

        runtime.set_program(0, sender)
        runtime.set_program(1, receiver)
        result = runtime.run()
        # Both sends succeeded and both payloads landed...
        assert result.per_rank_private[0]["statuses"] == ["success", "success"]
        assert result.final_shared_values["inbox"] == [10, 20]
        # ...but the second completion was lost at the receiver.
        assert result.per_rank_private[1]["retired"] == 1
        assert result.per_rank_private[1]["errors"] == 1


class TestApiValidation:
    def test_recv_buffer_must_be_local(self):
        runtime = make_runtime()
        runtime.declare_array("remote_cells", 2, owner=0, initial=0)

        def receiver(api):
            with pytest.raises(ValueError, match="receiver's own memory"):
                api.irecv(0, "remote_cells", index=0)  # owned by rank 0
            yield from api.compute(0.0)

        def idle(api):
            yield from api.compute(0.0)

        runtime.set_program(0, idle)
        runtime.set_program(1, receiver)
        runtime.run()

    def test_receive_queue_capacity_enforced(self):
        runtime = make_runtime(verbs_max_recv_wr=1)
        runtime.declare_array("inbox", 2, owner=1, initial=0)

        def receiver(api):
            api.irecv(0, "inbox", index=0)
            with pytest.raises(ReceiveQueueFull):
                api.irecv(0, "inbox", index=1)
            yield from api.compute(0.0)

        def idle(api):
            yield from api.compute(0.0)

        runtime.set_program(0, idle)
        runtime.set_program(1, receiver)
        runtime.run()


class TestMatchingHappensBefore:
    def _reuse_runtime(self, seed, reuse_early):
        runtime = DSMRuntime(
            RuntimeConfig(world_size=2, seed=seed, latency="uniform")
        )
        runtime.declare_array("inbox", 2, owner=1, initial=0)

        def sender(api):
            yield from api.wait(api.isend(1, [7, 8], symbol="inbox"))

        def receiver(api):
            api.irecv(0, "inbox", indices=range(2))
            if reuse_early:
                # The bug: scribble over the posted buffer mid-flight.
                yield from api.put("inbox", -1, index=0)
            (completion,) = yield from api.wait_recv(1)
            # Legal use: read the landed cells only after the completion.
            value = yield from api.get("inbox", index=0)
            api.private.write("seen", (completion.value, value))

        runtime.set_program(0, sender)
        runtime.set_program(1, receiver)
        return runtime

    def test_completion_ordered_reads_never_race(self):
        for seed in range(4):
            runtime = self._reuse_runtime(seed, reuse_early=False)
            result = runtime.run()
            assert result.race_count == 0, f"false positive at seed {seed}"

    def test_buffer_reuse_mid_flight_always_races(self):
        for seed in range(4):
            runtime = self._reuse_runtime(seed, reuse_early=True)
            result = runtime.run()
            assert result.race_count > 0, f"false negative at seed {seed}"
            assert {r.symbol for r in result.race_records()} == {"inbox"}

    def test_replay_reproduces_send_recv_race_report(self):
        for reuse in (False, True):
            runtime = self._reuse_runtime(0, reuse_early=reuse)
            result = runtime.run()
            replay = TraceReplayer(2).replay(
                runtime.recorder.accesses(), syncs=runtime.recorder.syncs()
            )
            assert replay.race_count == result.race_count
            assert {r.address for r in replay.races} == {
                r.address for r in result.race_records()
            }

    def test_reposted_buffer_absorbs_unsynchronized_senders_silently(self):
        # Two clients send into the same reposted slot; the repost is the
        # permission point, so no race despite the clients never syncing.
        runtime = make_runtime(world_size=3, latency="uniform")
        runtime.declare_array("slot", 1, owner=0, initial=0)
        runtime.declare_srq(0)

        def server(api):
            api.post_srq_recv("slot", index=0)
            (first,) = yield from api.wait_recv(1)
            api.verbs.post_srq_recv(first.addresses, symbol="slot")
            (second,) = yield from api.wait_recv(1)
            api.private.write("order", [first.peer, second.peer])

        def client(api):
            yield from api.wait(api.isend(0, api.rank, symbol="slot"))

        runtime.set_program(0, server)
        runtime.set_program(1, client)
        runtime.set_program(2, client)
        result = runtime.run()
        assert sorted(result.per_rank_private[0]["order"]) == [1, 2]
        assert result.race_count == 0
