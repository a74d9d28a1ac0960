"""End-to-end checks of the two-sided workloads: RPC echo and plane stencil.

The acceptance bar for SEND/RECV mirrors the atomics': the RPC echo must run
end to end over SEND/RECV + SRQ with event-channel completions, and on the
*injected* receive-buffer reuse race — whose outcome genuinely varies across
interleavings — the dual-clock detector must reach recall 1.0 (every address
the execution-varying oracle labels racy is flagged in every execution).
"""

import pytest

from repro.detectors.ground_truth import SeedVaryingOracle
from repro.trace.replay import TraceReplayer
from repro.workloads import RPCEchoWorkload, SendRecvStencilWorkload


class TestRPCEchoCorrect:
    def test_all_requests_echoed_through_srq_and_event_channel(self):
        for seed in range(3):
            result = RPCEchoWorkload(num_clients=3, requests_per_client=2).run(seed)
            server = result.run.per_rank_private[0]
            assert server["served"] == 6 and server["echoed"] == 6
            # One receive + one send completion per request, all delivered
            # through the channel's serve loop.
            assert server["events_handled"] == 12
            for client in range(1, 4):
                assert result.run.per_rank_private[client]["all_echoed"]
            assert result.run.race_count == 0
            assert result.detection_matches_expectation

    def test_clean_protocol_replays_clean(self):
        result = RPCEchoWorkload(num_clients=2, requests_per_client=2).run(0)
        replay = TraceReplayer(3).replay(
            result.runtime.recorder.accesses(),
            syncs=result.runtime.recorder.syncs(),
        )
        assert replay.race_count == 0

    def test_requests_flow_through_the_srq(self):
        result = RPCEchoWorkload(num_clients=3, requests_per_client=2).run(0)
        srq = result.runtime.verbs_contexts[0].srq
        assert srq is not None
        assert srq.matched == 6
        assert set(srq.matched_by) == {1, 2, 3}
        server = result.runtime.verbs_contexts[0]
        assert all(server.queue_pair(peer).recv_queue is srq for peer in (1, 2, 3))
        # Every exchange really went over the wire as a SEND.
        assert result.run.trace_summary.sends == 12  # 6 requests + 6 echoes


class TestRPCEchoInjectedRace:
    def test_buffer_reuse_race_has_no_false_negatives(self):
        """Ground truth: the oracle-racy addresses are flagged at every seed.

        One client keeps the oracle sharp: with several clients the SRQ's
        FIFO slot assignment makes the *request* slots execution-varying too
        — benign, matching-mediated nondeterminism (the hardware-serialized
        analogue of the paper's master/worker ticket) that the detector
        deliberately orders through the repost permission point.  The reuse
        bug on the reply buffer is the injected, must-catch race: its
        ``reuse_delay`` straddles the reply's arrival, so the scribble lands
        before the payload in some schedules and after it in others, and the
        detector must flag the pair either way (retirement — not landing —
        is the receiver's synchronization point).
        """
        workload = RPCEchoWorkload(
            num_clients=1, requests_per_client=2, racy_buffer_reuse=True
        )
        seeds = (0, 1, 2, 3, 4, 5)
        oracle = SeedVaryingOracle(workload.factory(), seeds=seeds)
        truth = oracle.evaluate()
        assert truth.racy, "the injected buffer reuse must be observably racy"
        reply_address = workload.build(0).directory.resolve("reply1", 0)
        assert reply_address in truth.racy_addresses
        finals = {
            truth.final_values_by_seed[seed]["reply1"][0] for seed in seeds
        }
        assert len(finals) > 1, "the last write must genuinely vary with timing"
        for seed in seeds:
            runtime = workload.build(seed)
            runtime.run()
            flagged = {record.address for record in runtime.report.records()}
            missed = truth.racy_addresses - flagged
            assert not missed, (
                f"false negatives at seed {seed}: oracle-racy {missed} "
                f"not flagged (flagged: {flagged})"
            )

    def test_race_is_on_the_reply_buffers(self):
        result = RPCEchoWorkload(
            num_clients=2, requests_per_client=2, racy_buffer_reuse=True
        ).run(0)
        assert result.detected_racy
        assert result.detected_symbols() == {"reply1", "reply2"}
        assert result.detection_matches_expectation

    def test_racy_run_replays_identically(self):
        for seed in range(3):
            result = RPCEchoWorkload(
                num_clients=2, requests_per_client=2, racy_buffer_reuse=True
            ).run(seed)
            replay = TraceReplayer(3).replay(
                result.runtime.recorder.accesses(),
                syncs=result.runtime.recorder.syncs(),
            )
            assert replay.race_count == result.run.race_count
            assert {r.address for r in replay.races} == {
                r.address for r in result.run.race_records()
            }


class TestPlaneStencil:
    def test_transports_agree_numerically_and_stay_race_free(self):
        for seed in (0, 1):
            send = SendRecvStencilWorkload(transport="send").run(seed)
            puts = SendRecvStencilWorkload(transport="puts").run(seed)
            for rank in range(4):
                assert (
                    send.run.per_rank_private[rank]["tile"]
                    == puts.run.per_rank_private[rank]["tile"]
                )
            assert send.run.race_count == 0 and puts.run.race_count == 0

    def test_gathered_sends_use_one_message_per_plane(self):
        workload = SendRecvStencilWorkload(
            world_size=3, plane_width=5, iterations=2, transport="send"
        )
        result = workload.run(0)
        send_ops = result.runtime.recorder.operations("send")
        # 2 iterations x (2 edge ranks with 1 neighbour + 1 middle with 2).
        assert len(send_ops) == 8
        assert all(op.data_messages == 1 for op in send_ops)
        assert all(op.was_posted for op in send_ops)

    def test_stencil_trace_replays_clean(self):
        result = SendRecvStencilWorkload(transport="send").run(0)
        replay = TraceReplayer(4).replay(
            result.runtime.recorder.accesses(),
            syncs=result.runtime.recorder.syncs(),
        )
        assert replay.race_count == 0

    def test_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            SendRecvStencilWorkload(transport="pigeon")
