"""Acceptance of the clock wire-format layer and completion coalescing.

The two new knobs must be invisible to the detector:

* ``clock_wire`` (``full``/``delta``/``truncated``) only changes how many
  bytes a clock rider costs — every frame decodes to the exact clock, so a
  compressed run's race report is **byte-identical** to the full-format run
  (clocks included), its messages the same, only its wire bytes smaller;
* ``cq_moderation`` only coalesces completion delivery (one CQE per drain
  burst) — every completion still retires with its batched clock, so the
  verdict set cannot change; only completion-event counts and clock-byte
  charges shrink.

And the trace stays the ground truth: offline replay of a
piggyback+delta(+moderation) run reproduces the online race report
byte-identically, because recorded clocks are knob-independent.
"""

import pytest

from repro.explore.campaign import CampaignConfig, main as campaign_main, run_campaign
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.trace.replay import TraceReplayer
from repro.workloads import RPCEchoWorkload, VerbsStencilWorkload

WIRE_FORMATS = ("full", "delta", "truncated")
TRANSPORTS = ("roundtrip", "piggyback")


def _racy_burst_runtime(**knobs):
    """Three ranks; 0 posts a burst then reads unwaited (a real async race),
    while 2 also writes the cell — plenty of verdicts to compare."""
    runtime = DSMRuntime(
        RuntimeConfig(world_size=3, **knobs)
    )
    runtime.declare_array("cells", 4, owner=1, initial=0)

    def poster(api):
        for index in range(4):
            api.iput("cells", 10 + index, index=index)
        value = yield from api.get("cells", index=0)  # unwaited: races
        api.private.write("seen", value)
        yield from api.wait_all()

    def other_writer(api):
        yield from api.put("cells", 99, index=0)
        yield from api.compute(1.0)

    def idle(api):
        yield from api.compute(0.0)

    runtime.set_program(0, poster)
    runtime.set_program(1, idle)
    runtime.set_program(2, other_writer)
    return runtime


def _full_verdict(run):
    """The race report down to the clocks — byte-level comparison."""
    return sorted(
        (
            r.address.rank, r.address.offset, r.current_rank,
            r.current_kind.value, tuple(r.current_clock),
            r.previous_rank, tuple(r.previous_clock), r.symbol, r.operation,
        )
        for r in run.race_records()
    )


class TestWireFormatIsByteInvisible:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_byte_identical_verdicts_same_messages_fewer_bytes(self, transport):
        runs = {
            wire: _racy_burst_runtime(
                clock_transport=transport, clock_wire=wire
            ).run()
            for wire in WIRE_FORMATS
        }
        baseline = runs["full"]
        assert baseline.race_count > 0, "the scenario must actually race"
        for wire in ("delta", "truncated"):
            compressed = runs[wire]
            assert _full_verdict(compressed) == _full_verdict(baseline), (
                f"{transport}/{wire}: the wire format changed the race report"
            )
            assert compressed.final_shared_values == baseline.final_shared_values
            assert (
                compressed.fabric_stats.total_messages
                == baseline.fabric_stats.total_messages
            ), f"{transport}/{wire}: the wire format changed the message count"
            assert (
                compressed.fabric_stats.total_bytes
                < baseline.fabric_stats.total_bytes
            ), f"{transport}/{wire}: compression must shrink wire bytes"
            assert compressed.clock_transport_stats["wire_bytes_saved"] > 0
            assert compressed.clock_transport_stats["wire_frames_sparse"] > 0

    def test_piggyback_riders_are_sized_by_the_format(self):
        full = _racy_burst_runtime(
            clock_transport="piggyback", clock_wire="full"
        ).run()
        delta = _racy_burst_runtime(
            clock_transport="piggyback", clock_wire="delta"
        ).run()
        assert (
            delta.clock_transport_stats["piggybacked_messages"]
            == full.clock_transport_stats["piggybacked_messages"]
        )
        assert (
            delta.clock_transport_stats["piggybacked_bytes"]
            < full.clock_transport_stats["piggybacked_bytes"]
        )

    def test_roundtrip_clock_update_payload_shrinks_too(self):
        full = _racy_burst_runtime(
            clock_transport="roundtrip", clock_wire="full"
        ).run()
        delta = _racy_burst_runtime(
            clock_transport="roundtrip", clock_wire="delta"
        ).run()
        assert (
            delta.fabric_stats.detection_messages
            == full.fabric_stats.detection_messages
        )
        assert delta.fabric_stats.detection_bytes < full.fabric_stats.detection_bytes
        assert delta.detection_clock_bytes < full.detection_clock_bytes


class TestCqModerationIsVerdictInvisible:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_same_verdicts_fewer_completion_events(self, transport):
        off = _racy_burst_runtime(
            clock_transport=transport, cq_moderation=False
        ).run()
        on = _racy_burst_runtime(
            clock_transport=transport, cq_moderation=True
        ).run()
        assert off.race_count > 0
        # Moderation may shift CQ delivery times, so compare the verdict set
        # (who raced where), not the clock bytes.
        verdict = lambda run: sorted(
            (r.address.rank, r.address.offset, r.current_rank,
             r.current_kind.value, r.symbol)
            for r in run.race_records()
        )
        assert verdict(on) == verdict(off)
        assert off.final_shared_values == on.final_shared_values
        stats_on, stats_off = on.clock_transport_stats, off.clock_transport_stats
        assert stats_on["completion_events"] < stats_off["completion_events"]
        assert stats_on["completions_coalesced"] > 0
        assert stats_off["completions_coalesced"] == 0
        assert (
            stats_on["completion_clock_bytes"] < stats_off["completion_clock_bytes"]
        )

    def test_every_completion_still_retires_under_moderation(self):
        runtime = _racy_burst_runtime(cq_moderation=True)
        result = runtime.run()
        assert result.knobs["cq_moderation"] is True
        for context in runtime.verbs_contexts:
            assert context.outstanding_count == 0
        # One CQE per drain burst on the posting rank's send CQ.
        send_cq = runtime.verbs_contexts[0].cq
        assert send_cq.total_pushed > send_cq.events

    def test_bounded_cq_never_overflows_under_moderation(self):
        """A capacity-bounded CQ that survives uncoalesced delivery must
        survive coalesced delivery too: the drain splits the burst the
        moment the CQ would fill (real moderation hardware fires the event
        when the CQ fills), so moderation can never turn a passing run
        into a CompletionQueueOverflow crash."""

        def run(cq_moderation):
            runtime = DSMRuntime(
                RuntimeConfig(
                    world_size=2, verbs_cq_capacity=4,
                    cq_moderation=cq_moderation,
                )
            )
            runtime.declare_array("cells", 8, owner=1, initial=0)

            def poster(api):
                for index in range(8):
                    request = api.iput("cells", index, index=index)
                    yield from api.wait(request)

            def idle(api):
                yield from api.compute(0.0)

            runtime.set_program(0, poster)
            runtime.set_program(1, idle)
            return runtime.run()

        off, on = run(False), run(True)
        assert off.final_shared_values == on.final_shared_values
        assert off.race_count == on.race_count == 0

    def test_moderated_workloads_run_end_to_end(self):
        for workload in (
            VerbsStencilWorkload(
                world_size=4, cells_per_rank=6, iterations=2,
                config=RuntimeConfig(
                    clock_transport="piggyback", clock_wire="delta",
                    cq_moderation=True,
                ),
            ),
            RPCEchoWorkload(
                num_clients=3,
                config=RuntimeConfig(
                    clock_transport="piggyback", clock_wire="truncated",
                    cq_moderation=True,
                ),
            ),
        ):
            outcome = workload.run(0)
            assert outcome.run.race_count == 0
            # These workloads fan posts out across peers, so bursts are
            # often single completions; coalescing may or may not trigger,
            # but every completion must still be delivered and retired.
            stats = outcome.run.clock_transport_stats
            assert stats["completion_events"] > 0
            assert stats["completion_events"] <= (
                stats["completion_events"] + stats["completions_coalesced"]
            )


class TestTraceStaysTheGroundTruth:
    def test_replay_of_piggyback_delta_moderated_run_is_byte_identical(self):
        runtime = _racy_burst_runtime(
            clock_transport="piggyback", clock_wire="delta", cq_moderation=True
        )
        result = runtime.run()
        assert result.race_count > 0
        replay = TraceReplayer(3).replay(
            runtime.recorder.accesses(), syncs=runtime.recorder.syncs()
        )
        online = _full_verdict(result)
        offline = sorted(
            (
                r.address.rank, r.address.offset, r.current_rank,
                r.current_kind.value, tuple(r.current_clock),
                r.previous_rank, tuple(r.previous_clock), r.symbol, r.operation,
            )
            for r in replay.races
        )
        assert offline == online, "offline replay diverged from the online report"

    def test_trace_header_records_the_knobs(self):
        from repro.trace.serialization import trace_to_json
        import json

        runtime = _racy_burst_runtime(
            clock_transport="piggyback", clock_wire="delta", cq_moderation=True
        )
        runtime.run()
        info = runtime.recorder.run_info()
        assert info["clock_transport"] == "piggyback"
        assert info["clock_wire"] == "delta"
        assert info["cq_moderation"] is True
        text = trace_to_json(
            3,
            runtime.recorder.accesses(),
            syncs=runtime.recorder.syncs(),
            run_info=info,
        )
        header = json.loads(text)["run_info"]
        assert header["clock_wire"] == "delta"


class TestCampaignKnobMatrix:
    def test_expect_consistent_holds_for_every_knob_combination(self):
        """The CI acceptance gate, in miniature: ``--expect-consistent``
        passes for every clock_transport × clock_wire × cq_moderation cell."""
        for transport in TRANSPORTS:
            for wire in WIRE_FORMATS:
                for moderation in ("off", "on"):
                    argv = [
                        "--patterns", "fig5a-concurrent-puts",
                        "--strategy", "systematic",
                        "--budget", "3",
                        "--quantum", "4.0",
                        "--clock-transport", transport,
                        "--clock-wire", wire,
                        "--cq-moderation", moderation,
                        "--expect-consistent",
                    ]
                    assert campaign_main(argv) == 0, (
                        f"--expect-consistent failed for "
                        f"{transport}/{wire}/moderation={moderation}"
                    )

    def test_campaign_reports_agree_across_wire_formats(self):
        reports = {
            wire: run_campaign(
                CampaignConfig(
                    strategy="systematic", budget=3, quantum=4.0,
                    clock_transport="piggyback", clock_wire=wire,
                ),
                patterns=["write-after-read-unsync"],
            )
            for wire in WIRE_FORMATS
        }
        baseline = reports["full"]
        for wire in ("delta", "truncated"):
            assert (
                reports[wire].matrix_clock_consistency()
                == baseline.matrix_clock_consistency()
            )
            for fresh, base in zip(
                reports[wire].per_pattern, baseline.per_pattern
            ):
                assert fresh["flagged_in_any"] == base["flagged_in_any"]
