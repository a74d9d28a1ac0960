"""Acceptance of the unified clock-transport layer.

The headline contract: ``clock_transport="piggyback"`` moves strictly fewer
messages than ``"roundtrip"`` at byte-identical detector verdicts — per run
on the stencil and RPC-echo workload families, and across an explored
schedule campaign.  That the transport never changes the verdict of a given
execution is the knob promise (``tests/detectors/test_knob_promise.py``).
"""

import pytest

from repro.explore.campaign import CampaignConfig, run_campaign
from repro.net.message import MessageKind
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.workloads import (
    RPCEchoWorkload,
    SendRecvStencilWorkload,
    VerbsStencilWorkload,
)

MODES = ("roundtrip", "piggyback")


def _verdict(run):
    return sorted(
        (r.address.rank, r.address.offset, r.current_rank, r.current_kind.value, r.symbol)
        for r in run.race_records()
    )


def _pairs(workload_builder, seeds=(0, 1)):
    for seed in seeds:
        yield {
            mode: workload_builder(RuntimeConfig(clock_transport=mode)).run(seed)
            for mode in MODES
        }


WORKLOADS = {
    "stencil": lambda config: VerbsStencilWorkload(
        world_size=4, cells_per_rank=6, iterations=2, config=config
    ),
    "rpc-echo": lambda config: RPCEchoWorkload(num_clients=3, config=config),
    "rpc-echo-racy": lambda config: RPCEchoWorkload(
        num_clients=2, racy_buffer_reuse=True, config=config
    ),
    "send-stencil": lambda config: SendRecvStencilWorkload(
        world_size=3, cells_per_rank=6, plane_width=2, iterations=2, config=config
    ),
}


class TestPiggybackVsRoundtrip:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_fewer_messages_identical_verdicts(self, name):
        for runs in _pairs(WORKLOADS[name]):
            roundtrip, piggyback = runs["roundtrip"].run, runs["piggyback"].run
            assert _verdict(piggyback) == _verdict(roundtrip), (
                f"{name}: the transport changed the race report"
            )
            assert (
                piggyback.fabric_stats.total_messages
                < roundtrip.fabric_stats.total_messages
            ), f"{name}: piggybacking must move strictly fewer messages"
            # The whole CLOCK_FETCH/CLOCK_UPDATE category disappears...
            assert piggyback.fabric_stats.detection_messages == 0
            # ...because the clocks ride on the data messages instead.
            assert piggyback.clock_transport_stats["piggybacked_messages"] > 0
            assert piggyback.clock_transport_stats["round_trips"] == 0
            assert roundtrip.clock_transport_stats["piggybacked_messages"] == 0

    def test_data_messages_actually_carry_the_clock(self):
        runtime = DSMRuntime(
            RuntimeConfig(world_size=2, clock_transport="piggyback")
        )
        runtime.declare_scalar("x", owner=1, initial=0)

        def writer(api):
            yield from api.put("x", 1)

        def idle(api):
            yield from api.compute(0.0)

        runtime.set_program(0, writer)
        runtime.set_program(1, idle)
        runtime.run()
        assert runtime.fabric.message_count(MessageKind.PUT_DATA) > 0
        assert runtime.fabric.message_count(MessageKind.CLOCK_FETCH) == 0
        assert runtime.fabric.message_count(MessageKind.CLOCK_UPDATE) == 0

    def test_per_check_control_accounting_is_zero_under_piggyback(self):
        for mode, expected in (("roundtrip", True), ("piggyback", False)):
            result = WORKLOADS["stencil"](RuntimeConfig(clock_transport=mode)).run(0)
            assert (result.run.detection_control_messages > 0) is expected


class TestExploredScheduleCampaigns:
    def test_campaign_verdicts_identical_with_fewer_messages(self):
        reports = {
            mode: run_campaign(
                CampaignConfig(
                    strategy="systematic", budget=4, quantum=4.0,
                    clock_transport=mode,
                ),
                patterns=["fig5a-concurrent-puts", "unsynchronized-counter"],
            )
            for mode in MODES
        }
        roundtrip, piggyback = reports["roundtrip"], reports["piggyback"]
        assert (
            piggyback.matrix_clock_consistency()
            == roundtrip.matrix_clock_consistency()
        )
        for pb, rt in zip(piggyback.per_pattern, roundtrip.per_pattern):
            assert pb["flagged_in_any"] == rt["flagged_in_any"]
            assert sum(o["total_messages"] for o in pb["outcomes"]) < sum(
                o["total_messages"] for o in rt["outcomes"]
            )
