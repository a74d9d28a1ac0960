"""Observability end-to-end: determinism, rank slicing, zero footprint.

The layer's two integration-level contracts:

* **Determinism** — metric snapshots and detection profiles are byte-identical
  across reruns at equal seeds, and per-schedule snapshots survive the
  campaign's worker sharding unchanged.
* **Zero behavioural footprint** — flipping span tracing on cannot change
  verdicts, final values or the metric snapshot itself, across the whole
  clock-transport × wire-format × CQ-moderation matrix.
"""

import json

import pytest

from repro.net.clock_transport import CLOCK_TRANSPORT_MODES, CLOCK_WIRE_FORMATS
from repro.obs.schema import validate_chrome_trace
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.workloads.rpc_echo import RPCEchoWorkload
from repro.workloads.stencil import StencilWorkload


def _verdict(run):
    return sorted(
        (r.address.rank, r.address.offset, r.current_rank, r.current_kind.value,
         r.previous_rank, r.symbol)
        for r in run.race_records()
    )


def _racy_stencil(seed=0, **config_kwargs):
    workload = StencilWorkload(
        world_size=3, cells_per_rank=4, iterations=2, use_barriers=False,
        config=RuntimeConfig(**config_kwargs) if config_kwargs else None,
    )
    return workload.run(seed=seed)


class TestDeterminism:
    def test_metric_snapshot_byte_identical_across_reruns(self):
        first = _racy_stencil(seed=0).run
        second = _racy_stencil(seed=0).run
        assert json.dumps(first.metrics, sort_keys=True) == json.dumps(
            second.metrics, sort_keys=True
        )
        assert first.detection_profile == second.detection_profile
        assert first.metrics, "runtime runs must produce a non-empty snapshot"

    def test_different_seeds_may_differ_but_stay_canonical(self):
        result = _racy_stencil(seed=3).run
        # Canonical form: sorted keys, JSON round-trips losslessly.
        assert list(result.metrics) == sorted(result.metrics)
        assert json.loads(json.dumps(result.metrics)) == result.metrics

    def test_decision_logs_and_outcomes_identical_with_tracing_on(self):
        """Acceptance: tracing cannot perturb explored schedules either —
        fingerprints, decision logs and replay-ready outcomes match."""
        from repro.explore import Explorer
        from repro.workloads.racy_patterns import pattern_corpus

        pattern = {p.name: p for p in pattern_corpus()}["fig5a-concurrent-puts"]

        def explore(trace_spans):
            configure = (
                (lambda rt: rt.sim.obs.configure(trace_spans=True))
                if trace_spans
                else None
            )
            explorer = Explorer(pattern.build, seed=0, configure=configure)
            return explorer.explore_systematic(budget=3, quantum=4.0)

        plain, traced = explore(False), explore(True)
        assert [o.fingerprint for o in plain.outcomes] == [
            o.fingerprint for o in traced.outcomes
        ]
        for before, after in zip(plain.outcomes, traced.outcomes):
            assert json.dumps(
                before.decisions.to_jsonable(), sort_keys=True
            ) == json.dumps(after.decisions.to_jsonable(), sort_keys=True)
            assert before.as_dict() == after.as_dict()

    def test_campaign_outcomes_carry_identical_metrics_across_workers(self):
        from repro.explore.campaign import CampaignConfig, run_campaign

        def outcomes(workers):
            report = run_campaign(
                CampaignConfig(
                    strategy="systematic", budget=3, seed=0, quantum=4.0,
                    workers=workers,
                ),
                patterns=["fig5a-concurrent-puts"],
            )
            (pattern,) = report.per_pattern
            return pattern["outcomes"]

        inline, sharded = outcomes(0), outcomes(2)
        assert inline == sharded
        assert all(o["metrics"] for o in inline)


class TestRankSlicing:
    def test_api_metrics_returns_only_this_ranks_slice(self):
        captured = {}
        runtime = DSMRuntime(RuntimeConfig(world_size=2, seed=0))
        runtime.declare_array("data", 2, initial=0.0)

        def program(api):
            yield from api.put("data", float(api.rank + 1), index=api.rank)
            captured[api.rank] = api.metrics()

        runtime.set_spmd_program(program)
        runtime.run()
        assert set(captured) == {0, 1}
        for rank, snapshot in captured.items():
            assert snapshot, f"rank {rank} saw no labelled instruments"
            for key in snapshot:
                labels = key[key.index("{"):].strip("{}").split(",")
                assert f"rank={rank}" in labels, key


@pytest.mark.parametrize("transport", CLOCK_TRANSPORT_MODES)
@pytest.mark.parametrize("wire", CLOCK_WIRE_FORMATS)
@pytest.mark.parametrize("moderation", [False, True])
class TestZeroFootprint:
    def test_tracing_never_changes_the_run(self, transport, wire, moderation):
        def build(trace_spans):
            workload = RPCEchoWorkload(
                num_clients=2,
                requests_per_client=2,
                racy_buffer_reuse=True,
                config=RuntimeConfig(
                    clock_transport=transport,
                    clock_wire=wire,
                    cq_moderation=moderation,
                    trace_spans=trace_spans,
                ),
            )
            return workload.run(seed=0)

        plain, traced = build(False), build(True)
        assert _verdict(traced.run) == _verdict(plain.run)
        assert traced.run.final_shared_values == plain.run.final_shared_values
        assert traced.run.race_count > 0
        assert json.dumps(traced.run.metrics, sort_keys=True) == json.dumps(
            plain.run.metrics, sort_keys=True
        )
        assert traced.run.detection_profile == plain.run.detection_profile
        # The traced run exports a valid Chrome trace; the plain run recorded
        # nothing at all.
        tracer = traced.runtime.sim.obs.spans
        assert tracer.events()
        assert tracer.open_spans() == []
        assert validate_chrome_trace(tracer.to_chrome_trace()) == []
        assert plain.runtime.sim.obs.spans.events() == []
        # Well-formedness: per track, events are emitted in nondecreasing
        # sim-time order (an X span is emitted at its *end*).
        last_finish = {}
        for event in tracer.events():
            if event["ph"] == "M":
                continue
            track = (event["pid"], event["tid"])
            finish = event["ts"] + event.get("dur", 0.0)
            assert finish >= last_finish.get(track, 0.0) - 1e-9, event
            last_finish[track] = max(last_finish.get(track, 0.0), finish)


@pytest.mark.parametrize("transport", ["rc", "ud"])
@pytest.mark.parametrize("cq_moderation", [False, True])
class TestControlPlaneZeroFootprint:
    """The adaptive control plane joins the zero-footprint matrix: span
    tracing cannot change verdicts, final values or the metric snapshot
    under any transport × CQ-moderation × sparse-wire setting."""

    @pytest.mark.parametrize("clock_wire", ["delta", "truncated"])
    def test_tracing_never_changes_the_run(self, transport, cq_moderation, clock_wire):
        def build(trace_spans):
            workload = RPCEchoWorkload(
                num_clients=2,
                requests_per_client=2,
                racy_buffer_reuse=True,
                config=RuntimeConfig(
                    transport=transport,
                    clock_transport="piggyback",
                    clock_wire=clock_wire,
                    cq_moderation=cq_moderation,
                    trace_spans=trace_spans,
                ),
            )
            return workload.run(seed=0)

        plain, traced = build(False), build(True)
        assert _verdict(traced.run) == _verdict(plain.run)
        assert traced.run.final_shared_values == plain.run.final_shared_values
        assert traced.run.race_count > 0
        assert json.dumps(traced.run.metrics, sort_keys=True) == json.dumps(
            plain.run.metrics, sort_keys=True
        )
        assert traced.run.detection_profile == plain.run.detection_profile
        assert validate_chrome_trace(
            traced.runtime.sim.obs.spans.to_chrome_trace()
        ) == []
        assert plain.runtime.sim.obs.spans.events() == []
