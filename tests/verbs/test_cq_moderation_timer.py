"""(cq_count, cq_usec) CQ moderation: flush triggers and CQE coalescing.

The timer protocol's contracts:

* **Validation** — the knob is a positive-count / positive-usec pair.
* **Count bound** — the batch flushes as ONE CQE event the moment the
  count trips, with the armed timer logically cancelled.
* **Timer bound** — a batch smaller than the count flushes when the armed
  timer expires, bounding the added retirement latency by ``cq_usec``.
* **Capacity pressure** — a bounded CQ flushes early instead of
  overflowing at the eventual timer.
* **Coalescing across drains** — unlike per-drain-burst ``cq_moderation``,
  the timer coalesces completions from separate drains, so ``cq.events``
  drops below ``total_pushed`` even for one-at-a-time posting.
* **Semantics unchanged** — verdicts, final values and delivered payloads
  match an unmoderated run exactly.
"""

import pytest

from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.verbs.completion_queue import validate_cq_moderation_timer


class TestValidation:
    def test_none_disables(self):
        assert validate_cq_moderation_timer(None) is None

    def test_pair_normalizes(self):
        assert validate_cq_moderation_timer((4, 2)) == (4, 2.0)
        assert validate_cq_moderation_timer([1, 0.5]) == (1, 0.5)

    @pytest.mark.parametrize(
        "bad",
        [42, "4,2.0", (0, 1.0), (-1, 1.0), (True, 1.0), (4, 0.0), (4, -2.0), (4,)],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            validate_cq_moderation_timer(bad)


def burst_runtime(timer, count=8, cq_capacity=None, think=0.0):
    runtime = DSMRuntime(
        RuntimeConfig(
            world_size=2,
            cq_moderation_timer=timer,
            verbs_cq_capacity=cq_capacity,
        )
    )
    runtime.declare_array("cells", count, owner=1, initial=0)

    def writer(api):
        for index in range(count):
            api.iput("cells", index + 1, index=index)
            if think:
                yield from api.compute(think)
        yield from api.wait_all()

    def idle(api):
        yield from api.compute(1.0)

    runtime.set_program(0, writer)
    runtime.set_program(1, idle)
    return runtime


class TestFlushTriggers:
    def test_count_bound_flushes_and_coalesces(self):
        runtime = burst_runtime((4, 50.0), count=8)
        result = runtime.run()
        moderator = runtime.verbs_contexts[0].cq_moderator
        assert moderator.flushes["count"] >= 1
        assert moderator.pending == 0, "nothing may be stranded at end of run"
        cq = runtime.verbs_contexts[0].cq
        assert cq.events < cq.total_pushed, (
            "timer moderation must coalesce CQEs below one-per-completion"
        )
        assert result.final_shared_values["cells"] == list(range(1, 9))

    def test_timer_bound_flushes_small_batches(self):
        # Count bound unreachably high; only the 2.0-usec timer can flush.
        runtime = burst_runtime((64, 2.0), count=6, think=1.0)
        runtime.run()
        moderator = runtime.verbs_contexts[0].cq_moderator
        assert moderator.flushes["timer"] >= 1
        assert moderator.flushes["count"] == 0
        assert moderator.pending == 0

    def test_capacity_pressure_flushes_before_overflow(self):
        runtime = burst_runtime((64, 500.0), count=8, cq_capacity=3)
        result = runtime.run()
        moderator = runtime.verbs_contexts[0].cq_moderator
        assert moderator.flushes["capacity"] >= 1
        assert result.final_shared_values["cells"] == list(range(1, 9))

    def test_flush_counter_metric_booked_lazily(self):
        moderated = burst_runtime((4, 50.0), count=8).run()
        assert any("cq_timer_flushes" in key for key in moderated.metrics)
        plain = burst_runtime(None, count=8).run()
        assert not any("cq_timer" in key for key in plain.metrics)


class TestSemanticsUnchanged:
    def test_verdicts_and_values_match_unmoderated_run(self):
        from repro.workloads.rpc_echo import RPCEchoWorkload

        def build(timer):
            return RPCEchoWorkload(
                num_clients=2,
                requests_per_client=2,
                racy_buffer_reuse=True,
                config=RuntimeConfig(cq_moderation_timer=timer),
            ).run(seed=0)

        plain, moderated = build(None), build((3, 2.0))
        digest = lambda run: sorted(
            (r.address.rank, r.address.offset, r.current_rank, r.previous_rank)
            for r in run.race_records()
        )
        assert digest(moderated.run) == digest(plain.run)
        assert moderated.run.race_count > 0
        assert (
            moderated.run.final_shared_values == plain.run.final_shared_values
        )

    def test_timer_takes_precedence_over_burst_moderation(self):
        runtime = burst_runtime((4, 50.0), count=8)
        runtime.set_knob("cq_moderation", True)
        runtime.run()
        moderator = runtime.verbs_contexts[0].cq_moderator
        assert moderator is not None
        assert sum(moderator.flushes.values()) >= 1, (
            "with both knobs on, completions must route through the timer"
        )

    def test_timer_wait_span_recorded_under_tracing(self):
        runtime = burst_runtime((64, 2.0), count=6, think=1.0)
        runtime.sim.obs.configure(trace_spans=True)
        runtime.run()
        waits = [
            event
            for event in runtime.sim.obs.spans.events()
            if event.get("name") == "timer_wait"
        ]
        assert waits, "flushed batches must render timer_wait spans"
