"""Credit-based flow control: accounting invariants and the saturation win.

Two layers of contract:

* **Gate accounting** — ``available = depth - claims`` never goes negative,
  claims settle exactly once per match, waiters are granted FIFO one per
  post, and all gate instruments exist only when a gate was created (zero
  footprint in RNR mode).
* **Protocol equivalence** — both admission protocols match sends to
  receives in the same FIFO order, so verdicts and delivered payloads are
  identical; credit mode transmits each payload exactly once (strictly
  fewer messages, zero RNR retries) and, under a realistically coarse RNR
  timer, finishes no later.
"""

import pytest

from repro.memory.directory import PlacementPolicy
from repro.net.flow_control import (
    FLOW_CONTROL_MODES,
    CreditGate,
    credit_gate_for,
    validate_flow_control,
)
from repro.runtime.runtime import DSMRuntime, RuntimeConfig

RECEIVER_THINK = 3.0
COARSE_BACKOFF = 8.0
MESSAGES = 24


def saturating_runtime(flow_control, seed=0):
    """A blasting sender against a receiver that posts one buffer at a time."""
    runtime = DSMRuntime(
        RuntimeConfig(
            world_size=2,
            seed=seed,
            flow_control=flow_control,
            verbs_rnr_backoff=COARSE_BACKOFF,
        )
    )
    runtime.declare_array(
        "inbox", 8, policy=PlacementPolicy.OWNER, owner=1, initial=0
    )

    def sender(api):
        for value in range(MESSAGES):
            yield from api.isend_throttled(1, value, symbol="inbox")
        yield from api.wait_all()

    def slow_receiver(api):
        received = 0
        while received < MESSAGES:
            api.irecv(0, "inbox", index=received % 8)
            done = yield from api.wait_recv(1)
            received += len(done)
            yield from api.compute(RECEIVER_THINK)

    runtime.set_program(0, sender)
    runtime.set_program(1, slow_receiver)
    return runtime


class TestValidation:
    def test_modes(self):
        assert FLOW_CONTROL_MODES == ("rnr", "credit")
        for mode in FLOW_CONTROL_MODES:
            assert validate_flow_control(mode) == mode

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="flow_control"):
            validate_flow_control("xon-xoff")
        with pytest.raises(ValueError, match="flow_control"):
            RuntimeConfig(world_size=2, flow_control="nak") and DSMRuntime(
                RuntimeConfig(world_size=2, flow_control="nak")
            )


class FakeQueue:
    def __init__(self, rank=1):
        self.rank = rank
        self.depth = 0
        self.listener = None

    def set_post_listener(self, listener):
        self.listener = listener

    def post(self):
        self.depth += 1
        if self.listener is not None:
            self.listener()

    def consume(self):
        self.depth -= 1


class FakeEvent:
    def __init__(self):
        self.fired = False

    def succeed(self, value=None):
        self.fired = True


class FakeSim:
    """Just enough simulator for a bare gate: no controller, no scheduler."""

    controller = None

    def __init__(self):
        from repro.obs.observability import Observability

        self.obs = Observability()

    def call_after(self, delay, callback, name=None):  # pragma: no cover
        raise AssertionError("no controller => grants fire immediately")


class TestCreditGateAccounting:
    def test_available_tracks_posts_minus_claims(self):
        queue, sim = FakeQueue(), FakeSim()
        gate = credit_gate_for(queue, sim)
        assert credit_gate_for(queue, sim) is gate, "one gate per queue"
        assert gate.available == 0
        assert not gate.try_claim()
        queue.post()
        queue.post()
        assert gate.available == 2
        assert gate.try_claim() and gate.try_claim()
        assert gate.available == 0
        assert not gate.try_claim(), "claims cannot outrun posted buffers"
        # A match consumes the buffer AND settles its claim: net zero.
        queue.consume()
        gate.settle()
        assert gate.available == 0
        queue.post()
        assert gate.available == 1

    def test_settle_without_claim_raises(self):
        gate = CreditGate(FakeQueue(), FakeSim())
        with pytest.raises(RuntimeError, match="settle without a claim"):
            gate.settle()

    def test_waiters_granted_fifo_one_per_post(self):
        queue = FakeQueue()
        gate = credit_gate_for(queue, FakeSim())
        first, second = FakeEvent(), FakeEvent()
        gate.enqueue_waiter(first, sender=0)
        gate.enqueue_waiter(second, sender=2)
        assert gate.waiting == 2 and gate.stalls == 2
        queue.post()
        assert first.fired and not second.fired, "oldest waiter wakes first"
        queue.post()
        assert second.fired
        assert gate.grants == 2
        queue.post()
        assert gate.grants == 2, "a post with no waiters grants nothing"

    def test_a_released_claim_is_granted_like_a_post(self):
        """A SEND that will never match hands its credit to the oldest waiter."""
        queue = FakeQueue()
        gate = credit_gate_for(queue, FakeSim())
        queue.post()
        assert gate.try_claim() and gate.available == 0
        first, second = FakeEvent(), FakeEvent()
        gate.enqueue_waiter(first, sender=0)
        gate.enqueue_waiter(second, sender=2)
        gate.release()
        assert gate.available == 1, "the buffer is still posted, the claim is gone"
        assert first.fired and not second.fired and gate.grants == 1
        with pytest.raises(RuntimeError, match="settle without a claim"):
            gate.release()


class TestSaturationHeadToHead:
    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for mode in FLOW_CONTROL_MODES:
            runtime = saturating_runtime(mode)
            result = runtime.run()
            out[mode] = {
                "result": result,
                "rnr_retries": sum(nic.rnr_retries for nic in runtime.nics),
                "messages": result.fabric_stats.total_messages,
            }
        return out

    def test_verdicts_and_payloads_identical(self, runs):
        rnr, credit = runs["rnr"]["result"], runs["credit"]["result"]
        assert credit.race_count == rnr.race_count
        assert credit.final_shared_values == rnr.final_shared_values

    def test_credit_mode_never_retries(self, runs):
        assert runs["rnr"]["rnr_retries"] > 0, (
            "the saturation workload must actually trigger RNR in rnr mode"
        )
        assert runs["credit"]["rnr_retries"] == 0

    def test_credit_mode_strictly_fewer_messages(self, runs):
        assert runs["credit"]["messages"] < runs["rnr"]["messages"]
        # Exactly the retransmissions disappear: every retry was one
        # data-message transmission that credit mode never puts on the wire.
        assert (
            runs["rnr"]["messages"] - runs["credit"]["messages"]
            == runs["rnr"]["rnr_retries"]
        )

    def test_credit_mode_no_worse_sim_time(self, runs):
        assert (
            runs["credit"]["result"].elapsed_sim_time
            <= runs["rnr"]["result"].elapsed_sim_time
        )

    def test_credit_stall_metrics_booked(self, runs):
        metrics = runs["credit"]["result"].metrics
        assert metrics.get("flow_control.credit_stalls{rank=1}", 0) > 0
        assert metrics.get("flow_control.credit_grants{rank=1}", 0) > 0
        # And absent from the RNR run: gate instruments are lazy.
        assert not any("credit" in key for key in runs["rnr"]["result"].metrics)


class TestSrqSharedGate:
    def test_srq_pool_is_shared_across_senders(self):
        runtime = DSMRuntime(
            RuntimeConfig(world_size=3, flow_control="credit")
        )
        runtime.declare_array(
            "inbox", 8, policy=PlacementPolicy.OWNER, owner=2, initial=0
        )

        def sender(api):
            request = api.isend(2, 10 + api.rank, symbol="inbox")
            yield from api.wait(request)

        def server(api):
            api.create_srq()
            for slot in range(2):
                api.post_srq_recv("inbox", index=slot)
            done = 0
            while done < 2:
                completions = yield from api.wait_recv(1)
                done += len(completions)

        runtime.set_program(0, sender)
        runtime.set_program(1, sender)
        runtime.set_program(2, server)
        runtime.run()
        context = runtime.verbs_contexts[2]
        gate_a = context.credit_gate(0)
        gate_b = context.credit_gate(1)
        assert gate_a is gate_b, "SRQ-backed peers share one credit pool"

    def test_credit_stall_span_recorded_under_tracing(self):
        runtime = saturating_runtime("credit")
        runtime.sim.obs.configure(trace_spans=True)
        runtime.run()
        stalls = [
            event
            for event in runtime.sim.obs.spans.events()
            if event.get("name") == "credit_stall"
        ]
        assert stalls, "stalled senders must render credit_stall spans"
