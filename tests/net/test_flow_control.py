"""Credit-based flow control: gate accounting and a saturated receiver.

Two layers of contract:

* **Gate accounting** — ``available = depth - claims`` never goes negative,
  claims settle exactly once per match, waiters are granted FIFO one per
  post, and a returned claim is granted like a post.
* **The claim** — a SEND claims its credit inline and enters the stall
  frame only when the claim fails; each stalled SEND ends in one
  ``credit_stall`` span or is still parked (named in ``blocked``) when the
  run ends.  A match that finds no buffer after a granted claim is a broken
  invariant: it fails the run, nothing retries it.
* **A saturated receiver** — a sender blasting SENDs at a receiver that
  posts one buffer at a time stalls at home: every payload crosses the wire
  exactly once, and the stalls are booked and traced.  However many buffers
  the receiver posts at a time, over either transport, every SEND lands in
  the buffer FIFO matching gives it.  A write-write race
  seeded beside the stream is flagged in the default schedule and in fuzzed
  ones, each of which replays from its own decision log with its grants
  logged as ``credit`` decisions.
"""

import pytest

from repro.explore.controller import ReplayStrategy, ScheduleController
from repro.explore.fuzzer import ScheduleFuzzer
from repro.explore.runner import MATRIX_CLOCK, run_schedule
from repro.memory.directory import PlacementPolicy
from repro.net.flow_control import CreditGate, credit_gate_for
from repro.net.message import MessageKind
from repro.net.nic import NIC, ReceiverNotReady
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.sim.events import SimulationError
from repro.workloads import RPCEchoWorkload, SendRecvStencilWorkload
from repro.workloads.racy_patterns import pattern_corpus
from tests.explore.test_control_plane_decisions import credit_factory

RECEIVER_THINK = 3.0
MESSAGES = 24
RACY_MESSAGES = 12


def saturating_runtime(depth=1, transport="rc"):
    """A blasting sender against a receiver that posts *depth* buffers at a
    time and thinks before it posts the next ones."""
    runtime = DSMRuntime(RuntimeConfig(world_size=2, transport=transport))
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
            for slot in range(received, received + depth):
                api.irecv(0, "inbox", index=slot % 8)
            done = yield from api.wait_recv(depth)
            received += len(done)
            yield from api.compute(RECEIVER_THINK)

    runtime.set_program(0, sender)
    runtime.set_program(1, slow_receiver)
    return runtime


def racy_saturating_factory(seed):
    """A sender overrunning a slow receiver, with one seeded race: both
    ranks put to ``scratch[0]`` with no synchronization between them — a
    write-write race whatever the send stream's admission does.  (The
    send/recv stream itself synchronizes, so the race must come from a
    channel the matching machinery does not order.)"""
    runtime = DSMRuntime(RuntimeConfig(world_size=2, seed=seed, latency="constant"))
    runtime.declare_array(
        "inbox", 4, policy=PlacementPolicy.OWNER, owner=1, initial=0
    )
    runtime.declare_array(
        "scratch", 1, policy=PlacementPolicy.OWNER, owner=1, initial=0
    )

    def sender(api):
        yield from api.put("scratch", 7, index=0)
        for value in range(RACY_MESSAGES):
            yield from api.isend_throttled(1, value, symbol="inbox")
        yield from api.wait_all()

    def receiver(api):
        yield from api.put("scratch", 99, index=0)
        received = 0
        while received < RACY_MESSAGES:
            api.irecv(0, "inbox", index=received % 4)
            done = yield from api.wait_recv(1)
            received += len(done)
            yield from api.compute(RECEIVER_THINK)

    runtime.set_program(0, sender)
    runtime.set_program(1, receiver)
    return runtime


class FakeQueue:
    def __init__(self, rank=1):
        self.rank = rank
        self.depth = 0
        self.listener = None
        self.credit_gate = None

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


def never_posting_runtime(seed):
    """A SEND to a receiver that never posts: the sender parks for good."""
    runtime = DSMRuntime(RuntimeConfig(world_size=2, seed=seed, latency="constant"))
    runtime.declare_array("inbox", 1, owner=1, initial=0)

    def sender(api):
        yield from api.wait(api.isend(1, 5, symbol="inbox"))

    def receiver(api):
        yield from api.compute(50.0)

    runtime.set_program(0, sender)
    runtime.set_program(1, receiver)
    return runtime


TWO_SIDED = {
    "saturating": lambda seed: saturating_runtime(),
    "saturating-racy": racy_saturating_factory,
    "late-receiver": credit_factory,
    "send-recv-stencil": SendRecvStencilWorkload(4, iterations=3).build,
    "rpc-echo": RPCEchoWorkload().build,
    "rpc-echo-racy": RPCEchoWorkload(racy_buffer_reuse=True).build,
    "never-posts": never_posting_runtime,
}


class TestTheClaim:
    @pytest.mark.parametrize("fuzz_seed", [None, 3], ids=["uncontrolled", "fuzz-3"])
    @pytest.mark.parametrize("transport", ["rc", "ud"])
    @pytest.mark.parametrize("program", TWO_SIDED)
    def test_only_a_failed_claim_enters_the_stall_frame(
        self, program, transport, fuzz_seed, monkeypatch
    ):
        stall = NIC._credit_stall
        entered = []

        def counted(nic, gate, destination, tag):
            entered.append(tag)
            return stall(nic, gate, destination, tag)

        monkeypatch.setattr(NIC, "_credit_stall", counted)
        runtime = TWO_SIDED[program](0)
        runtime.set_knob("transport", transport)
        runtime.sim.obs.configure(trace_spans=True)
        if fuzz_seed is not None:
            # Fuzz seed 3 runs a SEND of the stencil and of both RPC echoes
            # ahead of its receiver's post, which none of them does
            # uncontrolled: their stall frames are entered and later granted.
            runtime.sim.install_controller(ScheduleController(ScheduleFuzzer(
                seed=fuzz_seed, reorder_probability=0.8, tie_shuffle_probability=0.6
            )))
        result = runtime.run()
        spans = [
            event
            for event in runtime.sim.obs.spans.events()
            if event.get("name") == "credit_stall"
        ]
        parked = [wait for _, wait in result.blocked if wait.startswith("credit-wait:")]
        stalls = sum(
            value
            for key, value in result.metrics.items()
            if key.startswith("flow_control.credit_stalls")
        )
        assert len(entered) == len(set(entered)), "one stall frame per SEND"
        assert len(entered) == len(spans) + len(parked)
        # One program parks on purpose, so the identity's last term is live.
        assert bool(parked) == (program == "never-posts")
        assert len(entered) <= stalls
        assert bool(entered) == bool(stalls), "an uncontended SEND never stalls"

    @pytest.mark.parametrize("transport", ["rc", "ud"])
    def test_a_granted_claim_with_no_buffer_fails_the_run(self, transport, monkeypatch):
        # A gate that grants every claim breaks the invariant the match
        # relies on: the receiver posts late, so the first SEND arrives
        # before any post.
        monkeypatch.setattr(CreditGate, "try_claim", lambda gate: True)
        runtime = credit_factory(0)
        runtime.set_knob("transport", transport)
        with pytest.raises(SimulationError, match="qp-P0->P1") as failure:
            runtime.run()
        assert isinstance(failure.value.__cause__, ReceiverNotReady)


class TestSaturatedReceiver:
    @pytest.fixture(scope="class")
    def result(self):
        return saturating_runtime().run()

    def test_every_payload_crosses_the_wire_once(self, result):
        sends = result.fabric_stats.message_count_for_kind(MessageKind.SEND_REQUEST)
        assert sends == MESSAGES
        # FIFO matching: value v landed in inbox[v % 8], the last lap stays.
        assert result.final_shared_values["inbox"] == list(range(16, 24))
        assert result.blocked == ()

    def test_credit_stall_metrics_booked(self, result):
        assert result.metrics["flow_control.credit_stalls{rank=1}"] > 0
        assert result.metrics["flow_control.credit_grants{rank=1}"] > 0

    def test_a_run_without_sends_creates_no_gate(self):
        pattern = pattern_corpus()[0]
        result = pattern.build(0).run()
        assert not any(key.startswith("flow_control.") for key in result.metrics)

    def test_credit_stall_span_recorded_under_tracing(self):
        runtime = saturating_runtime()
        runtime.sim.obs.configure(trace_spans=True)
        runtime.run()
        stalls = [
            event
            for event in runtime.sim.obs.spans.events()
            if event.get("name") == "credit_stall"
        ]
        assert stalls, "stalled senders must render credit_stall spans"


@pytest.mark.parametrize("transport", ["rc", "ud"])
@pytest.mark.parametrize("depth", [1, 2, 4, 8])
def test_how_the_receiver_paces_its_posts_moves_no_match(depth, transport):
    """Stalls change when a SEND leaves, never which buffer it lands in."""
    runtime = saturating_runtime(depth, transport)
    result = runtime.run()
    sends = result.fabric_stats.message_count_for_kind(MessageKind.SEND_REQUEST)
    assert sends == MESSAGES
    assert result.final_shared_values["inbox"] == list(range(16, 24))
    assert result.blocked == ()
    assert result.metrics["flow_control.credit_stalls{rank=1}"] > 0
    gate = runtime.verbs_contexts[1].credit_gate(0)
    assert gate.available == gate.waiting == 0, "every claim settled"


class TestSrqSharedGate:
    def test_srq_pool_is_shared_across_senders(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=3))
        runtime.declare_array(
            "inbox", 8, policy=PlacementPolicy.OWNER, owner=2, initial=0
        )
        runtime.declare_srq(2)

        def sender(api):
            request = api.isend(2, 10 + api.rank, symbol="inbox")
            yield from api.wait(request)

        def server(api):
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


class TestSeededRaceUnderSaturation:
    def test_the_seeded_race_is_flagged(self):
        result = racy_saturating_factory(0).run()
        assert result.metrics["flow_control.credit_stalls{rank=1}"] > 0, (
            "the workload must overrun the receiver"
        )
        assert "scratch" in result.races.by_symbol()
        assert "inbox" not in result.races.by_symbol()

    @pytest.mark.parametrize("fuzz_seed", [1, 2, 3, 4])
    def test_fuzzed_runs_flag_it_and_replay_from_their_own_log(self, fuzz_seed):
        fuzzed = run_schedule(
            racy_saturating_factory,
            0,
            ScheduleFuzzer(seed=fuzz_seed, reorder_probability=0.5, quantum=2.0),
        )
        assert fuzzed.flagged[MATRIX_CLOCK] == {"scratch"}
        replayed = run_schedule(
            racy_saturating_factory, 0, ReplayStrategy(fuzzed.decisions)
        )
        assert replayed.decisions == fuzzed.decisions
        assert replayed.fingerprint == fuzzed.fingerprint
        assert replayed.flagged == fuzzed.flagged
        assert replayed.final_values == fuzzed.final_values
        assert replayed.read_values == fuzzed.read_values

    def test_fuzzed_grants_are_logged_as_credit_decisions(self):
        outcome = run_schedule(
            racy_saturating_factory,
            0,
            ScheduleFuzzer(seed=7, reorder_probability=1.0, quantum=1.0),
        )
        grants = [d for d in outcome.decisions.entries if d.kind == "credit"]
        assert grants and all(d.key.startswith("credit:1->0#") for d in grants)
        assert any(d.choice > 0.0 for d in grants), "p=1.0 stretches a grant"
