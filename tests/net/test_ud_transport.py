"""The UD service level: drops, duplicates — and sound verdicts.

The transport knob's contracts:

* **Validation** — ``transport`` is ``"rc"`` (the default) or ``"ud"``;
  the NICs read the runtime's own config.
* **Quiet-fabric equivalence** — UD under a fabric that drops nothing is
  byte-for-byte the RC execution: same verdicts, same final memory, same
  elapsed sim-time, on the whole labelled pattern corpus.
* **FIFO per pair** — a datagram crosses the pair's one channel: in every
  fuzzed schedule, each (source, destination) pair delivers first arrivals
  in send order, RC messages and datagrams alike.
* **Drop/retransmit** — a dropped datagram arms the retransmission timer
  and is re-sent with a fresh sequence number; the lost sequence is a
  permanent gap that exactly one receiver-driven resync repairs.
* **Resync edge cases** — a dropped resync *request* is re-requested after
  the deadline; a dropped resync *reply* likewise; duplicated frames are
  absorbed idempotently — and through all of it the verdict matches the RC
  run of the same program.
* **Exhaustion** — burning the whole retransmission budget surfaces as a
  failed ``UD_DELIVERY_EXCEEDED`` work completion, and the failed
  operation gives back what it held: its cell lock (no quiescence leak)
  and, for a SEND under credit flow control, the receive credit it had
  claimed (no sender parked for good behind a buffer nobody will consume).
"""

import pytest

from repro.explore.controller import PassthroughStrategy, ScheduleController
from repro.explore.fuzzer import ScheduleFuzzer
from repro.net.channel import Channel
from repro.net.message import MessageKind
from repro.net.ud_transport import (
    TRANSPORT_MODES,
    UdEndpoint,
    validate_transport,
)
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.verbs.work import CompletionStatus
from repro.workloads.racy_patterns import pattern_corpus, rmw_pattern_corpus

from tests.detectors.differential import race_digest


# -- forcing strategies --------------------------------------------------------------


class ForcedFates(PassthroughStrategy):
    """Script datagram fates per message kind: ``{kind: {index: fate}}``.

    Indices count datagrams of that kind in fate-decision order; unlisted
    datagrams deliver.
    """

    def __init__(self, fates=None):
        self.fates = fates or {}
        self._counts = {}

    def choose(self, kind, key, bound=None, message=None):
        if kind != "drop":
            return 0
        name = message.kind.value
        index = self._counts.get(name, 0)
        self._counts[name] = index + 1
        return self.fates.get(name, {}).get(index, 0)

    def describe(self):
        return "forced-fates"


def controlled(runtime, strategy):
    runtime.sim.install_controller(ScheduleController(strategy))
    return runtime


# -- workloads -----------------------------------------------------------------------


def sparse_wire_factory(seed=0, transport="ud"):
    """Puts on a sparse clock wire, plus one guaranteed race.

    Rank 0's put storm on a delta-encoded clock wire means every datagram
    carries a sparse frame, so a dropped datagram genuinely
    breaks the receiver's wire view and forces the resync subprotocol (not
    just byte shuffling).  The race: rank 0 reads ``shared[0]`` before the
    storm, rank 2 overwrites it afterwards — and since rank 2 receives no
    message at all, no causal chain can ever order the write after the
    read, whatever the fabric does to rank 0's datagrams."""
    runtime = DSMRuntime(
        RuntimeConfig(
            world_size=3,
            seed=seed,
            latency="constant",
            clock_transport="piggyback",
            clock_wire="delta",
            transport=transport,
        )
    )
    runtime.declare_array("cells", 4, owner=1, initial=0)
    runtime.declare_array("shared", 1, owner=1, initial=0)

    def prober(api):
        seen = yield from api.get("shared", index=0)
        api.private.write("observed", seen)
        for step in range(6):
            yield from api.put("cells", step, index=step % 4)

    def owner(api):
        yield from api.compute(1.0)

    def late_writer(api):
        yield from api.compute(300.0)
        yield from api.put("shared", 7, index=0)

    runtime.set_program(0, prober)
    runtime.set_program(1, owner)
    runtime.set_program(2, late_writer)
    return runtime


def verdict(result):
    """The transport-invariant view: races (times excluded) + final memory."""
    races = []
    for record in result.races.records():
        fields = race_digest(record)
        del fields["time"]
        races.append(fields)
    return {
        "races": races,
        "final": {s: [repr(v) for v in vals]
                  for s, vals in sorted(result.final_shared_values.items())},
    }


# -- validation ----------------------------------------------------------------------


class TestValidation:
    def test_accepts_both_service_levels(self):
        assert validate_transport("rc") == "rc"
        assert validate_transport("ud") == "ud"
        assert TRANSPORT_MODES == ("rc", "ud")

    @pytest.mark.parametrize("bad", ["uc", "RC", "", None, 3])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="transport"):
            validate_transport(bad)

    def test_runtime_knob_defaults_to_rc(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2))
        assert runtime.config.transport == "rc"

    def test_runtime_knob_propagates_to_the_nic(self):
        runtime = DSMRuntime(RuntimeConfig(world_size=2, transport="ud"))
        assert runtime.config.transport == "ud"
        for nic in runtime.nics:
            assert nic.config.transport == "ud"

    def test_run_result_records_the_transport(self):
        result = sparse_wire_factory(transport="ud").run()
        assert result.knobs["transport"] == "ud"
        assert sparse_wire_factory(transport="rc").run().knobs["transport"] == "rc"


# -- quiet-fabric equivalence --------------------------------------------------------


class TestQuietFabricEquivalence:
    """UD with nothing dropped or duplicated IS the RC execution."""

    @pytest.mark.parametrize(
        "pattern", pattern_corpus() + rmw_pattern_corpus(), ids=lambda p: p.name
    )
    def test_corpus_verdicts_and_timing_match_rc(self, pattern):
        rc = pattern.build(0)
        ud = pattern.build(0)
        ud.set_knob("transport", "ud")
        rc_result, ud_result = rc.run(), ud.run()
        assert verdict(ud_result) == verdict(rc_result)
        assert ud_result.elapsed_sim_time == rc_result.elapsed_sim_time

    def test_sequences_are_assigned_but_nothing_is_dropped(self):
        runtime = sparse_wire_factory()
        result = runtime.run()
        stats = runtime.clock_transport_stats()
        assert stats.ud_datagrams > 0
        assert stats.ud_dropped == 0
        assert stats.ud_retransmits == 0
        assert stats.ud_resyncs == 0
        assert result.race_count >= 1  # the seeded shared[0] race

    def test_rc_mode_sends_no_datagrams(self):
        runtime = sparse_wire_factory(transport="rc")
        runtime.run()
        assert runtime.clock_transport_stats().ud_datagrams == 0


# -- FIFO per pair -------------------------------------------------------------------


class TestFifoPerPair:
    """A datagram crosses its pair's one channel, behind the pair's clamp."""

    @pytest.mark.parametrize(
        "pattern", pattern_corpus() + rmw_pattern_corpus(), ids=lambda p: p.name
    )
    def test_first_arrivals_keep_send_order_in_fuzzed_schedules(
        self, pattern, monkeypatch
    ):
        """Drops, duplicates, stretched flights and tie shuffles never let a
        later send on a pair arrive first.  Message ids count sends, so each
        pair's arrivals must come in increasing id order; a duplicate is a
        second arrival and a dropped datagram none, so neither is recorded."""
        arrivals = {}
        transmit = Channel.transmit

        def recording(channel, message, *args, **kwargs):
            event, stamped = transmit(channel, message, *args, **kwargs)
            pair = arrivals.setdefault((channel.source, channel.destination), [])
            event.callbacks.append(lambda _event: pair.append(stamped.message_id))
            return event, stamped

        monkeypatch.setattr(Channel, "transmit", recording)
        for fuzz_seed in range(3):
            arrivals.clear()
            runtime = pattern.build(0)
            runtime.set_knob("transport", "ud")
            controlled(runtime, ScheduleFuzzer(
                seed=fuzz_seed, reorder_probability=0.8,
                tie_shuffle_probability=0.5,
                drop_probability=0.2, duplicate_probability=0.1,
            ))
            runtime.run()
            assert runtime.clock_transport_stats().ud_datagrams > 0
            for pair, ids in arrivals.items():
                assert ids == sorted(ids), (pattern.name, fuzz_seed, pair)


# -- drop / retransmit / resync ------------------------------------------------------


class TestDropAndResync:
    def test_dropped_datagram_is_retransmitted_with_a_fresh_sequence(self):
        runtime = controlled(
            sparse_wire_factory(), ForcedFates(fates={"put_data": {0: 1}})
        )
        result = runtime.run()
        stats = runtime.clock_transport_stats()
        assert stats.ud_dropped == 1
        assert stats.ud_retransmits == 1
        # The retransmission carries a fresh sparse frame patched against
        # the dropped (never-seen) one, so the receiver sees a gap and runs
        # exactly one recovery round trip.
        assert stats.ud_resyncs == 1
        assert stats.ud_resync_requests == 1
        assert verdict(result) == verdict(sparse_wire_factory(transport="rc").run())

    def test_drop_charges_the_fabric_and_arms_the_timer(self):
        runtime = controlled(
            sparse_wire_factory(), ForcedFates(fates={"put_data": {0: 1}})
        )
        baseline = sparse_wire_factory()
        runtime.run(), baseline.run()
        assert runtime.clock_transport_stats().ud_dropped == 1
        # The lost datagram's bytes left the sender: the fabric accounts the
        # dropped PUT_DATA beside its retransmission, plus one resync round
        # trip (request and full-frame reply).
        fabric, quiet = runtime.fabric, baseline.fabric
        assert fabric.message_count(MessageKind.PUT_DATA) == (
            quiet.message_count(MessageKind.PUT_DATA) + 1
        )
        assert fabric.message_count(MessageKind.UD_RESYNC_REQUEST) == 1
        assert fabric.message_count(MessageKind.UD_RESYNC_FULL) == 1
        assert fabric.message_count() == quiet.message_count() + 3
        assert fabric.stats.data_bytes > quiet.stats.data_bytes

    def test_resync_stamps_the_historical_clock_not_the_current_one(self):
        """The verdict on the racy cell must survive the recovery: a resync
        answered with the sender's *current* clock would manufacture a
        happens-before edge and silently mask the race."""
        runtime = controlled(
            sparse_wire_factory(),
            ForcedFates(fates={"put_data": {0: 1, 3: 1, 5: 1}}),
        )
        result = runtime.run()
        assert runtime.clock_transport_stats().ud_resyncs >= 1
        assert verdict(result) == verdict(sparse_wire_factory(transport="rc").run())

    def test_scripted_drops_reproduce_the_rc_verdict_exactly(self):
        """Drops of data datagrams, resync requests and resync replies
        mid-pattern reproduce the RC verdict record for record, clocks
        included: the historical-frame rule, over several scripts."""
        rc = verdict(sparse_wire_factory(transport="rc").run())
        for fates in (
            {"put_data": {0: 1}},
            {"put_data": {1: 1, 2: 1}},
            {"put_data": {0: 2, 3: 1}, "ud_resync_request": {0: 1}},
            {"put_data": {2: 1}, "ud_resync_full": {0: 1}},
        ):
            runtime = controlled(sparse_wire_factory(), ForcedFates(fates=fates))
            assert verdict(runtime.run()) == rc, fates
            assert runtime.clock_transport_stats().ud_dropped >= 1

    def test_decision_log_records_drops_and_replays(self):
        from repro.explore.runner import run_schedule
        from repro.explore.controller import ReplayStrategy

        forced = run_schedule(
            lambda seed: sparse_wire_factory(seed),
            0,
            ForcedFates(fates={"put_data": {0: 1}}),
        )
        drops = [d for d in forced.decisions.entries
                 if d is not None and d.kind == "drop"]
        assert any(d.choice == 1 for d in drops)
        assert all(d.key.startswith("drop:") for d in drops)
        replayed = run_schedule(
            lambda seed: sparse_wire_factory(seed), 0,
            ReplayStrategy(forced.decisions),
        )
        assert replayed.fingerprint == forced.fingerprint
        assert replayed.decisions == forced.decisions


class TestResyncEdgeCases:
    def test_dropped_resync_request_is_rerequested_after_the_deadline(self):
        runtime = controlled(
            sparse_wire_factory(),
            ForcedFates(fates={
                "put_data": {0: 1},          # force the gap
                "ud_resync_request": {0: 1},  # then lose the first request
            }),
        )
        result = runtime.run()
        stats = runtime.clock_transport_stats()
        assert stats.ud_resync_requests == 2
        assert stats.ud_resyncs == 1
        assert verdict(result) == verdict(sparse_wire_factory(transport="rc").run())

    def test_dropped_resync_reply_is_recovered_by_rerequesting(self):
        runtime = controlled(
            sparse_wire_factory(),
            ForcedFates(fates={
                "put_data": {0: 1},
                "ud_resync_full": {0: 1},     # lose the first full frame
            }),
        )
        result = runtime.run()
        stats = runtime.clock_transport_stats()
        # The receiver cannot tell a lost request from a lost reply: it
        # simply re-requests, and the second round trip lands.
        assert stats.ud_resync_requests == 2
        assert stats.ud_resyncs == 1
        assert verdict(result) == verdict(sparse_wire_factory(transport="rc").run())

    def test_duplicated_full_frames_are_absorbed_idempotently(self):
        runtime = controlled(
            sparse_wire_factory(),
            ForcedFates(fates={"put_data": {0: 2, 2: 2}}),
        )
        result = runtime.run()
        stats = runtime.clock_transport_stats()
        assert stats.ud_duplicates == 2
        assert stats.ud_resyncs == 0, "a duplicate must not look like a gap"
        assert verdict(result) == verdict(sparse_wire_factory(transport="rc").run())

    def test_view_never_rewinds_below_a_resynced_sequence(self):
        endpoint = UdEndpoint(0)
        assert endpoint.absorb(1, 1, "full") == "exact"
        assert endpoint.absorb(1, 3, "sparse") == "gap"
        endpoint.mark_resynced(1, 3)
        assert endpoint.view_seq(1) == 3
        # A sparse frame from before the boundary is a gap like any other,
        # and recovering it must not rewind the view later frames patch.
        assert endpoint.absorb(1, 2, "sparse") == "gap"
        endpoint.mark_resynced(1, 2)
        assert endpoint.view_seq(1) == 3
        assert endpoint.absorb(1, 4, "sparse") == "exact"

    def test_duplicate_absorb_is_an_idempotent_noop(self):
        endpoint = UdEndpoint(0)
        assert endpoint.absorb(1, 1, "full") == "exact"
        assert endpoint.absorb(1, 1, "full") == "duplicate"
        assert endpoint.absorb(1, 1, "sparse") == "duplicate"
        assert endpoint.view_seq(1) == 1


# -- retransmission exhaustion -------------------------------------------------------


class TestExhaustion:
    def _exhausting_runtime(self):
        """A verbs put whose every datagram the fabric eats."""
        runtime = DSMRuntime(
            RuntimeConfig(
                world_size=2,
                seed=0,
                latency="constant",
                clock_transport="piggyback",
                clock_wire="delta",
                transport="ud",
                ud_max_retransmits=2,
            )
        )
        runtime.declare_array("x", 2, owner=1, initial=0)

        def producer(api):
            doomed = api.iput("x", 111, index=0)
            (completion,) = yield from api.wait(doomed, raise_on_error=False)
            api.private.write("status", completion.status.value)
            # The failed put's cell lock must have been released: a fresh
            # put to the SAME cell (fabric now quiet) completes.
            healthy = api.iput("x", 222, index=0)
            (retry,) = yield from api.wait(healthy, raise_on_error=False)
            api.private.write("retry_status", retry.status.value)

        def idle(api):
            yield from api.compute(1.0)

        runtime.set_program(0, producer)
        runtime.set_program(1, idle)
        return runtime

    def test_exhaustion_surfaces_as_a_failed_completion(self):
        runtime = controlled(
            self._exhausting_runtime(),
            # Budget 2: initial send + 2 retransmits all dropped => fail.
            ForcedFates(fates={"put_data": {0: 1, 1: 1, 2: 1}}),
        )
        result = runtime.run()
        private = runtime.private_memories[0].snapshot()
        assert private["status"] == CompletionStatus.UD_DELIVERY_EXCEEDED.value
        assert private["retry_status"] == CompletionStatus.SUCCESS.value
        assert result.final_shared_values["x"] == [222, 0]
        stats = runtime.clock_transport_stats()
        assert stats.ud_dropped == 3
        assert stats.ud_retransmits == 2

    def test_budget_spent_one_short_of_exhaustion_succeeds(self):
        runtime = controlled(
            self._exhausting_runtime(),
            ForcedFates(fates={"put_data": {0: 1, 1: 1}}),
        )
        runtime.run()
        private = runtime.private_memories[0].snapshot()
        assert private["status"] == CompletionStatus.SUCCESS.value

    # -- a doomed SEND gives its credit back ------------------------------------------

    def _doomed_send_runtime(self, senders=1):
        """SENDs to one posted buffer; the fabric eats the first one whole."""
        receiver = senders
        runtime = DSMRuntime(
            RuntimeConfig(
                world_size=senders + 1,
                seed=0,
                latency="constant",
                transport="ud",
                ud_max_retransmits=2,
            )
        )
        runtime.declare_array("inbox", 1, owner=receiver, initial=0)
        if senders > 1:
            runtime.declare_srq(receiver)

        def sender(api):
            yield from api.compute(float(api.rank))  # rank 0's SEND goes first
            payloads = (111, 222) if senders == 1 else ((111,), (222,))[api.rank]
            for payload in payloads:
                request = api.isend(receiver, [payload])
                (completion,) = yield from api.wait(request, raise_on_error=False)
                api.private.write(f"status-{payload}", completion.status.value)

        def server(api):
            if senders > 1:
                api.post_srq_recv("inbox")
            else:
                api.irecv(0, "inbox")
            (message,) = yield from api.wait_recv(1)
            api.private.write("received", message.value)

        for rank in range(senders):
            runtime.set_program(rank, sender)
        runtime.set_program(receiver, server)
        return controlled(
            runtime, ForcedFates(fates={"send_request": {0: 1, 1: 1, 2: 1}})
        )

    def _assert_second_send_landed(self, runtime, second_sender):
        receiver = runtime.config.world_size - 1
        statuses = {
            **runtime.private_memories[0].snapshot(),
            **runtime.private_memories[second_sender].snapshot(),
        }
        assert statuses["status-111"] == CompletionStatus.UD_DELIVERY_EXCEEDED.value
        assert statuses["status-222"] == CompletionStatus.SUCCESS.value
        assert runtime.private_memories[receiver].snapshot()["received"] == (222,)
        assert runtime.sim.all_finished()
        context = runtime.verbs_contexts[receiver]
        gate = context.credit_gate(0)
        assert gate.available == context.receive_queue_from(0).depth == 0, "a claim leaked"
        assert gate.waiting == 0

    def test_a_send_that_exhausts_its_budget_returns_its_credit(self):
        """The doomed SEND claimed the only buffer; the next SEND must get it."""
        runtime = self._doomed_send_runtime()
        runtime.run()
        self._assert_second_send_landed(runtime, second_sender=0)

    def test_a_returned_credit_wakes_the_sender_parked_behind_it(self):
        """An SRQ gate is shared: rank 1 parks while rank 0's doomed SEND
        holds the one credit, and only the return of that credit can wake it
        (the server posts nothing more)."""
        runtime = self._doomed_send_runtime(senders=2)
        runtime.run()
        self._assert_second_send_landed(runtime, second_sender=1)
        gate = runtime.verbs_contexts[2].credit_gate(0)
        assert gate.stalls == 1 and gate.grants == 1
