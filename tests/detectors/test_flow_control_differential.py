"""Differential proof that credit-based flow control is pure admission
control (satellite of the adaptive control plane).

``RuntimeConfig.flow_control`` decides HOW a sender waits for a receive
buffer — blind RNR retransmission versus a receiver-granted credit — but
never WHICH send matches which receive: per-channel FIFO matching is
untouched.  Three layers of evidence:

* **corpus** — every labelled racy pattern (plus the RMW corpus) runs in
  both modes.  These patterns never saturate a receive queue, so the modes
  must agree on *everything*: verdict, metrics (minus the credit gate's own
  lazy instruments), final values, even elapsed sim-time — credit mode is
  free when no stall happens.

* **saturation** — a workload that genuinely overruns the receiver (RNR
  retries in one mode, credit stalls in the other) with a seeded
  write-write race.  Timing now legitimately differs, so the comparison
  narrows to what admission control must preserve: race verdicts
  field-for-field (clocks included, times excluded) and final memory.

* **fuzzed schedules** — the saturating workload under a latency/grant/
  backoff fuzzer, one run per mode per seed.  The conflict-order
  fingerprint, flagged symbols, final values and read multisets must match
  pairwise: whatever schedule the fuzzer forces, both admission protocols
  serialize the same accesses in the same order.
"""

import json

import pytest

from repro.explore.fuzzer import ScheduleFuzzer
from repro.explore.runner import run_schedule
from repro.memory.directory import PlacementPolicy
from repro.net.flow_control import FLOW_CONTROL_MODES
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.workloads.racy_patterns import pattern_corpus, rmw_pattern_corpus

from tests.detectors.differential import race_digest

RECEIVER_THINK = 3.0
COARSE_BACKOFF = 8.0
MESSAGES = 12


# -- digests -------------------------------------------------------------------------


def verdict_digest(result):
    """What admission control must preserve under ANY schedule: the race
    verdict (every field except absolute times) and final memory."""
    races = []
    for record in result.races.records():
        fields = race_digest(record)
        del fields["time"]
        races.append(fields)
    payload = {
        "races": races,
        "race_count": result.race_count,
        "final_shared_values": {
            symbol: [repr(v) for v in values]
            for symbol, values in sorted(result.final_shared_values.items())
        },
    }
    return json.dumps(payload, sort_keys=True)


def strict_digest(result):
    """The byte-for-byte view for runs where no stall/retry ever happens:
    everything, timing included.  Only the credit gate's own lazy
    instruments (``flow_control.*``) are excused — they exist exactly when
    a gate was created, which is the mode knob itself, not behaviour."""
    payload = {
        "verdict": verdict_digest(result),
        "times": [r.time for r in result.races.records()],
        "elapsed_sim_time": result.elapsed_sim_time,
        "metrics": {
            key: value
            for key, value in result.metrics.items()
            if not key.startswith("flow_control.")
        },
        "detection_profile": {
            bucket: dict(counts)
            for bucket, counts in sorted(result.detection_profile.items())
        },
    }
    return json.dumps(payload, sort_keys=True)


# -- workloads -----------------------------------------------------------------------


def run_in_flow_mode(build, seed, mode):
    runtime = build(seed)
    runtime.set_knob("flow_control", mode)
    result = runtime.run()
    retries = sum(nic.rnr_retries for nic in runtime.nics)
    return result, retries


def racy_saturating_factory(seed):
    """A sender overrunning a slow receiver, with one seeded race: both
    ranks put to ``scratch[0]`` with no synchronization between them — a
    write-write race whatever the send stream's admission protocol does.
    (The send/recv stream itself synchronizes, so the race must come from
    a channel the matching machinery does not order.)"""
    runtime = DSMRuntime(
        RuntimeConfig(
            world_size=2,
            seed=seed,
            latency="constant",
            verbs_rnr_backoff=COARSE_BACKOFF,
        )
    )
    runtime.declare_array(
        "inbox", 4, policy=PlacementPolicy.OWNER, owner=1, initial=0
    )
    runtime.declare_array(
        "scratch", 1, policy=PlacementPolicy.OWNER, owner=1, initial=0
    )

    def sender(api):
        yield from api.put("scratch", 7, index=0)
        for value in range(MESSAGES):
            yield from api.isend_throttled(1, value, symbol="inbox")
        yield from api.wait_all()

    def receiver(api):
        yield from api.put("scratch", 99, index=0)
        received = 0
        while received < MESSAGES:
            api.irecv(0, "inbox", index=received % 4)
            done = yield from api.wait_recv(1)
            received += len(done)
            yield from api.compute(RECEIVER_THINK)

    runtime.set_program(0, sender)
    runtime.set_program(1, receiver)
    return runtime


# -- the differential ----------------------------------------------------------------


class TestCorpusDifferential:
    """Unsaturated runs: credit mode must be entirely free."""

    @pytest.mark.parametrize("pattern", pattern_corpus(), ids=lambda p: p.name)
    def test_pattern_corpus_byte_identical(self, pattern):
        self._assert_identical(pattern.build)

    @pytest.mark.parametrize(
        "pattern", rmw_pattern_corpus(), ids=lambda p: p.name
    )
    def test_rmw_corpus_byte_identical(self, pattern):
        self._assert_identical(pattern.build)

    @staticmethod
    def _assert_identical(build):
        rnr, retries = run_in_flow_mode(build, 0, "rnr")
        credit, _ = run_in_flow_mode(build, 0, "credit")
        assert verdict_digest(credit) == verdict_digest(rnr)
        if retries == 0:
            # Nothing ever stalled, so the protocols were never exercised
            # differently: the runs must be byte-identical, timing included.
            assert strict_digest(credit) == strict_digest(rnr)


class TestSaturationDifferential:
    """Saturated runs: timing differs, the verdict must not."""

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for mode in FLOW_CONTROL_MODES:
            result, retries = run_in_flow_mode(racy_saturating_factory, 0, mode)
            out[mode] = {"result": result, "retries": retries}
        return out

    def test_both_protocols_actually_exercised(self, runs):
        """Anti-vacuity: the workload must overrun the receiver."""
        assert runs["rnr"]["retries"] > 0
        assert runs["credit"]["retries"] == 0
        assert (
            runs["credit"]["result"].metrics.get(
                "flow_control.credit_stalls{rank=1}", 0
            )
            > 0
        )

    def test_seeded_race_is_detected(self, runs):
        assert runs["rnr"]["result"].race_count > 0

    def test_verdicts_identical_despite_different_timing(self, runs):
        rnr, credit = runs["rnr"]["result"], runs["credit"]["result"]
        assert verdict_digest(credit) == verdict_digest(rnr)
        assert credit.elapsed_sim_time != rnr.elapsed_sim_time, (
            "the comparison is only meaningful because the schedules "
            "really do diverge in time"
        )


class TestFuzzedScheduleDifferential:
    """Whatever schedule the fuzzer forces, both protocols serialize the
    same accesses in the same order."""

    @pytest.mark.parametrize("fuzz_seed", [1, 2, 3, 4])
    def test_fuzzed_outcomes_pair_up(self, fuzz_seed):
        outcomes = {}
        for mode in FLOW_CONTROL_MODES:
            outcomes[mode] = run_schedule(
                racy_saturating_factory,
                0,
                ScheduleFuzzer(
                    seed=fuzz_seed, reorder_probability=0.5, quantum=2.0
                ),
                configure=lambda runtime: runtime.set_knob("flow_control", mode),
            )
        rnr, credit = outcomes["rnr"], outcomes["credit"]
        assert credit.fingerprint == rnr.fingerprint, (
            "conflict order must survive the admission-protocol swap"
        )
        assert credit.flagged == rnr.flagged
        assert credit.final_values == rnr.final_values
        assert credit.read_values == rnr.read_values

    def test_fuzzed_modes_log_their_own_decision_kinds(self):
        """The two modes explore DIFFERENT choice points (rnr vs credit
        decisions) yet still converge on the same outcome — the strongest
        form of the admission-control claim."""
        kinds = {}
        for mode in FLOW_CONTROL_MODES:
            outcome = run_schedule(
                racy_saturating_factory,
                0,
                ScheduleFuzzer(seed=7, reorder_probability=1.0, quantum=1.0),
                configure=lambda runtime: runtime.set_knob("flow_control", mode),
            )
            kinds[mode] = {
                d.kind for d in outcome.decisions.entries if d is not None
            }
        assert "rnr" in kinds["rnr"] and "credit" not in kinds["rnr"]
        assert "credit" in kinds["credit"] and "rnr" not in kinds["credit"]
