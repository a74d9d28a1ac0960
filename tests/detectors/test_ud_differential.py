"""Differential proof that the UD service level never changes a verdict.

``RuntimeConfig.transport`` decides HOW clock-carrying data messages cross
the fabric — one reliable FIFO transmission versus sequence-numbered
datagrams that may be dropped or duplicated and repaired by
receiver-driven resync — but never WHAT the detector decides: the detector
always stamps the in-process carried clock, and the UD machinery only
settles whether the receiver's wire view could have reconstructed it.
Three layers of evidence:

* **corpus** — every labelled pattern (racy and quiet, plus the RMW
  corpus) runs under both transports on a sparse clock wire.  A quiet UD
  fabric delivers every datagram through the pair's one FIFO channel, so
  the digests must match byte-for-byte, and both transports must flag
  something on every racy pattern.

* **fuzzed drop schedules** — the labelled corpus explored under a fuzzer
  with nonzero drop/duplicate rates and stretched flights, UD configured.
  Racy patterns: every schedule flags a race and exploration finds the
  labelled symbols (stretched flights may legitimately expose
  *additional* schedule-dependent races).  Quiet patterns: the detector's
  guarantee — a schedule whose observable behaviour (final memory and
  per-cell read multisets, the *operational* race definition) departs
  from the baseline schedule's is one the matrix clock flags.

* **forced recovery** — schedules scripted to drop data datagrams, resync
  requests and resync replies mid-pattern reproduce the RC verdict
  record-for-record (clocks included), proving the historical-frame rule:
  a resync answered with the sender's *current* clock would manufacture
  happens-before and fail this comparison.
"""

import pytest

from repro.explore.runner import MATRIX_CLOCK, Explorer
from repro.workloads.racy_patterns import pattern_corpus, rmw_pattern_corpus

from tests.detectors.differential import race_digest
from tests.net.test_ud_transport import (
    ForcedFates,
    controlled,
    sparse_wire_factory,
)

CORPUS = pattern_corpus() + rmw_pattern_corpus()


def sparse_wire(runtime):
    """Pin both transports to the same sparse clock wire, so UD datagrams
    carry delta frames (the format drops can actually corrupt)."""
    runtime.set_knob("clock_transport", "piggyback")
    runtime.set_knob("clock_wire", "delta")


def verdict_digest(result):
    races = []
    for record in result.races.records():
        fields = race_digest(record)
        del fields["time"]
        races.append(fields)
    return {
        "races": races,
        "final": {
            symbol: [repr(v) for v in values]
            for symbol, values in sorted(result.final_shared_values.items())
        },
    }


class TestCorpusDifferential:
    @pytest.mark.parametrize("pattern", CORPUS, ids=lambda p: p.name)
    def test_transports_agree_on_verdict_and_label(self, pattern):
        rc = pattern.build(0)
        sparse_wire(rc)
        ud = pattern.build(0)
        sparse_wire(ud)
        ud.set_knob("transport", "ud")
        rc_result, ud_result = rc.run(), ud.run()
        assert verdict_digest(ud_result) == verdict_digest(rc_result)
        if pattern.racy:
            # Which of a pattern's labelled races manifests is timing-
            # and clock-transport-dependent (the labels were derived
            # under the default roundtrip transport); what both service
            # levels must guarantee is that something real is flagged.
            for result in (rc_result, ud_result):
                flagged = {s for s in result.races.by_symbol() if s is not None}
                assert flagged, pattern.name


class TestFuzzedScheduleDifferential:
    def _explore(self, pattern, budget=5, seed=0):
        def configure(runtime):
            sparse_wire(runtime)
            runtime.set_knob("transport", "ud")

        explorer = Explorer(
            pattern.build, seed=seed, offline_detectors=[], configure=configure
        )
        return explorer.explore_fuzzed(
            budget,
            reorder_probability=0.5,
            drop_probability=0.2,
            duplicate_probability=0.1,
        )

    @pytest.mark.parametrize(
        "pattern", [p for p in CORPUS if p.racy], ids=lambda p: p.name
    )
    def test_racy_patterns_are_found_across_drop_schedules(self, pattern):
        """Every explored schedule of a racy pattern flags something, and
        the labelled symbols are among what exploration finds.  (A single
        schedule may flag *more* than the nominal label: stretched flights
        legitimately expose schedule-dependent races.)"""
        result = self._explore(pattern)
        found = set()
        for outcome in result.outcomes:
            assert outcome.flagged[MATRIX_CLOCK], (
                f"{pattern.name}: schedule {outcome.schedule_id} flagged nothing"
            )
            found |= outcome.flagged[MATRIX_CLOCK]
        assert found & set(pattern.racy_symbols), (
            f"{pattern.name}: exploration never flagged a labelled symbol"
        )

    @pytest.mark.parametrize(
        "pattern", [p for p in CORPUS if not p.racy], ids=lambda p: p.name
    )
    def test_quiet_patterns_diverge_only_where_flagged(self, pattern):
        """The operational race definition, schedule-space form: a schedule
        whose observable behaviour departs from the baseline's — drops,
        duplicates, stretched flights and resyncs included — holds a race,
        and the matrix clock must flag one.  (``fig5b-causal-chain`` does
        diverge under fuzzing; every such schedule is flagged.)"""
        for seed in range(6):
            result = self._explore(pattern, budget=12, seed=seed)
            baseline = result.outcomes[0]
            for outcome in result.outcomes[1:]:
                same = (
                    outcome.final_values == baseline.final_values
                    and outcome.read_values == baseline.read_values
                )
                assert same or outcome.flagged[MATRIX_CLOCK], (
                    f"{pattern.name}: seed {seed} schedule "
                    f"{outcome.schedule_id} diverged unflagged"
                )


class TestForcedRecoveryDifferential:
    def test_scripted_drops_reproduce_the_rc_verdict_exactly(self):
        rc = sparse_wire_factory(transport="rc").run()
        for fates in (
            {"put_data": {0: 1}},
            {"put_data": {1: 1, 2: 1}},
            {"put_data": {0: 2, 3: 1}, "ud_resync_request": {0: 1}},
            {"put_data": {2: 1}, "ud_resync_full": {0: 1}},
        ):
            runtime = controlled(sparse_wire_factory(), ForcedFates(fates=fates))
            result = runtime.run()
            assert verdict_digest(result) == verdict_digest(rc), fates
            assert runtime.clock_transport_stats().ud_dropped >= 1
