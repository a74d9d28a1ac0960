"""A knob changes how clocks travel, never what the detector says of an execution.

Every consistency knob (:data:`repro.runtime.knobs.KNOBS`) may change traffic,
bytes and timing.  One property checks the promise over the knob product,
once per subject and knob.  The subject is a named program or a generated
barrier program of a given world size; the knob sits at one of its
non-reference values.  The property draws the program (for a barrier
subject), the other knobs' values from ``Knob.matrix_values`` (48 vectors in
all) and a schedule: uncontrolled, or ``ScheduleFuzzer(seed)``, lossy (drop
0.25, duplicate 0.1) iff ``transport=ud``.  Every run, twins included,
then keeps these promises:

* **P0, every run finishes**: no process is left blocked
  (``result.blocked`` is empty).  A run that parks a process returns
  normally, and the clauses below would judge its partial trace.
* **P1, online = post-mortem** (paper §V-B).  ``result.races.records()``
  equals, record for record, what :class:`TraceReplayer` derives from the
  run's own trace.
* **P2, labels.**  A racy corpus pattern flags every labelled symbol.  Two
  known gaps flag at least one: ``producer-consumer-unsync`` (a racing put
  teaches its origin the other rank's history, ROADMAP item 13) and
  ``stencil-no-barriers`` (the owner tick orders a landed put, item 1c).  So
  does every racy pattern on a lossy fabric: a retransmitted datagram lands
  late enough to change which accesses meet (``rmw-work-stealing`` leaves
  ``head1`` or ``head2`` uncontended in 36 of 1 440 lossy runs, fuzz seeds
  0-59, and P3 holds in each).
* **P3, operational** (§III-C), for one-sided programs: the corpora, the CQ
  burst and the barrier programs.  Final values and per-cell read multisets
  equal those of the program's uncontrolled run at the reference knobs, or
  the run flags a race, or the divergence is one of two known misses of
  the paper's every-schedule claim, each pinned at the reference knobs:

  - *model-ordered* (ROADMAP item 1c): the owner tick orders a landed put
    before what its owner does next, and the trace replayed without that
    tick flags a race.  Rank 0's put lands on rank 1 after rank 2's put on
    ``c0`` landed on rank 0, so rank 1's unsynchronised get of ``c0`` reads
    2 instead of 0, and only the tick-free replay flags it.
  - *a get learns the cell's readers* (item 13): a get merges the datum
    clock, reads included, so its origin's later put looks ordered after
    reads it never saw.  Rank 1 reads ``c1`` twice before rank 0's get of
    ``c1`` lands; rank 0's put goes unflagged, and rank 1 reads 1, 1
    instead of 1, 0 (72 of fuzz seeds 0-199).  P3 accepts a divergence
    confined to symbols the reference run flags.

  SEND / receive programs are out: in ``rpc-echo`` the layout of
  ``rpc_slots`` follows SEND arrival order, even at default knobs, and that
  is receive matching, not a data race.
* **P4, exact knobs**, each against a twin run with the knob at its
  reference value (``matrix_values[0]``):

  - ``detector_epochs``: ``run_result_digest`` and the decision log are
    identical on every schedule;
  - ``clock_wire``: race records (clocks and times) and final values are
    identical, except under piggyback on a lossy UD fabric, where a sparse
    frame a drop broke costs a resync;
  - ``transport``: on the uncontrolled schedule, race records (without
    times) and final values are identical.  Under fuzzing every datagram
    spends a fate roll, so the two runs follow different schedules.

  ``clock_transport`` and ``cq_moderation`` change timing, so they change
  which execution happens, and only P0-P3 hold for them: uncontrolled,
  ``stencil-no-barriers`` flags ``halo0/1/3`` under roundtrip and all four
  halos under piggyback.

Each (subject, knob) pair has a stream of its own (:data:`EXAMPLES`).
Tier-1 replays it fixed: 2 draws per named program after the sparse-wire
example, 20 per barrier pair.  The nightly job passes
``--hypothesis-profile=nightly`` (``tests/conftest.py``) for 16 and 100 fresh
draws.  :func:`test_a_pinned_execution_keeps_the_promise` replays the
executions that broke, or nearly broke, a promise, against every knob's P4.
:func:`test_every_other_value_bites` keeps the property from passing
vacuously: each non-reference value moves an observable on one pinned run.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, NamedTuple, Optional

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from repro import DSMRuntime, RunResult, RuntimeConfig
from repro.core.detector import DetectorConfig
from repro.explore.controller import ScheduleController
from repro.explore.fuzzer import ScheduleFuzzer
from repro.memory.consistency import AccessKind
from repro.runtime.knobs import KNOBS
from repro.trace.replay import TraceReplayer
from repro.workloads import RPCEchoWorkload, SendRecvStencilWorkload, VerbsStencilWorkload
from repro.workloads.racy_patterns import pattern_corpus, rmw_pattern_corpus

from tests.detectors.differential import race_digest, run_result_digest


def racy_burst_runtime(seed: int = 0, **knobs) -> DSMRuntime:
    """The CQ burst: three ranks; 0 posts a burst then reads unwaited (a real
    async race), while 2 also writes the cell."""
    runtime = DSMRuntime(RuntimeConfig(world_size=3, seed=seed, **knobs))
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


class Program(NamedTuple):
    build: Callable[[int], DSMRuntime]
    #: The symbols a racy corpus pattern is labelled with (P2).
    labels: FrozenSet[str] = frozenset()
    #: One-sided accesses only, so P3 applies.
    one_sided: bool = False


PROGRAMS: Dict[str, Program] = {
    pattern.name: Program(pattern.build, pattern.racy_symbols, one_sided=True)
    for pattern in pattern_corpus() + rmw_pattern_corpus()
}
PROGRAMS.update(
    {
        "rpc-echo": Program(RPCEchoWorkload().build),
        "rpc-echo-racy-buffer-reuse": Program(
            RPCEchoWorkload(racy_buffer_reuse=True).build
        ),
        "send-recv-stencil": Program(SendRecvStencilWorkload().build),
        "verbs-stencil": Program(VerbsStencilWorkload().build),
        "cq-burst": Program(racy_burst_runtime, one_sided=True),
    }
)

#: Racy patterns whose every run flags at least one labelled symbol, not all.
KNOWN_GAPS = frozenset({"producer-consumer-unsync", "stencil-no-barriers"})

REFERENCE = {knob.name: knob.matrix_values[0] for knob in KNOBS}


def barrier_programs(world_size: int):
    """``(world_size, phases)``: ``phases[p][rank]`` lists that rank's
    ``(is_put, cell)`` operations in barrier phase ``p``; cell ``c`` is owned
    by rank ``c``."""
    operation = st.tuples(st.booleans(), st.integers(min_value=0, max_value=world_size - 1))
    phase = st.lists(
        st.lists(operation, max_size=3).map(tuple), min_size=world_size, max_size=world_size
    ).map(tuple)
    return st.tuples(st.just(world_size), st.lists(phase, min_size=1, max_size=3).map(tuple))


#: The property's subjects: every named program, and generated barrier
#: programs at each world size.
BARRIER_WORLDS = {f"barrier-{world_size}": world_size for world_size in (2, 3, 4)}
SUBJECTS = sorted(PROGRAMS) + sorted(BARRIER_WORLDS)


def barrier_runtime(world_size, phases) -> DSMRuntime:
    runtime = DSMRuntime(RuntimeConfig(world_size=world_size, seed=0))
    for rank in range(world_size):
        runtime.declare_scalar(f"c{rank}", owner=rank, initial=0)

    def program(api):
        for phase in phases:
            yield from api.barrier()
            for is_put, cell in phase[api.rank]:
                if is_put:
                    yield from api.put(f"c{cell}", api.rank)
                else:
                    yield from api.get(f"c{cell}")
        yield from api.barrier()

    runtime.set_spmd_program(program)
    return runtime


def knob_vectors(knob):
    """One value per knob, *knob* at one of its non-reference values."""
    return st.fixed_dictionaries(
        {
            other.name: st.sampled_from(
                other.matrix_values[1:] if other is knob else other.matrix_values
            )
            for other in KNOBS
        }
    )


class Run(NamedTuple):
    runtime: DSMRuntime
    result: RunResult
    controller: Optional[ScheduleController]


def run(program, knobs, fuzz_seed) -> Run:
    """Build *program* (a name or a barrier program), set *knobs*, run it
    uncontrolled (``fuzz_seed is None``) or under the seed's fuzzer, and
    assert P0."""
    if isinstance(program, str):
        runtime = PROGRAMS[program].build(0)
    else:
        runtime = barrier_runtime(*program)
    for name, value in knobs.items():
        runtime.set_knob(name, value)
    controller = None
    if fuzz_seed is not None:
        lossy = knobs["transport"] == "ud"
        controller = ScheduleController(
            ScheduleFuzzer(
                fuzz_seed,
                drop_probability=0.25 if lossy else 0.0,
                duplicate_probability=0.1 if lossy else 0.0,
            )
        )
        runtime.sim.install_controller(controller)
    result = runtime.run()
    # P0: a run that parks a process returns normally, on a partial trace.
    assert result.blocked == (), f"P0: {result.blocked} never finished"
    return Run(runtime, result, controller)


def behaviour(outcome: Run):
    """The operational view: final values and per-cell read multisets."""
    reads: Dict[tuple, list] = {}
    for access in outcome.runtime.recorder.accesses():
        if access.kind.is_read and access.symbol is not None:
            seen = access.observed if access.kind is AccessKind.RMW else access.value
            reads.setdefault((access.symbol, access.address.offset), []).append(repr(seen))
    return (
        final_values(outcome),
        {cell: sorted(values) for cell, values in sorted(reads.items())},
    )


def final_values(outcome: Run):
    shared = outcome.result.final_shared_values
    return {symbol: [repr(value) for value in shared[symbol]] for symbol in sorted(shared)}


def races(outcome: Run, times: bool = True):
    digests = [race_digest(record) for record in outcome.result.races.records()]
    if not times:
        for digest in digests:
            del digest["time"]
    return digests


def replayed(outcome: Run, **config):
    """The races :class:`TraceReplayer` derives from the run's own trace."""
    recorder = outcome.runtime.recorder
    replayer = TraceReplayer(
        outcome.runtime.config.world_size, config=DetectorConfig(**config)
    )
    return replayer.replay(recorder.accesses(), recorder.syncs()).races


def decisions(outcome: Run):
    return None if outcome.controller is None else outcome.controller.log.to_jsonable()


def twin(program, knobs, fuzz_seed, name) -> Run:
    return run(program, {**knobs, name: REFERENCE[name]}, fuzz_seed)


@lru_cache(maxsize=None)
def reference_run(program):
    """P3's yardstick: the behaviour of the program's uncontrolled run at the
    reference knobs, and the symbols that run flags."""
    outcome = run(program, REFERENCE, None)
    return behaviour(outcome), frozenset(record.symbol for record in outcome.result.races.records())


def diverging(observed, expected):
    """The symbols whose final values or read multisets differ."""
    symbols = set()
    for mine, theirs in zip(observed, expected):
        for key in mine.keys() | theirs.keys():
            if mine.get(key) != theirs.get(key):
                symbols.add(key if isinstance(key, str) else key[0])
    return symbols


def keeps_the_promise(program, knobs, fuzz_seed, exact=tuple(REFERENCE)) -> None:
    """Run *program* at *knobs* on the schedule and assert P0-P3, then P4 for
    each knob in *exact* that is off its reference value."""
    outcome = run(program, knobs, fuzz_seed)
    records = outcome.result.races.records()

    # P1: online = post-mortem.
    assert records == replayed(outcome), "P1: online and post-mortem disagree"

    # P2: labels.
    lossy = fuzz_seed is not None and knobs["transport"] == "ud"
    named = PROGRAMS.get(program) if isinstance(program, str) else None
    if named is not None and named.labels:
        flagged = {record.symbol for record in records}
        if program in KNOWN_GAPS or lossy:
            assert flagged & named.labels, f"P2: {program} flagged no labelled symbol"
        else:
            assert named.labels <= flagged, f"P2: {program} missed {named.labels - flagged}"

    # P3: operational.
    if (named is None or named.one_sided) and not records:
        observed = behaviour(outcome)
        expected, flagged_there = reference_run(program)
        assert (
            observed == expected
            or diverging(observed, expected) <= flagged_there
            or replayed(outcome, write_effect_ticks_owner=False)
        ), "P3: the behaviour diverged and nothing was flagged"

    # P4: exact knobs, each against its reference twin.
    off_reference = {name for name in exact if knobs[name] != REFERENCE[name]}
    if "detector_epochs" in off_reference:
        reference = twin(program, knobs, fuzz_seed, "detector_epochs")
        same_run = run_result_digest(outcome.result) == run_result_digest(reference.result)
        assert same_run, "P4: detector_epochs changed the run"
        assert decisions(outcome) == decisions(reference), "P4: detector_epochs changed a decision"
    lossy_piggyback = lossy and knobs["clock_transport"] == "piggyback"
    if "clock_wire" in off_reference and not lossy_piggyback:
        reference = twin(program, knobs, fuzz_seed, "clock_wire")
        assert races(outcome) == races(reference), "P4: clock_wire changed the races"
        assert final_values(outcome) == final_values(reference), "P4: clock_wire changed memory"
    if "transport" in off_reference and fuzz_seed is None:
        reference = twin(program, knobs, fuzz_seed, "transport")
        same_races = races(outcome, times=False) == races(reference, times=False)
        assert same_races, "P4: transport changed the races"
        assert final_values(outcome) == final_values(reference), "P4: transport changed memory"


#: Drawn examples per (subject, knob).  Tier-1 replays a fixed stream of its
#: own for each pair; the nightly profile draws fresh ones.  The 15 barrier
#: pairs make 300 runs in tier-1 and 1 500 a night, as many as 100 and 500
#: generated programs on three schedules each.
EXAMPLES = {
    "tier-1": {"named": 2, "barrier": 20},
    "nightly": {"named": 16, "barrier": 100},
}

#: The wire the deleted per-knob differentials ran on: piggybacked delta
#: frames.  Each named subject checks it uncontrolled, its knob moved off the
#: reference value, before any drawn example.
SPARSE_WIRE = {**REFERENCE, "clock_transport": "piggyback", "clock_wire": "delta"}


@pytest.mark.parametrize("knob", KNOBS, ids=[knob.name for knob in KNOBS])
@pytest.mark.parametrize("subject", SUBJECTS)
def test_a_knob_never_changes_the_verdict_of_an_execution(subject, knob):
    """*knob* off its reference value keeps P0-P3 on *subject* and its own
    P4 against the reference twin; the other knobs and the schedule are
    drawn."""
    # The pytest plugin's verbosity and explain flags derive ``nightly-with-...``.
    nightly = settings.get_current_profile_name().startswith("nightly")
    barrier = subject in BARRIER_WORLDS
    count = EXAMPLES["nightly" if nightly else "tier-1"]["barrier" if barrier else "named"]

    @given(
        program=barrier_programs(BARRIER_WORLDS[subject]) if barrier else st.just(subject),
        knobs=knob_vectors(knob),
        fuzz_seed=st.none() | st.integers(min_value=0, max_value=2**16),
    )
    def check(program, knobs, fuzz_seed):
        keeps_the_promise(program, knobs, fuzz_seed, exact=(knob.name,))

    if not barrier:
        sparse = {**SPARSE_WIRE, knob.name: knob.matrix_values[1]}
        check = example(program=subject, knobs=sparse, fuzz_seed=None)(check)
    if nightly:
        check = settings(deadline=None, max_examples=count)(check)
    else:
        # The pair's own fixed stream; nothing is replayed from a database.
        check = settings(deadline=None, max_examples=count, database=None)(check)
        check = seed(zlib.crc32(f"{subject}/{knob.name}".encode()))(check)
    check()


#: ``(program, knobs, fuzz seed)``: executions that broke, or nearly broke, a
#: promise.  Each is checked against every knob's P4.
PINNED = {
    # The barrier leak: a rank released early re-arrived before a slower
    # waiter's release landed, and its post-barrier clock leaked into that
    # release.
    "barrier-leak": ((2, ((((True, 0),), ((True, 0),)),)), REFERENCE, 0),
    # A UD datagram took another path than its pair's RC messages.
    "ud-rmw-work-stealing": ("rmw-work-stealing", {**REFERENCE, "transport": "ud"}, None),
    "ud-stencil-no-barriers": ("stencil-no-barriers", {**REFERENCE, "transport": "ud"}, None),
    # The two known misses of P3: only the replay without the owner tick
    # flags the first; only the reference run flags the second.
    "model-ordered-barrier": (
        (3, ((((True, 1),), ((False, 0),), ((False, 2), (False, 2), (True, 0))),)),
        REFERENCE,
        446,
    ),
    "get-learns-readers": (
        (2, (((), ((True, 1),)), (((False, 1), (True, 1)), ((False, 1), (False, 1))))),
        REFERENCE,
        2,
    ),
    # Piggybacked sparse frames, moderated completions: replay still agrees.
    "cq-burst-piggyback-delta-moderated": (
        "cq-burst",
        {**REFERENCE, "clock_transport": "piggyback", "clock_wire": "delta",
         "cq_moderation": "on"},
        None,
    ),
}


@pytest.mark.parametrize("program, knobs, fuzz_seed", PINNED.values(), ids=PINNED)
def test_a_pinned_execution_keeps_the_promise(program, knobs, fuzz_seed):
    keeps_the_promise(program, knobs, fuzz_seed)


def count(result, stat: str) -> int:
    """One traffic or detector count of a run, by name."""
    if stat == "detection_messages":
        return result.fabric_stats.detection_messages
    if stat == "epoch_hits":
        return sum(counts["epoch_hits"] for counts in result.detection_profile.values())
    return result.clock_transport_stats[stat]


#: ``(knob, value, program, fuzz seed, count)``: on the pinned run the count
#: is zero at one of (reference value, *value*) and positive at the other.
#: The other knobs sit at piggyback + delta, where UD frames can break.
BITES = [
    ("clock_transport", "piggyback", "fig5a-concurrent-puts", None, "detection_messages"),
    ("clock_wire", "delta", "cq-burst", None, "wire_bytes_saved"),
    ("clock_wire", "truncated", "cq-burst", None, "wire_bytes_saved"),
    ("cq_moderation", "on", "cq-burst", None, "completions_coalesced"),
    ("detector_epochs", "off", "stencil-with-barriers", None, "epoch_hits"),
    ("transport", "ud", "master-worker", 1, "ud_dropped"),
    ("transport", "ud", "master-worker", 1, "ud_resyncs"),
]


def test_bites_cover_every_other_value():
    assert {(name, value) for name, value, *_ in BITES} == {
        (knob.name, value) for knob in KNOBS for value in knob.matrix_values[1:]
    }


@pytest.mark.parametrize(
    "name, value, program, fuzz_seed, stat",
    BITES,
    ids=[f"{name}={value}-{stat}" for name, value, _, _, stat in BITES],
)
def test_every_other_value_bites(name, value, program, fuzz_seed, stat):
    """Each non-reference value changes an observable on a pinned run, so the
    property above compares runs that really differ."""
    knobs = {**REFERENCE, "clock_transport": "piggyback", "clock_wire": "delta", name: value}
    at_value = count(run(program, knobs, fuzz_seed).result, stat)
    at_reference = count(twin(program, knobs, fuzz_seed, name).result, stat)
    assert min(at_value, at_reference) == 0 < max(at_value, at_reference)
