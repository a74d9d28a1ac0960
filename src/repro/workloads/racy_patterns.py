"""A labelled corpus of small racy and race-free kernels.

The detector-accuracy experiment (E13) needs programs whose ground truth is
known *by construction*, independently of the seed-varying oracle.  Each
:class:`LabelledPattern` bundles a scenario builder with the author's label
(racy or not) and the shared symbols expected to be involved.  The corpus
mixes:

* the paper's own figure scenarios (Figures 4, 5a, 5b, 5c);
* the parameterized workloads in both their synchronized (race-free) and
  unsynchronized (racy) configurations;
* a handful of additional hand-written kernels covering access shapes the
  above do not: write-after-read without sync, read-modify-write through a
  barrier, and disjoint-cell "false sharing" that must never be flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from repro.memory.directory import PlacementPolicy
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.workloads.atomic_counter import LockFreeCounterWorkload
from repro.workloads.figures import (
    figure4_concurrent_reads,
    figure5a_concurrent_puts,
    figure5b_causal_chain,
    figure5c_four_process_chain,
)
from repro.workloads.master_worker import MasterWorkerWorkload
from repro.workloads.producer_consumer import ProducerConsumerWorkload
from repro.workloads.reduction import OneSidedReductionWorkload
from repro.workloads.stencil import StencilWorkload
from repro.workloads.work_stealing import AtomicWorkStealingWorkload


@dataclass(frozen=True)
class LabelledPattern:
    """One corpus entry: a builder plus its ground-truth label."""

    name: str
    build: Callable[[int], DSMRuntime]
    racy: bool
    racy_symbols: frozenset
    description: str

    def run(self, seed: int = 0):
        """Build and run the pattern once; returns the :class:`RunResult`."""
        return self.build(seed).run()


# ---------------------------------------------------------------------------
# Hand-written kernels
# ---------------------------------------------------------------------------

def _disjoint_cells(seed: int = 0) -> DSMRuntime:
    """Every rank writes its own element of a shared array: never a race."""
    runtime = DSMRuntime(RuntimeConfig(world_size=4, seed=seed, latency="uniform"))
    runtime.declare_array("slots", 4, policy=PlacementPolicy.OWNER, owner=0, initial=0)

    def program(api):
        yield from api.put("slots", api.rank * 100, index=api.rank)
        value = yield from api.get("slots", index=api.rank)
        api.private.write("mine", value)

    runtime.set_spmd_program(program)
    return runtime


def _write_after_read_unsynchronized(seed: int = 0) -> DSMRuntime:
    """Rank 1 reads a datum while rank 2 overwrites it, with no ordering."""
    runtime = DSMRuntime(RuntimeConfig(world_size=3, seed=seed, latency="uniform"))
    runtime.declare_scalar("shared", owner=0, initial="original")

    def reader(api):
        value = yield from api.get("shared")
        api.private.write("observed", value)

    def writer(api):
        yield from api.compute(0.5)
        yield from api.put("shared", "overwritten")

    def idle(api):
        yield from api.compute(0.0)

    runtime.set_program(0, idle)
    runtime.set_program(1, reader)
    runtime.set_program(2, writer)
    return runtime


def _read_modify_write_with_barrier(seed: int = 0) -> DSMRuntime:
    """Each rank increments a shared counter in its own barrier-delimited phase.

    Rank ``k`` performs its read-modify-write between barriers ``k`` and
    ``k+1``, so every access is ordered: no race, and the final value is
    exactly ``world_size``.
    """
    world_size = 4
    runtime = DSMRuntime(RuntimeConfig(world_size=world_size, seed=seed, latency="uniform"))
    runtime.declare_scalar("counter", owner=0, initial=0)

    def program(api):
        for phase in range(api.world_size):
            if phase == api.rank:
                value = yield from api.get("counter")
                yield from api.put("counter", (value or 0) + 1)
            yield from api.barrier()
        final = yield from api.get("counter")
        api.private.write("final", final)
        yield from api.barrier()

    runtime.set_spmd_program(program)
    return runtime


def _unsynchronized_counter(seed: int = 0) -> DSMRuntime:
    """All ranks increment a shared counter concurrently: the classic lost update."""
    world_size = 4
    runtime = DSMRuntime(RuntimeConfig(world_size=world_size, seed=seed, latency="uniform"))
    runtime.declare_scalar("counter", owner=0, initial=0)

    def program(api):
        rng = api.random_stream(f"pattern.counter.P{api.rank}")
        yield from api.compute(float(rng.uniform()))
        value = yield from api.get("counter")
        yield from api.put("counter", (value or 0) + 1)

    runtime.set_spmd_program(program)
    return runtime


def _cas_flag_claim(seed: int = 0) -> DSMRuntime:
    """Ranks race to claim a flag with CAS; exactly one wins, observably.

    Every rank attempts ``CAS(flag, 0, 1)``; the single winner deposits a
    constant into ``prize``.  The outcome is deterministic on every schedule
    (flag ends 1, prize ends 42, the CAS observations form the same multiset
    — one 0, the rest 1) even though *which* rank wins varies freely: the
    canonical benign pure-RMW contention the
    ``treat_rmw_pairs_as_ordered`` knob exists to silence.
    """
    runtime = DSMRuntime(RuntimeConfig(world_size=3, seed=seed, latency="uniform"))
    runtime.declare_scalar("flag", owner=0, initial=0)
    runtime.declare_scalar("prize", owner=0, initial=0)

    def program(api):
        rng = api.random_stream(f"pattern.casflag.P{api.rank}")
        yield from api.compute(float(rng.uniform()))
        prior = yield from api.compare_and_swap("flag", 0, 1)
        if prior == 0:
            yield from api.put("prize", 42)

    runtime.set_spmd_program(program)
    return runtime


# ---------------------------------------------------------------------------
# The corpus
# ---------------------------------------------------------------------------

def pattern_corpus() -> List[LabelledPattern]:
    """Return the full labelled corpus used by the accuracy experiments."""
    return [
        LabelledPattern(
            name="fig4-concurrent-reads",
            build=lambda seed=0: figure4_concurrent_reads(seed=seed),
            racy=False,
            racy_symbols=frozenset(),
            description="two concurrent reads of an initialized variable (paper Fig. 4)",
        ),
        LabelledPattern(
            name="fig5a-concurrent-puts",
            build=lambda seed=0: figure5a_concurrent_puts(seed=seed),
            racy=True,
            racy_symbols=frozenset({"a"}),
            description="two unsynchronized writes to the same datum (paper Fig. 5a)",
        ),
        LabelledPattern(
            name="fig5b-causal-chain",
            build=lambda seed=0: figure5b_causal_chain(seed=seed),
            racy=False,
            racy_symbols=frozenset(),
            description="causally chained get/put sequence (paper Fig. 5b)",
        ),
        LabelledPattern(
            name="fig5c-arrival-race",
            build=lambda seed=0: figure5c_four_process_chain(seed=seed),
            racy=True,
            racy_symbols=frozenset({"a"}),
            description="writes ordered at the issuers but not at the target memory (paper Fig. 5c)",
        ),
        LabelledPattern(
            name="disjoint-cells",
            build=_disjoint_cells,
            racy=False,
            racy_symbols=frozenset(),
            description="each rank touches only its own array element",
        ),
        LabelledPattern(
            name="write-after-read-unsync",
            build=_write_after_read_unsynchronized,
            racy=True,
            racy_symbols=frozenset({"shared"}),
            description="a read and an overwrite of the same datum with no ordering",
        ),
        LabelledPattern(
            name="rmw-with-barriers",
            build=_read_modify_write_with_barrier,
            racy=False,
            racy_symbols=frozenset(),
            description="read-modify-write phases separated by barriers",
        ),
        LabelledPattern(
            name="unsynchronized-counter",
            build=_unsynchronized_counter,
            racy=True,
            racy_symbols=frozenset({"counter"}),
            description="concurrent increments of a shared counter (lost updates)",
        ),
        LabelledPattern(
            name="producer-consumer-unsync",
            build=ProducerConsumerWorkload(synchronized=False).build,
            racy=True,
            racy_symbols=frozenset({"flag", "buffer"}),
            description="flag/buffer hand-off without synchronization",
        ),
        LabelledPattern(
            name="producer-consumer-barrier",
            build=ProducerConsumerWorkload(synchronized=True).build,
            racy=False,
            racy_symbols=frozenset(),
            description="flag/buffer hand-off ordered by a barrier",
        ),
        LabelledPattern(
            name="stencil-with-barriers",
            build=StencilWorkload(world_size=4, iterations=2, use_barriers=True).build,
            racy=False,
            racy_symbols=frozenset(),
            description="halo exchange correctly separated by barriers",
        ),
        LabelledPattern(
            name="stencil-no-barriers",
            build=StencilWorkload(world_size=4, iterations=2, use_barriers=False).build,
            racy=True,
            racy_symbols=frozenset({f"halo{r}" for r in range(4)}),
            description="halo exchange with the barriers removed",
        ),
        LabelledPattern(
            name="reduction-synchronized",
            build=OneSidedReductionWorkload(world_size=5, synchronize=True).build,
            racy=False,
            racy_symbols=frozenset(),
            description="one-sided reduction after a barrier",
        ),
        LabelledPattern(
            name="reduction-unsynchronized",
            build=OneSidedReductionWorkload(world_size=5, synchronize=False).build,
            racy=True,
            racy_symbols=frozenset({"contrib"}),
            description="one-sided reduction racing with the contributions",
        ),
        LabelledPattern(
            name="master-worker",
            build=MasterWorkerWorkload(world_size=4, tasks=6).build,
            racy=True,
            racy_symbols=frozenset({"ticket", "completed", "results"}),
            description="self-scheduling master/worker with intentionally racy coordination",
        ),
    ]


def rmw_pattern_corpus() -> List[LabelledPattern]:
    """The atomic-aware (RMW) corpus for the ``treat_rmw_pairs_as_ordered`` sweep.

    Labels follow the paper's *operational* race definition — observable
    behaviour diverging between executions — which is exactly where atomics
    differ from plain accesses: a lock-free algorithm's RMW traffic is
    causally unordered yet its outcome never diverges.  The patterns span
    the three regimes the sweep needs:

    * pure-RMW contention with a deterministic outcome (atomic counter, CAS
      flag claim): flagged only while the knob is off — the knob's
      precision win;
    * the same counter with the get-then-put idiom: a true race under both
      knob settings — the knob must not cost recall;
    * mixed RMW-and-plain-read contention (work stealing: thieves *scan*
      victims' heads with plain gets before the CAS): the head cells'
      observable read streams genuinely diverge across schedules, and an
      RMW unordered with a plain read stays a race under either setting.
    """
    return [
        LabelledPattern(
            name="rmw-counter-atomic",
            build=LockFreeCounterWorkload(
                world_size=3, increments=3, use_atomics=True
            ).build,
            racy=False,
            racy_symbols=frozenset(),
            description="fetch_add counter: unordered RMW pairs, outcome never diverges",
        ),
        LabelledPattern(
            name="rmw-counter-getput",
            build=LockFreeCounterWorkload(
                world_size=3, increments=3, use_atomics=False
            ).build,
            racy=True,
            racy_symbols=frozenset({"counter"}),
            description="get-then-put counter: the same traffic as plain accesses, lost updates",
        ),
        LabelledPattern(
            name="rmw-cas-flag",
            build=_cas_flag_claim,
            racy=False,
            racy_symbols=frozenset(),
            description="CAS flag claim: contended RMWs, deterministic winner effect",
        ),
        LabelledPattern(
            name="rmw-work-stealing",
            build=AtomicWorkStealingWorkload(world_size=3, tasks_per_rank=2).build,
            racy=True,
            # Only the heads that stay *contended* race: rank 0 is the
            # fastest (cost scales with rank), so it drains head0 before any
            # thief scans it, and the shared done counter's clock gossip
            # orders every later read — verified against the schedule-space
            # ground truth.  head1/head2 see plain thief scans racing with
            # owner RMWs under either knob setting.
            racy_symbols=frozenset({"head1", "head2"}),
            description="work stealing: plain head scans race with CAS claims on every knob setting",
        ),
    ]
