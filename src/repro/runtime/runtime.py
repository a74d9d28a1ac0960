"""The DSM runtime: construction, launch and results.

:class:`DSMRuntime` assembles the whole simulated machine described by the
paper — processes, private/public memories, NICs, the interconnect, the symbol
directory, the race detector and the tracer — runs the per-rank programs to
completion, and returns a :class:`RunResult` containing everything the
examples, tests and benchmarks inspect: the race report, the trace, message
and overhead statistics, and the final contents of shared memory.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple, Union

from repro.core.detector import DetectorConfig, DualClockRaceDetector
from repro.core.races import RaceRecord, RaceReport, SignalPolicy
from repro.memory.address import GlobalAddress
from repro.memory.consistency import SequentialConsistencyChecker
from repro.memory.directory import PlacementPolicy, SymbolDirectory
from repro.memory.locks import MemoryLockTable
from repro.memory.private import PrivateMemory
from repro.memory.public import PublicMemory
from repro.net.clock_transport import ClockTransportStats
from repro.net.fabric import Fabric, FabricStats
from repro.net.latency import ConstantLatency, LatencyModel, LogGPLatency, UniformLatency
from repro.net.nic import NIC
from repro.net.topology import Topology
from repro.runtime.api import ProcessAPI
from repro.runtime.collectives import Barrier
from repro.runtime.knobs import (
    KNOBS,
    KNOBS_BY_NAME,
    default_detector_epochs,
    with_epoch_mode,
)
from repro.runtime.program import ProcessProgram, ProgramFunction, replicate_program
from repro.sim.engine import Simulator
from repro.trace.events import TraceSummary
from repro.trace.recorder import TraceRecorder
from repro.util.logging import SimLogger
from repro.util.validation import (
    require_non_negative,
    require_positive,
    require_type,
)
from repro.verbs.context import VerbsContext
from repro.verbs.receive_queue import SharedReceiveQueue


@dataclass(frozen=True)
class RuntimeConfig:
    """Configuration of one simulated DSM machine.

    Frozen: a field is set at construction (or in a copy,
    :meth:`with_overrides`).  A :class:`DSMRuntime` validates its own copy
    once, at build.  Afterwards :meth:`DSMRuntime.set_knob` writes its knobs
    and :meth:`DSMRuntime.set_detector_config` its ``detector``, each
    checking what it writes, so nothing that reads the copy checks it again.

    Attributes
    ----------
    world_size:
        Number of processes.  The paper targets debugging-scale runs
        ("typically, about 10 processes", Section V-A).
    public_memory_cells:
        Size of each rank's public memory segment, in cells.
    seed:
        Root seed; controls every random stream (latency jitter, workloads).
    topology:
        Name of a built-in topology (``"complete"``, ``"ring"``, ``"star"``,
        ``"mesh"``, ``"torus"``, ``"hypercube"``) or a :class:`Topology`.
    latency:
        ``"constant"``, ``"uniform"``, ``"loggp"`` (each with its default
        parameters) or a :class:`LatencyModel` built with others.
    detector:
        The race-detector configuration, or ``None`` for an uninstrumented
        run: no detector is built, so no clock is kept, checked or sent (the
        baseline of the detection-overhead benchmark E11).  Its ``epochs``
        is not read: the ``detector_epochs`` knob decides the epoch mode.
    ud_max_retransmits:
        Retransmissions of one datagram (or resync re-requests of one
        sequence) under ``transport="ud"`` before the operation fails with
        :class:`~repro.net.ud_transport.UdDeliveryExceeded`.
    clock_transport:
        How causal clocks travel with verbs traffic (see
        :mod:`repro.net.clock_transport`): ``"roundtrip"`` charges
        Algorithm 5's explicit CLOCK_FETCH/CLOCK_UPDATE pair per
        instrumented remote access; ``"piggyback"`` rides the clock on the
        data messages themselves (no dedicated clock traffic, a vector
        clock of extra payload per data message) and batches origin-side
        clock joins per queue-pair drain.  Each execution is judged the
        same in both modes, but fewer messages mean different timing, so a
        timing-dependent program may run a different execution (the knob
        promise, :mod:`repro.runtime.knobs`).  Lock traffic is not
        configurable: every access takes the NIC lock on its target
        cell (Section III-A) and a remote one pays its request / grant /
        release messages.
    clock_wire:
        How each clock is encoded when it crosses the wire (see
        :mod:`repro.net.clock_transport`): ``"full"`` ships the whole
        vector per rider (``world_size × 8`` bytes — linear in world size),
        ``"delta"`` ships per-channel increments of the components that
        changed since the last clock on that channel, ``"truncated"``
        ships their absolute values; both sparse formats send a full frame
        on a channel's first message and whenever the sparse frame would not
        pay.  Every format decodes to the exact clock (verified on every
        frame), so the race records of a run do not depend on this knob —
        only bytes do (:mod:`repro.runtime.knobs`).
    transport:
        The service level clock-carrying data messages ride on (see
        :mod:`repro.net.ud_transport`): ``"rc"`` (reliable connected —
        per-pair FIFO delivery, no loss; the paper's implicit model) or
        ``"ud"`` (unreliable datagrams — each data message becomes a
        sequence-numbered datagram the explored schedule may drop or
        duplicate, with receiver-driven clock resync repairing
        sequence gaps so a stale clock is never stamped).  On a fabric
        that drops nothing the race records do not depend on this knob —
        only traffic, latency and resync accounting do; a lossy fabric
        moves timing, and so may move which execution happens
        (:mod:`repro.runtime.knobs`).  Lock and roundtrip clock control traffic
        stays RC under either mode, as on real fabrics where connection
        management rides a reliable QP.
    detector_epochs:
        The FastTrack-style epoch fast path of the detector (see
        ``DetectorConfig.epochs``): ``"on"`` replaces full O(n) vector
        compares with O(1) ``(rank, scalar)`` epoch probes wherever the
        per-datum clock carries a valid annotation, falling back to the
        full path on genuine read-share; ``"off"`` always runs the full
        vector compares.  Verdicts, clock contents, metrics, and join
        counts are identical in both modes — only ``compares`` vs
        ``epoch_hits`` in the detection profile differ.  The runtime builds
        its detector's config with this mode.  The default is the
        ``REPRO_DETECTOR_EPOCHS`` environment variable if set, else
        ``"on"``.
    cq_moderation:
        Completion coalescing (``True``/``False``, also spelled ``"on"``/
        ``"off"``): when on, each queue pair drain delivers its burst of
        work completions as ONE CQE event (as real NICs do with CQ
        moderation), and the batched retirement clock the event
        carries is charged once per burst instead of once per completion.
        Consumer semantics (wait/wait_all/poll, backpressure, event
        channels) are unchanged and each execution is judged the same, but
        CQ visibility timing moves, so a timing-dependent program may run a
        different execution (:mod:`repro.runtime.knobs`).
    signal_policy:
        What to do when a race is signalled (collect / warn / abort).
    trace_spans:
        Record sim-time spans (WR post→retire, drain bursts, lock waits,
        barrier fan-in) on ``sim.obs.spans`` for Chrome trace-event export
        (``python -m repro.obs export-trace``).  Off by default: tracing is
        observe-only and cannot change verdicts, but it allocates.
    obs_wall_clock:
        Additionally record host wall time on spans and in the detection
        profiler.  Off by default because wall time is nondeterministic and
        would break byte-identical artifacts.
    verbs_cq_capacity:
        Capacity of each rank's default completion queues (``None`` =
        unbounded); a bounded queue overflows when completions outpace
        retirement, as on real hardware.
    verbs_max_send_wr:
        Send-queue depth of each queue pair.  A plain post (``iput`` /
        ``isend``) beyond it raises
        :class:`~repro.verbs.queue_pair.SendQueueFull`, since it cannot
        yield; a ``*_throttled`` post waits until a completion frees a slot.
    verbs_max_recv_wr:
        Receive-queue depth of each queue pair and the default SRQ depth
        (posting beyond it raises
        :class:`~repro.verbs.receive_queue.ReceiveQueueFull`).
    """

    world_size: int = 4
    public_memory_cells: int = 256
    seed: int = 0
    topology: Union[str, Topology] = "complete"
    latency: Union[str, LatencyModel] = "constant"
    detector: Optional[DetectorConfig] = field(default_factory=DetectorConfig)
    ud_max_retransmits: int = 16
    # The consistency knobs, in repro.runtime.knobs.KNOBS order.
    clock_transport: str = "roundtrip"
    clock_wire: str = "full"
    cq_moderation: bool = False
    detector_epochs: str = field(default_factory=default_detector_epochs)
    transport: str = "rc"
    signal_policy: SignalPolicy = SignalPolicy.COLLECT
    trace_spans: bool = False
    obs_wall_clock: bool = False
    verbs_cq_capacity: Optional[int] = None
    verbs_max_send_wr: int = 128
    verbs_max_recv_wr: int = 128

    def with_overrides(self, **kwargs: Any) -> "RuntimeConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def _validate_settings(config: RuntimeConfig) -> None:
    """Reject an illegal non-knob setting the NICs or verbs contexts read.

    Checked once, at construction: the readers take these values on trust,
    so a bad one would otherwise fail deep inside a run (at the first drop
    or queue pair) or, like a truthy string, not fail at all.
    """
    require_positive(config.world_size, "world_size")
    require_non_negative(
        require_type(config.ud_max_retransmits, int, "ud_max_retransmits"),
        "ud_max_retransmits",
    )
    for name in ("verbs_cq_capacity", "verbs_max_send_wr", "verbs_max_recv_wr"):
        value = getattr(config, name)
        if value is not None or name != "verbs_cq_capacity":
            # only the CQ capacity may be None (unbounded)
            require_positive(require_type(value, int, name), name)


@dataclass
class RunResult:
    """Everything a completed run exposes for inspection."""

    config: RuntimeConfig
    races: RaceReport
    trace_summary: TraceSummary
    fabric_stats: FabricStats
    elapsed_sim_time: float
    #: Algorithm 5's clock bytes, as the fabric counted them
    #: (``fabric_stats.detection_bytes``).
    detection_clock_bytes: int
    clock_storage_entries: int
    final_shared_values: Dict[str, List[Any]]
    per_rank_private: Dict[int, Dict[str, Any]]
    #: The consistency knobs the run used, keyed and ordered as
    #: :data:`repro.runtime.knobs.KNOBS` (``clock_transport``, ``clock_wire``,
    #: ...), each with its resolved value.
    knobs: Dict[str, Any] = field(default_factory=dict)
    #: Whole-machine clock-transport accounting (round trips charged,
    #: piggybacked clocks, wire frames, completion events, retirement joins
    #: performed/elided).
    clock_transport_stats: Dict[str, int] = field(default_factory=dict)
    #: Canonical metric snapshot of the run (``sim.obs.metrics``): every
    #: counter/gauge/histogram keyed ``name{label=value,...}``, sorted.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Detection hot-path costs per check type (``read_live`` ... ``rmw_carried``),
    #: each with checks/compares/joins counts (``sim.obs.profiler``).
    detection_profile: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: ``(process name, awaited event name)`` of every process still alive
    #: when the run ended — e.g. ``("qp-P1->P0", "credit-wait:op-P1-0")`` for
    #: a SEND parked on a receiver that never posts.  Empty when every
    #: process finished.  A report only: a run with blocked processes
    #: returns normally.
    blocked: Tuple[Tuple[str, Optional[str]], ...] = ()

    @property
    def race_count(self) -> int:
        """Number of race signals emitted during the run."""
        return len(self.races)

    @property
    def distinct_race_count(self) -> int:
        """Number of distinct races after deduplication."""
        return len(self.races.distinct())

    def race_records(self) -> List[RaceRecord]:
        """All race records."""
        return self.races.records()

    def shared_value(self, symbol: str, index: int = 0) -> Any:
        """Final value of ``symbol[index]``."""
        return self.final_shared_values[symbol][index]


class DSMRuntime:
    """Builds and runs one simulated distributed-shared-memory machine."""

    def __init__(self, config: Optional[RuntimeConfig] = None, **overrides: Any) -> None:
        base = config or RuntimeConfig()
        if overrides:
            base = base.with_overrides(**overrides)
        # The runtime owns its configuration: validated knobs are written to
        # this copy (which the NICs and verbs contexts read), never through to
        # the caller's object.  A shallow copy: there is no ``__post_init__``
        # to re-run, and the frozen ``DetectorConfig`` is shared.  Only
        # ``set_knob`` and ``set_detector_config`` write the copy after this.
        config = self.config = copy.copy(base)
        _validate_settings(config)
        for knob in KNOBS:
            object.__setattr__(config, knob.name, knob.validate(getattr(config, knob.name)))

        self.logger = SimLogger()
        self.sim = Simulator(seed=self.config.seed, logger=self.logger)
        self.sim.obs.configure(
            trace_spans=self.config.trace_spans,
            wall_clock=self.config.obs_wall_clock,
        )
        self.topology = self._build_topology(self.config.topology, self.config.world_size)
        self.latency_model = self._build_latency(self.config.latency)
        self.fabric = Fabric(self.sim, self.topology, self.latency_model)
        self.recorder = TraceRecorder(self.config.world_size)
        self.report = RaceReport(self.config.signal_policy, logger=self.logger)
        self.detector: Optional[DualClockRaceDetector] = None
        if config.detector is not None:
            # The knob decides the epoch mode, so the detector's config is
            # built with it: shared when it agrees, replaced once otherwise.
            detector_config = with_epoch_mode(config.detector, config.detector_epochs)
            object.__setattr__(config, "detector", detector_config)
            self.detector = DualClockRaceDetector(
                config.world_size, config=detector_config, report=self.report
            )
            self.detector.bind_observability(self.sim.obs)
        self.public_memories: List[PublicMemory] = [
            PublicMemory(rank, self.config.public_memory_cells)
            for rank in range(self.config.world_size)
        ]
        self.private_memories: List[PrivateMemory] = [
            PrivateMemory(rank) for rank in range(self.config.world_size)
        ]
        self.lock_tables: List[MemoryLockTable] = [
            MemoryLockTable(self.sim, rank) for rank in range(self.config.world_size)
        ]
        self.directory = SymbolDirectory(self.public_memories)
        self.nics: List[NIC] = [
            NIC(
                self.sim,
                rank,
                self.fabric,
                self.public_memories[rank],
                self.lock_tables[rank],
                self.config,
                detector=self.detector,
                recorder=self.recorder,
            )
            for rank in range(self.config.world_size)
        ]
        for nic in self.nics:
            for peer in self.nics:
                if peer is not nic:
                    nic.register_peer(peer)
        self.verbs_contexts: List[VerbsContext] = [
            VerbsContext(self.sim, nic) for nic in self.nics
        ]
        for context in self.verbs_contexts:
            for peer in self.verbs_contexts:
                if peer is not context:
                    context.register_peer(peer)
        self.barrier = Barrier(
            self.sim,
            self.config.world_size,
            fabric=self.fabric,
            detector=self.detector,
            recorder=self.recorder,
        )
        self._programs: Dict[int, ProcessProgram] = {}
        self._apis: Dict[int, ProcessAPI] = {}
        self._initial_values: Dict[GlobalAddress, Any] = {}
        self._ran = False

    # -- knobs --------------------------------------------------------------------------

    def set_knob(self, name: str, value: Any) -> None:
        """Change one consistency knob on a built runtime (before :meth:`run`).

        *name* is an entry of :data:`repro.runtime.knobs.KNOBS`; the value is
        validated, written to ``self.config`` (which the NICs and verbs
        contexts read, unchecked) and pushed to whatever keeps its own state
        for it.  ``self.config`` is frozen: this is the one writer of its
        knobs.  A knob changes traffic, bytes and timing, never the verdict
        of a given execution; a timing knob (``clock_transport``,
        ``cq_moderation``) changes which execution happens
        (:mod:`repro.runtime.knobs`).  The campaign runner's configure hook
        uses this to set the knobs on already-built runtimes.
        """
        knob = KNOBS_BY_NAME.get(name)
        if knob is None:
            raise ValueError(f"unknown knob {name!r} (have {list(KNOBS_BY_NAME)})")
        value = knob.validate(value)
        if self._ran:
            raise RuntimeError(f"set_knob({name!r}) must be called before run()")
        object.__setattr__(self.config, name, value)
        if knob.apply is not None:
            knob.apply(self, value)

    def set_detector_config(self, config: DetectorConfig) -> None:
        """Replace the detector's configuration on a built runtime (before :meth:`run`).

        A :class:`DetectorConfig` is frozen, so a change is a whole new one
        (``dataclasses.replace(runtime.config.detector, ...)``); it becomes
        both ``self.config.detector`` and ``self.detector.config``, one
        object.  The epoch mode is the ``detector_epochs`` knob's
        (:meth:`set_knob`), so *config*'s ``epochs`` must agree with it.
        The campaign runner's ``treat_rmw_pairs_as_ordered`` override uses
        this.
        """
        if self.detector is None or self._ran:
            raise RuntimeError("set_detector_config() needs a detector, before run()")
        require_type(config, DetectorConfig, "config")
        if config.epochs is not (self.config.detector_epochs == "on"):
            raise ValueError("config.epochs disagrees with detector_epochs; use set_knob")
        object.__setattr__(self.config, "detector", config)
        self.detector.config = config

    def knobs(self) -> Dict[str, Any]:
        """The consistency knobs this runtime runs with, in registry order."""
        return {knob.name: getattr(self.config, knob.name) for knob in KNOBS}

    def clock_transport_stats(self) -> ClockTransportStats:
        """Whole-machine clock-transport accounting (summed over ranks)."""
        total = ClockTransportStats()
        for nic in self.nics:
            total.merge(nic.clock_transport.stats)
        return total

    # -- construction helpers -------------------------------------------------------

    @staticmethod
    def _build_topology(spec: Union[str, Topology], world_size: int) -> Topology:
        if isinstance(spec, Topology):
            if spec.world_size != world_size:
                raise ValueError(
                    f"topology covers {spec.world_size} ranks but world_size={world_size}"
                )
            return spec
        return DSMRuntime._named_topology(spec, world_size)

    @staticmethod
    @functools.lru_cache(maxsize=32, typed=True)
    def _named_topology(spec: str, world_size: int) -> Topology:
        """The built-in topology *spec* names, over *world_size* ranks.

        A :class:`Topology` is immutable, so one per ``(spec, world_size)``
        serves every runtime of the process: a campaign builds its graph (and
        checks it for connectivity) once, not once per schedule.
        """
        name = spec.lower()
        if name == "complete":
            return Topology.complete(world_size)
        if name == "ring":
            return Topology.ring(world_size)
        if name == "star":
            return Topology.star(world_size)
        if name in ("mesh", "torus"):
            rows = int(world_size ** 0.5)
            while rows > 1 and world_size % rows:
                rows -= 1
            cols = world_size // max(rows, 1)
            if rows * cols != world_size:
                rows, cols = 1, world_size
            return Topology.mesh2d(rows, cols, torus=(name == "torus"))
        if name == "hypercube":
            dimension = max(1, (world_size - 1).bit_length())
            if 2 ** dimension != world_size:
                raise ValueError(
                    f"hypercube topology needs a power-of-two world size, got {world_size}"
                )
            return Topology.hypercube(dimension)
        raise ValueError(f"unknown topology {spec!r}")

    def _build_latency(self, spec: Union[str, LatencyModel]) -> LatencyModel:
        if isinstance(spec, LatencyModel):
            return spec
        name = spec.lower()
        if name == "constant":
            return ConstantLatency()
        if name == "uniform":
            return UniformLatency(self.sim.rng)
        if name == "loggp":
            return LogGPLatency(jitter=self.sim.rng, jitter_fraction=0.05)
        raise ValueError(f"unknown latency model {spec!r}")

    # -- shared-data declaration -------------------------------------------------------

    def declare_scalar(self, name: str, owner: Optional[int] = None, initial: Any = None):
        """Declare a shared scalar (see :class:`SymbolDirectory`)."""
        symbol = self.directory.declare_scalar(name, owner=owner, initial=initial)
        if initial is not None:
            self._initial_values[self.directory.resolve(name, 0)] = initial
        return symbol

    def declare_array(
        self,
        name: str,
        length: int,
        policy: PlacementPolicy = PlacementPolicy.BLOCK,
        owner: Optional[int] = None,
        initial: Any = None,
    ):
        """Declare a shared array (see :class:`SymbolDirectory`)."""
        symbol = self.directory.declare_array(
            name, length, policy=policy, owner=owner, initial=initial
        )
        if initial is not None:
            for index in range(length):
                self._initial_values[self.directory.resolve(name, index)] = initial
        return symbol

    def declare_srq(self, rank: int, max_wr: Optional[int] = None) -> SharedReceiveQueue:
        """Declare *rank*'s shared receive queue (an ``ibv_srq``).

        Every queue pair of the rank drains its receives from it from
        creation, as ``ibv_create_qp`` names the SRQ in its init attributes;
        so it is declared before the run, while the rank has no queue pair.
        *max_wr* defaults to ``verbs_max_recv_wr``.
        """
        if not (0 <= rank < self.config.world_size):
            raise ValueError(f"rank {rank} outside world of size {self.config.world_size}")
        context = self.verbs_contexts[rank]
        if context.srq is not None:
            raise RuntimeError(f"rank {rank} already has a shared receive queue")
        if self._ran or context.queue_pairs:
            raise RuntimeError(
                f"declare_srq({rank}) must come before run() and before the "
                f"rank's first queue pair"
            )
        context.srq = SharedReceiveQueue(
            rank, max_wr=self.config.verbs_max_recv_wr if max_wr is None else max_wr
        )
        return context.srq

    # -- program registration ------------------------------------------------------------

    def set_program(self, rank: int, function: ProgramFunction, **kwargs: Any) -> None:
        """Register the program run by *rank*."""
        if not (0 <= rank < self.config.world_size):
            raise ValueError(f"rank {rank} outside world of size {self.config.world_size}")
        self._programs[rank] = ProcessProgram(
            rank=rank, function=function, kwargs=tuple(kwargs.items())
        )

    def set_spmd_program(
        self,
        function: ProgramFunction,
        per_rank_kwargs: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> None:
        """Register the same program for every rank (SPMD)."""
        for program in replicate_program(function, self.config.world_size, per_rank_kwargs):
            self._programs[program.rank] = program

    def api(self, rank: int) -> ProcessAPI:
        """Return (creating if needed) the :class:`ProcessAPI` of *rank*."""
        if rank not in self._apis:
            self._apis[rank] = ProcessAPI(
                rank,
                self.sim,
                self.nics[rank],
                self.directory,
                self.private_memories[rank],
                barrier=self.barrier,
                recorder=self.recorder,
                verbs=self.verbs_contexts[rank],
            )
        return self._apis[rank]

    # -- execution ---------------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> RunResult:
        """Launch every registered program and run the simulation to completion."""
        if self._ran:
            raise RuntimeError("DSMRuntime.run() may only be called once per instance")
        if not self._programs:
            raise RuntimeError("no programs registered; call set_program/set_spmd_program first")
        self._ran = True
        self.recorder.set_run_info(
            world_size=self.config.world_size, seed=self.config.seed, **self.knobs()
        )
        ranks_without_program = [
            rank for rank in range(self.config.world_size) if rank not in self._programs
        ]
        for program in self._programs.values():
            api = self.api(program.rank)
            self.sim.process(program.launch(api), name=program.display_name)
        self.logger.log(
            "runtime",
            f"launched {len(self._programs)} programs "
            f"({len(ranks_without_program)} idle ranks) on {self.topology.name}",
        )
        elapsed = self.sim.run(until=until)
        if until is None:
            for table in self.lock_tables:
                table.assert_quiescent()
        return self._collect_results(elapsed)

    def _collect_results(self, elapsed: float) -> RunResult:
        final_shared: Dict[str, List[Any]] = {}
        for symbol in self.directory.symbols():
            values = []
            for index in range(symbol.length):
                address = self.directory.resolve(symbol.name, index)
                values.append(self.public_memories[address.rank].peek(address))
            final_shared[symbol.name] = values
        per_rank_private = {
            rank: self.private_memories[rank].snapshot()
            for rank in range(self.config.world_size)
        }
        clock_entries = sum(
            memory.clock_storage_entries() for memory in self.public_memories
        ) + (0 if self.detector is None else self.detector.clock_storage_entries())
        return RunResult(
            config=self.config,
            races=self.report,
            trace_summary=self.recorder.summary(),
            fabric_stats=self.fabric.stats,
            elapsed_sim_time=elapsed,
            detection_clock_bytes=self.fabric.stats.detection_bytes,
            clock_storage_entries=clock_entries,
            final_shared_values=final_shared,
            per_rank_private=per_rank_private,
            knobs=self.knobs(),
            clock_transport_stats=ClockTransportStats.summed(
                [nic.clock_transport.stats for nic in self.nics]
            ),
            metrics=self.sim.obs.metrics.snapshot(),
            detection_profile=self.sim.obs.profiler.snapshot(),
            blocked=self.sim.blocked,
        )

    # -- post-run helpers -----------------------------------------------------------------------

    def consistency_check(self) -> List[str]:
        """Run the sequential-consistency reference checker over the trace."""
        checker = SequentialConsistencyChecker(self._initial_values)
        return checker.check(self.recorder.accesses())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DSMRuntime n={self.config.world_size} topology={self.topology.name} "
            f"detection={'off' if self.detector is None else 'on'}>"
        )
