"""E14 — verbs overlap: posted halo exchange beats blocking halo exchange.

The asynchronous one-sided layer exists to let programs hide communication
behind computation — the capability the paper's RDMA model promises
(operations serviced entirely by the target NIC, no origin-side blocking
required).  This benchmark runs the *same* Jacobi stencil twice, blocking
(:class:`StencilWorkload`) and overlapped (:class:`VerbsStencilWorkload`),
with identical world size, block size, iteration count and compute cost, and
asserts:

* identical numerics — the overlap is a pure scheduling transformation;
* strictly smaller simulated completion time for the overlapped version, at
  every tested scale and seed;
* the speedup grows with the compute available to hide communication under,
  up to the point where computation fully covers the exchange.
"""

import os

from conftest import record

from repro.runtime.runtime import RuntimeConfig
from repro.workloads import StencilWorkload, VerbsStencilWorkload

WORLD, CELLS, ITERS, COST = 4, 8, 3, 4.0
#: The CI clock-transport smoke job re-runs this whole file with
#: ``REPRO_CLOCK_TRANSPORT=piggyback``: every claim must hold under both
#: transports (on this race-free workload they give the same verdicts and
#: numerics; a transport changes timing, never the check).
CLOCK_TRANSPORT = os.environ.get("REPRO_CLOCK_TRANSPORT", "roundtrip")


def _config():
    return RuntimeConfig(clock_transport=CLOCK_TRANSPORT)


def _pair(seed: int, world=WORLD, compute_cost=COST):
    blocking = StencilWorkload(
        world_size=world, cells_per_rank=CELLS, iterations=ITERS,
        compute_cost=compute_cost, config=_config(),
    ).run(seed)
    overlapped = VerbsStencilWorkload(
        world_size=world, cells_per_rank=CELLS, iterations=ITERS,
        compute_cost=compute_cost, config=_config(),
    ).run(seed)
    return blocking, overlapped


def test_overlapped_stencil_is_faster_and_identical(benchmark):
    benchmark(lambda: _pair(0))
    speedups = []
    for seed in (0, 1, 2):
        blocking, overlapped = _pair(seed)
        # Pure scheduling change: same values, same (absence of) races.
        for rank in range(WORLD):
            assert (
                overlapped.run.per_rank_private[rank]["block"]
                == blocking.run.per_rank_private[rank]["block"]
            ), "overlap must not change the numerics"
        assert blocking.run.race_count == 0 and overlapped.run.race_count == 0
        assert (
            overlapped.run.elapsed_sim_time < blocking.run.elapsed_sim_time
        ), f"seed {seed}: overlap must reduce simulated completion time"
        speedups.append(
            blocking.run.elapsed_sim_time / overlapped.run.elapsed_sim_time
        )
        # The posted puts really went through the verbs path.
        assert overlapped.run.trace_summary.posted_operations > 0
        assert blocking.run.trace_summary.posted_operations == 0
    record(
        benchmark,
        experiment="E14 / verbs overlap",
        world_size=WORLD,
        iterations=ITERS,
        speedups=[round(s, 3) for s in speedups],
        min_speedup=round(min(speedups), 3),
    )


def test_overlap_speedup_grows_with_hidden_compute(benchmark):
    """More interior work to hide under -> larger absolute saving, until the
    computation fully covers the exchange."""

    def sweep():
        savings = {}
        for cost in (1.0, 4.0, 8.0):
            blocking, overlapped = _pair(0, compute_cost=cost)
            savings[cost] = (
                blocking.run.elapsed_sim_time - overlapped.run.elapsed_sim_time
            )
        return savings

    savings = benchmark(sweep)
    assert all(saving > 0 for saving in savings.values())
    assert savings[4.0] >= savings[1.0], (
        "hiding communication under more compute must not shrink the saving"
    )
    record(
        benchmark,
        experiment="E14 / overlap scaling",
        savings={str(k): round(v, 3) for k, v in savings.items()},
    )


def test_overlap_benefit_across_world_sizes(benchmark):
    def sweep():
        out = {}
        for world in (2, 4, 8):
            blocking, overlapped = _pair(0, world=world)
            out[world] = (
                blocking.run.elapsed_sim_time,
                overlapped.run.elapsed_sim_time,
            )
        return out

    times = benchmark(sweep)
    for world, (blocking_t, overlapped_t) in times.items():
        assert overlapped_t < blocking_t, f"world={world}"
    record(
        benchmark,
        experiment="E14 / world sweep",
        times={str(k): (round(b, 2), round(o, 2)) for k, (b, o) in times.items()},
    )
