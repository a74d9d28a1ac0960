"""E8 — Section IV-C / IV-D: clock storage grows with n; dual clock doubles it.

Charron-Bost's bound says vector clocks need at least ``n`` entries, so the
per-datum storage of the detector is ``2·n`` entries (access clock + write
clock) and cannot be reduced.  The benchmark measures the clock entries a real
run allocates for several world sizes and checks the analytical model:
linear growth in ``n`` per shared datum and a 2x ratio over a single-clock
scheme.  It records the model's ``n³`` of process matrices (the paper's
``V_Pi``) beside the measured count, which holds one vector of ``n`` per
process.
"""

from conftest import record

from repro.analysis.overhead import clock_storage_model
from repro.workloads.random_access import RandomAccessWorkload

WORLD_SIZES = (2, 4, 8, 16)


def measure(world_size):
    workload = RandomAccessWorkload(
        world_size=world_size, operations_per_rank=6, hotspot_fraction=0.5,
        array_length=32,
    )
    result = workload.run(seed=0).run
    return result.clock_storage_entries


def test_clock_storage_grows_with_world_size(benchmark):
    entries = benchmark(lambda: [measure(n) for n in WORLD_SIZES])

    # Monotone growth in n (the paper: clocks cannot be smaller than n).
    assert entries == sorted(entries)
    assert entries[-1] > entries[0]

    # Per-datum model: doubling n doubles the per-datum clock entries.
    models = [clock_storage_model(n, shared_data=32) for n in WORLD_SIZES]
    for small, large in zip(models, models[1:]):
        assert large.entries_per_datum_dual == 2 * small.entries_per_datum_dual

    record(
        benchmark,
        experiment="E8 / Section IV-C",
        world_sizes=list(WORLD_SIZES),
        measured_entries=entries,
        per_datum_entries=[m.entries_per_datum_dual for m in models],
        model_process_matrix_entries=[m.process_matrix_entries for m in models],
    )


def test_dual_clock_doubles_per_datum_storage(benchmark):
    """Section IV-D: 'it doubles the necessary amount of memory'."""
    models = benchmark(lambda: [clock_storage_model(n, shared_data=100) for n in WORLD_SIZES])
    for model in models:
        assert model.dual_over_single_ratio == 2.0
    record(
        benchmark,
        experiment="E8 dual-vs-single storage",
        ratios=[m.dual_over_single_ratio for m in models],
        dual_bytes_for_100_data=[m.datum_entries_dual * 8 for m in models],
    )
