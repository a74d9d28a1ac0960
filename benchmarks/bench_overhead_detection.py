"""E11 — Section V-A: the cost of enabling detection on a running program.

The paper argues the overhead (extra clock messages, extra bytes, clock
storage) is acceptable because detection is a debugging technique used at
small scale.  The benchmark quantifies it on the barrier-synchronized stencil:
the same program is run with detection off (baseline) and on (instrumented),
and the comparison must show (a) identical application results, (b) identical
data-message counts, (c) a bounded number of extra control messages per remote
access, and (d) clock storage matching the analytical model.

The detection profiler refines (c)/(d) into a per-check-type breakdown —
read/write/rmw × live/carried, each with its clock compare and join counts —
written to ``BENCH_overhead_detection.json`` and gated by
``tools/perf_gate.py`` so the detection hot path cannot silently grow more
expensive per check.
"""

import json
import os

from conftest import record

from repro.analysis.overhead import compare_runs
from repro.core.detector import DetectorConfig
from repro.obs.profiler import CHECK_TYPES
from repro.runtime.runtime import RuntimeConfig
from repro.workloads.stencil import StencilWorkload

#: Where the per-push perf artifact lands (CI uploads it).
BENCH_JSON = os.environ.get("REPRO_BENCH_JSON", "BENCH_overhead_detection.json")


def run_pair(world_size=6, iterations=3):
    def run(enabled):
        workload = StencilWorkload(
            world_size=world_size, cells_per_rank=6, iterations=iterations,
            use_barriers=True,
            config=RuntimeConfig(detector=DetectorConfig(enabled=enabled)),
        )
        return workload.run(seed=0).run

    baseline = run(False)
    instrumented = run(True)
    return baseline, instrumented


def test_detection_overhead_on_synchronized_stencil(benchmark):
    baseline, instrumented = benchmark(run_pair)
    comparison = compare_runs(baseline, instrumented)

    # (a) Detection does not change the computation.
    assert baseline.final_shared_values == instrumented.final_shared_values
    # (b) The application traffic is untouched.
    assert baseline.fabric_stats.data_messages == instrumented.fabric_stats.data_messages
    # (c) Bounded per-access control overhead: one clock round trip per remote
    #     access in this configuration (2 messages), never more.
    assert 0 < comparison.extra_messages_per_access <= 2.0
    # (d) Extra bytes and storage exist and are attributable to clocks.
    assert comparison.detection_bytes > 0
    assert comparison.clock_storage_entries > 0
    # The instrumented run is slower in simulated time, but by a modest factor.
    assert 1.0 <= comparison.time_overhead_ratio < 3.0

    record(
        benchmark,
        experiment="E11 / Section V-A",
        **comparison.as_dict(),
    )


def _profile_totals(profile):
    return {
        key: sum(entry[key] for entry in profile.values())
        for key in ("checks", "compares", "joins", "epoch_hits")
    }


def test_per_check_type_cost_breakdown(benchmark):
    """Profile the detection hot path per check type and write the gate artifact.

    Two workloads cover the whole check-type matrix: the blocking stencil
    drives *live* checks (the caller's own clock ticks at the access) while
    the verbs stencil drives *carried* checks (posted operations travel with
    post-time clock snapshots).  The resulting compare/join counts are the
    costs the epoch fast path must shrink, so they are committed as a
    baseline and gated.

    The reported profiles come straight from the observability registry
    (``runtime.sim.obs.profiler``) — the same object ``RunResult.
    detection_profile`` snapshots — so the benchmark artifact and the run
    result can never disagree; the cross-check below pins that.
    """
    from repro.workloads.verbs_stencil import VerbsStencilWorkload

    def run():
        blocking = StencilWorkload(
            world_size=6, cells_per_rank=6, iterations=3, use_barriers=True
        ).run(seed=0)
        overlapped = VerbsStencilWorkload(
            world_size=6, cells_per_rank=6, iterations=3, use_barriers=True
        ).run(seed=0)
        return blocking, overlapped

    blocking, overlapped = benchmark(run)
    # Per-access-kind counts from the profiler registry, not recomputed here.
    profiles = {
        "stencil_blocking": blocking.runtime.sim.obs.profiler.snapshot(),
        "stencil_verbs": overlapped.runtime.sim.obs.profiler.snapshot(),
    }
    # ... and the registry is exactly what the run result snapshotted.
    assert profiles["stencil_blocking"] == blocking.run.detection_profile
    assert profiles["stencil_verbs"] == overlapped.run.detection_profile

    for name, profile in profiles.items():
        # Every check type is present, in canonical order, counts only (no
        # nondeterministic wall time in the default configuration).
        assert list(profile) == sorted(f"{k}_{p}" for k, p in CHECK_TYPES), name
        for entry in profile.values():
            assert set(entry) == {"checks", "compares", "joins", "epoch_hits"}, name
        # The profiler's check total is the detector's, exactly.
        runtime = (blocking if name == "stencil_blocking" else overlapped).runtime
        total_checks = sum(entry["checks"] for entry in profile.values())
        assert total_checks == runtime.detector.checks_performed, name

    # The blocking stencil only ever performs live checks; the verbs stencil
    # posts its halo puts, so its write checks are carried.
    assert profiles["stencil_blocking"]["write_live"]["checks"] > 0
    assert profiles["stencil_blocking"]["write_carried"]["checks"] == 0
    assert profiles["stencil_verbs"]["write_carried"]["checks"] > 0
    # Joins (clock merges) happen on every check path; compares only where a
    # previous access forced an ordering test.
    assert all(
        sum(entry["joins"] for entry in profile.values()) > 0
        for profile in profiles.values()
    )

    totals = {name: _profile_totals(profile) for name, profile in profiles.items()}
    _write_artifact("profiles", profiles)
    _write_artifact("totals", totals)
    record(
        benchmark,
        experiment="E11 per-check-type profile",
        **{
            f"{name}_{key}": value
            for name, total in totals.items()
            for key, value in total.items()
        },
    )


def test_epoch_fastpath_halves_compares_on_exclusive_access(benchmark):
    """The FastTrack-style payoff, pinned: the barrier-synchronized stencil
    is an exclusive-access workload (each halo cell has one writer and one
    ordered reader), so with epochs on nearly every check collapses to an
    O(1) probe.  The acceptance bar is a >= 2x reduction in full vector
    compares at byte-identical verdicts, checks and joins; the artifact
    section commits both modes' totals so the perf gate holds the ratio.
    """

    def run():
        def stencil(detector_epochs):
            return StencilWorkload(
                world_size=6, cells_per_rank=6, iterations=3, use_barriers=True,
                config=RuntimeConfig(detector_epochs=detector_epochs),
            ).run(seed=0)

        return stencil("on"), stencil("off")

    fast, slow = benchmark(run)

    # Exactness: the fast path changes no observable of the run.
    assert fast.run.race_count == slow.run.race_count == 0
    assert fast.run.final_shared_values == slow.run.final_shared_values
    assert fast.run.metrics == slow.run.metrics

    totals = {
        "epochs_on": _profile_totals(fast.run.detection_profile),
        "epochs_off": _profile_totals(slow.run.detection_profile),
    }
    assert totals["epochs_on"]["checks"] == totals["epochs_off"]["checks"]
    assert totals["epochs_on"]["joins"] == totals["epochs_off"]["joins"]
    assert totals["epochs_off"]["epoch_hits"] == 0
    assert totals["epochs_on"]["epoch_hits"] > 0
    # The acceptance bar: at least half the full vector compares are gone.
    assert totals["epochs_on"]["compares"] * 2 <= totals["epochs_off"]["compares"]
    assert totals["epochs_off"]["compares"] > 0

    _write_artifact("epoch_fastpath", totals)
    record(
        benchmark,
        experiment="E11 epoch fast path (exclusive-access stencil)",
        **{
            f"{mode}_{key}": value
            for mode, total in totals.items()
            for key, value in total.items()
        },
    )


def test_postmortem_replay_epoch_fastpath_on_large_trace(benchmark):
    """Re-tune the postmortem replay path on a large recorded trace.

    The wrapper/pre-compiler deployment route records accesses online and
    analyses them later; its detector inherits ``DetectorConfig.epochs``.
    This pins the fast path on the *offline* detector: replaying the largest
    stencil trace in the suite with epochs on must reproduce the online race
    verdict (none), match epochs-off verdicts and joins exactly, and at least
    halve the full vector compares — the same acceptance bar the online
    detector meets.  Replay totals join the gate artifact so postmortem
    analysis cost cannot silently regress.
    """
    from repro.trace.replay import TraceReplayer

    traced = StencilWorkload(
        world_size=6, cells_per_rank=10, iterations=5, use_barriers=True
    ).run(seed=0)
    recorder = traced.runtime.recorder
    accesses, syncs = recorder.accesses(), recorder.syncs()
    world_size = traced.runtime.config.world_size

    def replay_pair():
        def replay(epochs):
            return TraceReplayer(
                world_size, config=DetectorConfig(epochs=epochs)
            ).replay(accesses, syncs)

        return replay(True), replay(False)

    fast, slow = benchmark(replay_pair)

    # Offline replay reproduces the online verdict, with and without epochs.
    assert fast.race_count == slow.race_count == traced.run.race_count == 0
    assert fast.accesses_replayed == slow.accesses_replayed == len(accesses)
    assert fast.cells_touched == slow.cells_touched

    totals = {
        "epochs_on": _profile_totals(fast.detection_profile),
        "epochs_off": _profile_totals(slow.detection_profile),
    }
    # The fast path changes replay cost, never replay semantics.
    assert totals["epochs_on"]["checks"] == totals["epochs_off"]["checks"]
    assert totals["epochs_on"]["joins"] == totals["epochs_off"]["joins"]
    assert totals["epochs_off"]["epoch_hits"] == 0
    assert totals["epochs_on"]["epoch_hits"] > 0
    # Same acceptance bar as online: >= 2x fewer full vector compares.
    assert totals["epochs_on"]["compares"] * 2 <= totals["epochs_off"]["compares"]
    assert totals["epochs_off"]["compares"] > 0

    report = {
        "trace_accesses": len(accesses),
        "trace_syncs": len(syncs),
        **totals,
    }
    _write_artifact("postmortem_replay", report)
    record(
        benchmark,
        experiment="E11 postmortem replay epoch fast path (large trace)",
        trace_accesses=len(accesses),
        **{
            f"{mode}_{key}": value
            for mode, total in totals.items()
            for key, value in total.items()
        },
    )


def _write_artifact(section: str, report: dict) -> None:
    """Write one section of the gate artifact, preserving sections already
    written by other tests in this benchmark run."""
    payload = {
        "format": "repro-bench-overhead-detection",
        "version": 2,
        "check_types": [f"{k}_{p}" for k, p in CHECK_TYPES],
    }
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON, encoding="utf-8") as handle:
            existing = json.load(handle)
        if existing.get("format") == payload["format"]:
            for key, value in existing.items():
                if key not in ("format", "version", "check_types"):
                    payload[key] = value
    payload[section] = report
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

