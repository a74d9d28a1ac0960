#!/usr/bin/env python3
"""Host-time benchmark of the simulator, end to end and layer by layer.

Two ways to run it, both from the repository root:

``python3 benchmarks/wallclock/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process (closed loop, one thread): set-up, one
    untimed warm-up repetition, then repetitions for ``S`` seconds, each
    bracketed by the calibration kernel.  ``--trace 0`` reports the
    end-to-end metrics, ``--trace 1`` the per-layer ones from repetitions run
    under the profiler plus the isolated micro pass.  The last line of
    standard output is one JSON object: ``correct``, ``attempted``,
    ``failed``, ``metrics``.

``python3 benchmarks/wallclock/run.py --seed N --out FILE``
    Every workload, each run in its own subprocess so set-up time and peak
    memory are per workload: three interleaved untraced runs
    (A B C D, A B C D, ...) so a noisy period does not land on one workload
    only, then one traced run each.  Writes the pooled report ``compare.py``
    reads.

See README.md beside this file for the metric definitions.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import collections
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")

#: As in workloads.all_workloads(), which cannot be imported before ``repro``.
WORKLOAD_NAMES = ("run_blocking", "run_posted", "campaign_fuzz", "replay_postmortem")

#: (name, unit, better, bound): what a user of the library pays.
END_TO_END = (
    ("wall_cu", "cu", "lower", 0.20),
    ("accesses_per_cu", "1/cu", "higher", 0.20),
    ("schedules_per_cu", "1/cu", "higher", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Exact counts read from the public result objects: (name, unit, better).
EXACT_COUNTS = (
    ("sim.events", "count", "lower"),
    ("sim.elapsed_sim_time", "simtime", "lower"),
    ("net.messages", "count", "lower"),
    ("net.bytes", "bytes", "lower"),
    ("net.clock_bytes", "bytes", "lower"),
    ("core.checks", "count", "lower"),
    ("core.compares", "count", "lower"),
    ("core.joins", "count", "lower"),
    ("core.epoch_hits", "count", "higher"),
    ("core.epoch_hit_ratio", "ratio", "higher"),
    ("core.races", "count", "lower"),
    ("explore.schedules", "count", "higher"),
    ("explore.distinct_fingerprints", "count", "higher"),
    ("explore.dedup_ratio", "ratio", "higher"),
    ("explore.decisions", "count", "lower"),
)

#: Interleaved untraced runs of each workload when every workload is run.
ROUNDS = 3
SETUP_PROBES = 3
#: ``setup_s`` is set-up cost in calibration units, shown as the seconds it
#: takes on a machine where one ``cu`` lasts this long (about this sandbox).
NOMINAL_CU_S = 0.1
#: A traced run first takes up to this many untraced repetitions, within
#: this share of ``--seconds``, for the overhead ratio and the host figures...
UNTRACED_REPS = 3
UNTRACED_SHARE = 0.2
#: ...then profiles repetitions until this share of ``--seconds`` has gone;
#: the micro pass takes the rest.
TRACED_SHARE = 0.75
NOISY_DRIFT = 1.15


def per_layer_spec():
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    import layers
    import micro

    spec = []
    for layer in layers.LAYERS:
        spec += [
            (f"{layer}.self_cu", "cu", "lower"),
            (f"{layer}.self_share", "ratio", "lower"),
            (f"{layer}.calls", "count", "lower"),
        ]
    spec.append(("trace_overhead_ratio", "ratio", "lower"))
    for boundary in layers.BOUNDARIES:
        spec += [(f"{boundary}.calls", "count", "lower"), (f"{boundary}.incl_us", "us", "lower")]
    spec += EXACT_COUNTS
    spec += [
        ("net.msgs_per_access", "ratio", "lower"),
        ("sim.events_per_cu", "1/cu", "higher"),
        ("net.msgs_per_cu", "1/cu", "higher"),
    ]
    spec += [(name, "ns", "lower") for name in micro.MICROS]
    spec += [
        ("host.calib_s", "s", "lower"),
        ("host.calib_drift", "ratio", "lower"),
        ("host.wall_s", "s", "lower"),
        ("host.accesses_per_s", "1/s", "higher"),
        ("host.schedules_per_s", "1/s", "higher"),
        ("host.import_s", "s", "lower"),
    ]
    return spec


#: What one profiled repetition measured (see layers.py).
TracedRepetition = collections.namedtuple(
    "TracedRepetition", "wall_cu calib_s layer_s layer_calls boundaries"
)


def _boundary_calls(repetition):
    return {name: cost and cost[0] for name, cost in repetition.boundaries.items()}


def _print_row(name, value, unit, samples=()):
    """One metric by name with its unit (and its quartiles, given samples)."""
    text = "null" if value is None else format(value, ".6g")
    note = ""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        note = f"  (q1 {q1:.6g}, q3 {q3:.6g}, n {len(samples)})"
    print(f"{name:34s} {text:>14s} {unit}{note}")


# --------------------------------------------------------------------------
# One workload, in this process
# --------------------------------------------------------------------------


class Repetitions:
    """Runs repetitions of one workload and keeps what each one measured."""

    def __init__(self, workload, calibrate):
        self.workload = workload
        self.calibrate = calibrate
        self.reference = None  # Outcome of repetition 0 (the warm-up)
        self.attempted = 0
        self.failed = 0
        self.wall_s = []
        self.wall_cu = []
        self.calib_s = []

    def run(self, call=None):
        """One repetition bracketed by calibration; returns what *call* returned.

        *call* defaults to the workload's timed section; a traced run passes a
        wrapper that profiles it and returns ``(result, extra)``.  A
        repetition that raises, or whose outputs are wrong, counts as failed
        and contributes no timing.
        """
        if not self.calib_s:
            self.calib_s.append(self.calibrate())
        gc.collect()
        self.attempted += 1
        extra = None
        try:
            start = time.perf_counter()
            result = (call or self.workload.timed)()
            elapsed = time.perf_counter() - start
            if call is not None:
                result, extra = result
            outcome = self.workload.inspect(result)
            problems = list(outcome.problems)
            if self.reference is None:
                self.reference = outcome
            elif outcome.digest != self.reference.digest:
                problems.append(
                    f"sim_digest {outcome.sim_digest} differs from repetition 0 "
                    f"({self.reference.sim_digest})"
                )
        except Exception:  # a failed repetition is counted, not fatal
            traceback.print_exc()
            problems = ["raised"]
        self.calib_s.append(self.calibrate())
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"repetition {self.attempted - 1} failed: {problem}", file=sys.stderr)
            return None
        self.wall_s.append(elapsed)
        self.wall_cu.append(elapsed / statistics.fmean(self.calib_s[-2:]))
        return extra

    def warm_up(self):
        """Repetition 0: untimed, fills caches, fixes the reference digest."""
        self.run()
        self.attempted, self.wall_s, self.wall_cu = 0, [], []
        self.calib_s = self.calib_s[-1:]

    @property
    def calib_drift(self):
        """Later half of the calibrations over the earlier half (medians).

        One calibration is itself noisy, so a plain last / first would flag
        every run; the halves' medians move only when the machine really
        changed speed while the run was measuring.
        """
        half = max(1, len(self.calib_s) // 2)
        return statistics.median(self.calib_s[-half:]) / statistics.median(self.calib_s[:half])


def _load_workload(name):
    """Import the program under test; returns (workload, import seconds)."""
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        sys.exit(f"error: the program under test is missing: {SOURCE}/repro")
    sys.path.insert(0, SOURCE)
    start = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - start
    by_name = {workload.name: workload for workload in workloads.all_workloads()}
    return by_name[name], import_s


def _setup_probes(args):
    """Set-up of fresh processes doing what this one just did: (raw s, cu s) each."""
    samples = []
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]  # fmt: skip
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
        raw, calib = done.stdout.split()[-2:]
        samples.append((float(raw), float(calib)))
    return samples


def _measure_end_to_end(args, reps, setup_samples):
    deadline = time.perf_counter() + args.seconds
    while True:
        reps.run()
        done = reps.attempted >= 2 if args.quick else time.perf_counter() >= deadline
        if done:
            break
    if not reps.wall_cu:
        return {}, {}
    accesses, schedules = reps.reference.accesses, reps.reference.schedules
    samples = {
        "wall_cu": reps.wall_cu,
        "accesses_per_cu": [accesses / cu for cu in reps.wall_cu],
        "schedules_per_cu": [schedules / cu for cu in reps.wall_cu],
        "setup_s": [NOMINAL_CU_S * raw / calib for raw, calib in setup_samples],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    values = {name: statistics.median(values) for name, values in samples.items()}
    return values, samples


def _traced_values(traced, untraced_wall_cu):
    """Per-layer and boundary metrics of the profiled repetitions.

    Times are medians over the repetitions; call counts are the first one's
    (they repeat exactly -- a warning says so when they do not).
    """
    first = traced[0]
    for number, repetition in enumerate(traced[1:], start=1):
        if (repetition.layer_calls, _boundary_calls(repetition)) != (
            first.layer_calls,
            _boundary_calls(first),
        ):
            print(f"warning: call counts of traced repetition {number} differ", file=sys.stderr)

    values = {}
    for layer in first.layer_s:
        values[f"{layer}.self_cu"] = statistics.median(
            rep.layer_s[layer] / rep.calib_s for rep in traced
        )
        values[f"{layer}.self_share"] = statistics.median(
            rep.layer_s[layer] / sum(rep.layer_s.values()) for rep in traced
        )
        values[f"{layer}.calls"] = first.layer_calls[layer]
    values["trace_overhead_ratio"] = statistics.median(rep.wall_cu for rep in traced) / untraced_wall_cu
    for boundary in first.boundaries:
        if first.boundaries[boundary] is None:
            values[f"{boundary}.calls"] = values[f"{boundary}.incl_us"] = None
            continue
        calls = first.boundaries[boundary][0]
        values[f"{boundary}.calls"] = calls
        values[f"{boundary}.incl_us"] = statistics.median(
            1e6 * rep.boundaries[boundary][1] / max(1, calls) for rep in traced
        )
    return values


def _measure_per_layer(args, reps, import_s):
    import layers
    import micro

    resolved = layers.resolve_boundaries()
    start = time.perf_counter()
    while True:
        reps.run()
        spent = time.perf_counter() - start
        if args.quick or reps.attempted >= UNTRACED_REPS or spent >= UNTRACED_SHARE * args.seconds:
            break
    untraced_cu, untraced_s = list(reps.wall_cu), list(reps.wall_s)
    if not untraced_cu:
        return {}

    traced = []
    while True:
        stats = reps.run(lambda: layers.profile_call(reps.workload.timed))
        if stats is not None:
            layer_s, layer_calls = layers.attribute(stats)
            traced.append(
                TracedRepetition(
                    wall_cu=reps.wall_cu[-1],
                    calib_s=statistics.fmean(reps.calib_s[-2:]),
                    layer_s=layer_s,
                    layer_calls=layer_calls,
                    boundaries=layers.boundary_costs(stats, resolved),
                )
            )
        if args.quick or time.perf_counter() - start >= TRACED_SHARE * args.seconds:
            break
    if not traced:
        return {}
    wall_cu = statistics.median(untraced_cu)
    values = _traced_values(traced, wall_cu)

    outcome = reps.reference
    for name, _unit, _better in EXACT_COUNTS:
        values[name] = outcome.counts.get(name, 0)
    values["net.msgs_per_access"] = values["net.messages"] / outcome.accesses
    values["sim.events_per_cu"] = values["sim.events"] / wall_cu
    values["net.msgs_per_cu"] = values["net.messages"] / wall_cu
    values.update(micro.run_micro_pass(100 if args.quick else 2000))
    wall_s = statistics.median(untraced_s)
    values["host.calib_s"] = statistics.median(reps.calib_s)
    values["host.calib_drift"] = reps.calib_drift
    values["host.wall_s"] = wall_s
    values["host.accesses_per_s"] = outcome.accesses / wall_s
    values["host.schedules_per_s"] = outcome.schedules / wall_s
    values["host.import_s"] = import_s
    return values


def run_workload(args):
    """The driver-facing mode: one workload, one JSON result line."""
    workload, import_s = _load_workload(args.workload)
    workload.setup(args.seed, args.quick)
    setup_raw_s = time.perf_counter() - _PROCESS_START

    import calibration

    # The smoke test wants speed, not steadiness: one kernel execution each.
    calibrate = functools.partial(calibration.calibrate, 1) if args.quick else calibration.calibrate
    setup_samples = [(setup_raw_s, calibrate())]
    if args.setup_probe:
        print("setup %r %r" % setup_samples[0])
        return 0
    if not (args.quick or args.trace):  # a traced run does not report setup_s
        setup_samples += _setup_probes(args)
    reps = Repetitions(workload, calibrate)
    reps.warm_up()
    if reps.reference is None:
        sys.exit("error: the warm-up repetition failed; nothing to measure")
    samples = {}
    if args.trace:
        spec = per_layer_spec()
        values = _measure_per_layer(args, reps, import_s)
    else:
        spec = [entry[:3] for entry in END_TO_END]
        values, samples = _measure_end_to_end(args, reps, setup_samples)
    if not values:
        sys.exit("error: every repetition failed; nothing to report")

    print(
        f"# {workload.name} seed {args.seed} trace {args.trace}: "
        f"{reps.attempted} repetitions, {reps.failed} failed, "
        f"calib_drift {reps.calib_drift:.3f}, sim_digest {reps.reference.sim_digest}"
    )
    metrics = {}
    for name, unit, _better in spec:
        value = values[name]
        _print_row(name, value, unit, samples.get(name, ()))
        # The result line carries numbers only; an unresolved name reads 0
        # there and null in the detail line (a warning went to stderr).
        metrics[name] = {"value": 0 if value is None else value, "unit": unit}
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "sim_digest": reps.reference.sim_digest,
        "calib_drift": reps.calib_drift,
        "samples": samples,
        "raw": {
            "wall_s": reps.wall_s,
            "calib_s": reps.calib_s,
            "setup_s": [raw for raw, _calib in setup_samples],
        },
        "unresolved": [name for name, value in values.items() if value is None],
    }
    print("detail " + json.dumps(detail))
    result = {
        "correct": reps.failed == 0,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if reps.failed == 0 else 1


# --------------------------------------------------------------------------
# Every workload, each in its own subprocess
# --------------------------------------------------------------------------


def _run_child(args, workload, trace):
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=175)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail "):
        raise SystemExit(f"error: {workload} (trace {trace}) printed no result:\n{done.stdout}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("detail "):])
    return result


def run_all(args):
    """Interleaved rounds of every workload, then one traced run of each."""
    round_count = 1 if args.quick else ROUNDS
    rounds = {name: [] for name in WORKLOAD_NAMES}
    for number in range(round_count):
        for name in WORKLOAD_NAMES:
            print(f"round {number + 1}/{round_count}: {name}", file=sys.stderr)
            rounds[name].append(_run_child(args, name, trace=0))
    report = {
        "schema": 1,
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "rounds": round_count,
        "workloads": {},
    }
    for name in WORKLOAD_NAMES:
        print(f"traced: {name}", file=sys.stderr)
        traced = _run_child(args, name, trace=1)
        runs = rounds[name] + [traced]
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        end_to_end = {}
        for metric, unit, _better, _bound in END_TO_END:
            pooled = [
                sample for run in rounds[name] for sample in run["detail"]["samples"][metric]
            ]
            end_to_end[metric] = {
                "value": max(pooled) if metric == "peak_rss_mb" else statistics.median(pooled),
                "unit": unit,
                "samples": pooled,
            }
        per_layer = dict(traced["metrics"])
        for unresolved in traced["detail"]["unresolved"]:
            per_layer[unresolved]["value"] = None
        # How far the machine's speed moved inside a run, either way; the
        # median round decides, so one bad round does not void the report.
        drift = statistics.median(
            max(run["detail"]["calib_drift"], 1 / run["detail"]["calib_drift"])
            for run in rounds[name]
        )
        report["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "sim_digest": sorted({run["detail"]["sim_digest"] for run in runs}),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "calib_drift": drift,
            "noisy": drift > NOISY_DRIFT,
        }

    for name, entry in report["workloads"].items():
        print(
            f"\n## {name}: {entry['attempted']} repetitions, failed_share "
            f"{entry['failed_share']:g}, sim_digest {' '.join(entry['sim_digest'])}"
            + (", NOISY (calib_drift %.2f)" % entry["calib_drift"] if entry["noisy"] else "")
        )
        for metric, cell in entry["end_to_end"].items():
            _print_row(metric, cell["value"], cell["unit"], cell["samples"])
        for metric, cell in entry["per_layer"].items():
            _print_row(metric, cell["value"], cell["unit"])
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if any(entry["failed"] for entry in report["workloads"].values()) else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="omit to run all four")
    parser.add_argument("--seed", type=int, default=0, help="the only source of workload inputs")
    parser.add_argument("--seconds", type=float, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, 2 repetitions (smoke test)")
    parser.add_argument("--out", help="write the pooled report here when running all")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_probe:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            args.seconds = float(json.load(handle)["run_seconds"])
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
