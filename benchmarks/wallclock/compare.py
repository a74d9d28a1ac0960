#!/usr/bin/env python3
"""Compare two reports written by ``run.py --out``: ``compare.py A.json B.json``.

For every end-to-end metric and workload -- one row per workload, never a
combined score -- print how much worse B's median is than A's, as a share of
A's, against the bound ``BENCHMARK.json`` fixes for that metric.  Also checks
what must not move at all: ``failed_share`` stays 0, and ``sim_digest`` and
every simulated count read from the result objects are identical, so a
speed-only change can show it left every simulated statistic alone.  Call
counts (``*.calls``) repeat exactly too, but an optimisation moves them on
purpose: a difference is listed, not failed.

A run whose ``calib_drift`` exceeded 1.15 is flagged ``noisy``: its timings
are reported but decide nothing; run it again.

Exit status 0 when nothing regressed and nothing exact moved (the A/A
criterion), 1 otherwise.
"""

import json
import os
import sys

import run

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")

#: Simulated statistics: fixed by the seed, whatever the host does.
SIMULATED = [name for name, _unit, _better in run.EXACT_COUNTS] + ["net.msgs_per_access"]


def worse_by(metric, before, after):
    """How much worse *after* is than *before*, as a share of *before*."""
    if metric["better"] == "lower":
        return (after - before) / before
    return (before - after) / before


def moved(a, b, metrics):
    """The per-layer *metrics* whose values differ between two workload entries."""
    return [
        f"{metric} {a['per_layer'][metric]['value']} -> {b['per_layer'][metric]['value']}"
        for metric in metrics
        if a["per_layer"][metric]["value"] != b["per_layer"][metric]["value"]
    ]


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.strip().splitlines()[0])
    with open(argv[0]) as handle:
        first = json.load(handle)
    with open(argv[1]) as handle:
        second = json.load(handle)
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    same_inputs = (first["seed"], first["quick"]) == (second["seed"], second["quick"])

    failures = 0
    print(f"{'metric':18s} {'workload':18s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>6s}  verdict")
    for metric in spec["end_to_end"]:
        for workload in spec["workloads"]:
            name = workload["name"]
            a, b = first["workloads"][name], second["workloads"][name]
            before = a["end_to_end"][metric["name"]]["value"]
            after = b["end_to_end"][metric["name"]]["value"]
            delta = worse_by(metric, before, after)
            if a["noisy"] or b["noisy"]:
                verdict = "noisy"
            elif delta > metric["bound"]:
                verdict = "REGRESSED"
                failures += 1
            else:
                verdict = "ok"
            print(
                f"{metric['name']:18s} {name:18s} {before:12.5g} {after:12.5g} "
                f"{delta:+9.1%} {metric['bound']:6.0%}  {verdict}"
            )

    call_counts = [m["name"] for m in spec["per_layer"] if m["name"].endswith(".calls")]
    print()
    for workload in spec["workloads"]:
        name = workload["name"]
        a, b = first["workloads"][name], second["workloads"][name]
        notes = []
        for side, entry in (("A", a), ("B", b)):
            if entry["failed"]:
                notes.append(f"{side} failed_share {entry['failed_share']:g}")
            if len(entry["sim_digest"]) != 1:
                notes.append(f"{side} sim_digest varies between runs")
        if same_inputs:
            if a["sim_digest"] != b["sim_digest"]:
                notes.append(f"sim_digest {a['sim_digest']} != {b['sim_digest']}")
            notes += moved(a, b, SIMULATED)
        failures += len(notes)
        status = "; ".join(notes) if notes else (
            f"failed_share 0, sim_digest {a['sim_digest'][0]} and "
            f"{len(SIMULATED)} simulated counts identical"
            if same_inputs
            else "failed_share 0 (different seeds: digests and counts not compared)"
        )
        print(f"{name:18s} {status}")
        if same_inputs:
            calls = moved(a, b, call_counts)
            print(f"{'':18s} call counts: " + ("; ".join(calls) if calls else "identical"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
