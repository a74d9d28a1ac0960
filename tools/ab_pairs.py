#!/usr/bin/env python3
"""Paired A/B host-time comparison of two source trees.

Runs ``benchmarks/wallclock/run.py`` alternately in two checkouts — the
parent and the change — swapping which tree runs first in each pair, so a
slow period of a shared machine lands on both sides.  Every run reports all
of the benchmark's end-to-end metrics (``end_to_end`` in ``BENCHMARK.json``
beside this tool), and the tool keeps them all: it prints each pair's ratio
per metric and, per metric, the win count, the median ratio and the
medians next to the spread (interquartile range) of the parent's own runs.
One set of pairs thus answers both "did the claimed metric gain" and "did
any other metric get worse".

Usage, from anywhere::

    python3 tools/ab_pairs.py PARENT CHANGE --workload W \\
        [--seed S] [--pairs N] [--seconds T] [--quick]

A ratio above 1 means the change is better, whatever the metric's
direction.  Exits 1 when a repetition failed, a run printed no result, or
the two trees report different ``sim_digest``s — a speed-only change must
simulate the same thing.  An A/A
run (``PARENT`` and ``CHANGE`` the same tree) is the noise floor.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join("benchmarks", "wallclock", "run.py")


class Run(NamedTuple):
    """What one harness invocation reported."""

    values: Dict[str, float]
    sim_digest: str
    failed: int


def metric_directions(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> Dict[str, str]:
    """``metric -> "higher" | "lower"`` for each end-to-end metric, in declared order."""
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def parse_output(stdout: str, metrics: Sequence[str]) -> Run:
    """Read the harness's last two lines, ``detail {...}`` and the result,
    keeping the value of every one of *metrics*."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail "):
        raise ValueError("the harness printed no result")
    detail = json.loads(lines[-2][len("detail "):])
    result = json.loads(lines[-1])
    missing = [name for name in metrics if name not in result["metrics"]]
    if missing:
        raise ValueError(f"the harness reported no {', '.join(map(repr, missing))}")
    values = {name: result["metrics"][name]["value"] for name in metrics}
    return Run(values, detail["sim_digest"], result["failed"])


def run_tree(tree: str, args: argparse.Namespace) -> Run:
    """One harness run in *tree* (its own ``src`` is what gets measured)."""
    command = [
        sys.executable, HARNESS, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    try:
        return parse_output(done.stdout, list(metric_directions()))
    except ValueError as error:
        raise SystemExit(f"error: {tree}: {error}\n{done.stderr}") from None


def ratio(parent: float, change: float, better: str) -> float:
    """Above 1 when *change* beats *parent* in the metric's direction."""
    return change / parent if better == "higher" else parent / change


def summarize(parents: Sequence[float], changes: Sequence[float], better: str) -> List[str]:
    """One metric's closing lines: wins, median ratio, and the medians'
    distance next to the interquartile range of the parent's own runs."""
    ratios = [ratio(p, c, better) for p, c in zip(parents, changes)]
    wins = sum(r > 1.0 for r in ratios)
    lines = [
        f"wins {wins}/{len(ratios)}, median ×{statistics.median(ratios):.3f} "
        f"(range ×{min(ratios):.3f}–×{max(ratios):.3f})"
    ]
    if len(parents) >= 2:
        q1, _, q3 = statistics.quantiles(parents, n=4, method="inclusive")
        lines.append(
            f"medians: parent {statistics.median(parents):.6g}, change "
            f"{statistics.median(changes):.6g}; parent interquartile range "
            f"{q3 - q1:.6g} ({better} is better)"
        )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--quick", action="store_true", help="the harness's smoke sizes")
    args = parser.parse_args(argv)
    directions = metric_directions()

    parents: List[Run] = []
    changes: List[Run] = []
    digests = set()
    failed = 0
    for number in range(args.pairs):
        order = ("parent", "change") if number % 2 == 0 else ("change", "parent")
        runs = {side: run_tree(getattr(args, side), args) for side in order}
        parent, change = runs["parent"], runs["change"]
        parents.append(parent)
        changes.append(change)
        digests.update((parent.sim_digest, change.sim_digest))
        failed += parent.failed + change.failed
        paired = "  ".join(
            f"{name} ×{ratio(parent.values[name], change.values[name], better):.3f}"
            for name, better in directions.items()
        )
        print(f"pair {number + 1:2d} ({order[0]} first): {paired}", flush=True)
    for name, better in directions.items():
        print(f"{name}:")
        for line in summarize(
            [run.values[name] for run in parents],
            [run.values[name] for run in changes],
            better,
        ):
            print(f"  {line}")
    status = 0
    if len(digests) != 1:
        print(f"error: the trees simulate differently: sim_digest {sorted(digests)}")
        status = 1
    if failed:
        print(f"error: {failed} repetition(s) failed")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
