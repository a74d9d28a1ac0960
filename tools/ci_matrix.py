#!/usr/bin/env python3
"""Declarative generator for CI's ``--expect-consistent`` knob matrix.

Every consistency-relevant runtime knob is declared ONCE, in
:data:`repro.runtime.knobs.KNOBS` (flag, matrix values and the extra flags a
value requires).  From that registry this script derives the campaign
invocations CI runs:

* **full-cartesian islands** for the knob pairs with known interaction
  risk (:data:`HIGH_RISK_PAIRS`) — e.g. the UD service level must repair
  *every* clock wire format, not just the one a covering row happened to
  pair it with — with the other high-risk knobs pinned to their defaults;
* a deterministic greedy **pairwise covering array** built on top of the
  islands — every value of every knob meets every value of every other
  knob in at least one row, at a fraction of the full cartesian product's
  cost.  The knobs no high-risk pair names are chosen greedily inside the
  island rows too, so the islands do most of the covering.

The generated block lives between the ``ci-matrix:begin`` / ``ci-matrix:end``
markers inside ``.github/workflows/ci.yml``.  CI regenerates it and fails on
drift, so the workflow can never quietly fall out of sync with the registry:
adding a knob value there is the ONLY move needed to extend the matrix.

Usage (with ``repro`` importable: ``pip install -e .`` or ``PYTHONPATH=src``)::

    python tools/ci_matrix.py            # print the generated command block
    python tools/ci_matrix.py --stats    # row counts + coverage proof
    python tools/ci_matrix.py --check    # exit 1 if ci.yml drifted
    python tools/ci_matrix.py --write    # rewrite the block in ci.yml
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.knobs import KNOBS, Knob

BEGIN_MARKER = "# --- ci-matrix:begin"
END_MARKER = "# --- ci-matrix:end"
DEFAULT_WORKFLOW = os.path.join(".github", "workflows", "ci.yml")

#: The patterns every matrix row explores: cheap, robustly racy, and flagged
#: in 100% of schedules under every knob combination (the every-schedule
#: guarantee the rows assert via ``--expect-consistent``).
PATTERNS = ("fig5a-concurrent-puts", "write-after-read-unsync")


#: Knob pairs whose interaction is risky enough to deserve the FULL
#: cartesian product (other knobs at defaults), not just pairwise contact:
#:
#: * ``clock_transport x clock_wire`` — wire formats are only truly
#:   exercised by the sparse transport; the dense one must stay equivalent
#:   under every format too;
#: * ``transport x clock_wire`` — receiver-driven UD resync must rebuild
#:   receiver clock state for every wire format it can be dropped under.
HIGH_RISK_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("clock_transport", "clock_wire"),
    ("transport", "clock_wire"),
)


def _pair(i: int, vi: str, j: int, vj: str) -> Tuple[int, str, int, str]:
    return (i, vi, j, vj) if i < j else (j, vj, i, vi)


def all_pairs(knobs: Sequence[Knob]) -> set:
    """Every (knob value, other knob value) pair the array must cover."""
    pairs = set()
    for i, a in enumerate(knobs):
        for j in range(i + 1, len(knobs)):
            b = knobs[j]
            for vi in a.matrix_values:
                for vj in b.matrix_values:
                    pairs.add(_pair(i, vi, j, vj))
    return pairs


def covering_rows(
    knobs: Optional[Sequence[Knob]] = None,
    pinned: Sequence[Dict[str, str]] = (),
) -> List[Dict[str, str]]:
    """Greedy deterministic pairwise covering array (AETG-style).

    One row per *pinned* cell comes first: the cell's values are kept and
    the knobs it leaves open are chosen like any other row's.  Rows follow
    until every pair is covered.  Each open knob is filled in registry
    order, choosing the value that covers the most still-uncovered pairs
    against the values already placed in the row (ties broken by registry
    value order, so the output is a pure function of the registry).
    """
    knobs = KNOBS if knobs is None else knobs
    index = {knob.name: i for i, knob in enumerate(knobs)}
    cells = [{index[name]: value for name, value in cell.items()} for cell in pinned]
    uncovered = all_pairs(knobs)
    rows: List[Dict[str, str]] = []
    while cells or uncovered:
        fixed = cells.pop(0) if cells else {}
        row: Dict[int, str] = dict(fixed)
        for i, knob in enumerate(knobs):
            if i in row:
                continue
            best_value, best_gain = knob.matrix_values[0], -1
            for value in knob.matrix_values:
                gain = sum(
                    1
                    for j, other in row.items()
                    if _pair(i, value, j, other) in uncovered
                )
                # Tie-break toward values still starved of coverage overall.
                gain = gain * 1000 + sum(
                    1
                    for pair in uncovered
                    if (pair[0] == i and pair[1] == value)
                    or (pair[2] == i and pair[3] == value)
                )
                if gain > best_gain:
                    best_value, best_gain = value, gain
            row[i] = best_value
        newly = {
            _pair(i, row[i], j, row[j])
            for i in row
            for j in row
            if i < j
        }
        if not fixed and not (newly & uncovered):  # pragma: no cover - greedy always gains
            break
        uncovered -= newly
        rows.append({knobs[i].name: row[i] for i in sorted(row)})
    return rows


def island_rows(knobs: Optional[Sequence[Knob]] = None) -> List[Dict[str, str]]:
    """Full cartesian product for each high-risk pair, as pinned cells.

    A cell sets its pair and pins every other knob some high-risk pair
    names to its default; the knobs no high-risk pair names stay open.
    Duplicates are removed in order.
    """
    knobs = KNOBS if knobs is None else knobs
    by_name = {knob.name: knob for knob in knobs}
    risky = [
        knob.name
        for knob in knobs
        if any(knob.name in pair for pair in HIGH_RISK_PAIRS)
    ]
    rows: List[Dict[str, str]] = []
    for a_name, b_name in HIGH_RISK_PAIRS:
        a, b = by_name[a_name], by_name[b_name]
        for va in a.matrix_values:
            for vb in b.matrix_values:
                row = {name: by_name[name].matrix_values[0] for name in risky}
                row[a.name] = va
                row[b.name] = vb
                if row not in rows:
                    rows.append(row)
    return rows


def matrix_rows(knobs: Optional[Sequence[Knob]] = None) -> List[Dict[str, str]]:
    """The island rows, then covering rows for the pairs they leave."""
    knobs = KNOBS if knobs is None else knobs
    return covering_rows(knobs, pinned=island_rows(knobs))


def row_command(row: Dict[str, str], knobs: Optional[Sequence[Knob]] = None) -> str:
    """The one-line campaign invocation asserting a row's consistency.

    UD rows fuzz (drop/duplicate rates only apply to fuzzed schedules, and
    the fuzzer's default reorder probability keeps stretching flights);
    RC rows search systematically.
    """
    knobs = KNOBS if knobs is None else knobs
    tokens = ["python", "-m", "repro.explore", "--patterns", *PATTERNS]
    if row.get("transport") == "ud":
        tokens += ["--strategy", "fuzz", "--budget", "4", "--quantum", "4.0"]
    else:
        tokens += ["--strategy", "systematic", "--budget", "3", "--quantum", "4.0"]
    for knob in knobs:
        value = row[knob.name]
        tokens += [knob.flag, value]
        tokens += list(knob.extra_flags.get(value, ()))
    tokens.append("--expect-consistent")
    return " ".join(tokens)


def render_block(knobs: Optional[Sequence[Knob]] = None) -> List[str]:
    """The generated command lines (no indentation, no markers)."""
    knobs = KNOBS if knobs is None else knobs
    rows = matrix_rows(knobs)
    islands = len(island_rows(knobs))
    lines = [
        f"# {len(rows)} rows over {len(knobs)} knobs: {islands} island rows "
        "(full cartesian of the high-risk pairs),",
        f"# then {len(rows) - islands} more until every pair of values has met.",
    ]
    lines.extend(row_command(row, knobs) for row in rows)
    return lines


def _find_block(lines: List[str]) -> Tuple[int, int, str]:
    """Locate the generated block; returns (begin_idx, end_idx, indent)."""
    begin = end = None
    for index, line in enumerate(lines):
        if BEGIN_MARKER in line:
            begin = index
        elif END_MARKER in line:
            end = index
    if begin is None or end is None or end <= begin:
        raise SystemExit(
            f"markers {BEGIN_MARKER!r}/{END_MARKER!r} not found (or out of "
            f"order) in the workflow — re-add the generated block"
        )
    indent = lines[begin][: len(lines[begin]) - len(lines[begin].lstrip())]
    return begin, end, indent


def generate_workflow(workflow_text: str) -> str:
    """The workflow with the generated block refreshed from the registry."""
    lines = workflow_text.splitlines()
    begin, end, indent = _find_block(lines)
    generated = [indent + line for line in render_block()]
    return "\n".join(lines[: begin + 1] + generated + lines[end:]) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workflow",
        default=DEFAULT_WORKFLOW,
        help=f"workflow file holding the generated block "
        f"(default: {DEFAULT_WORKFLOW})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 (with a diff) if the workflow's generated block "
        "drifted from the registry",
    )
    parser.add_argument(
        "--write", action="store_true", help="rewrite the workflow's block"
    )
    parser.add_argument(
        "--stats", action="store_true", help="print row counts and coverage"
    )
    args = parser.parse_args(argv)

    if args.stats:
        rows = matrix_rows()
        cartesian = 1
        for knob in KNOBS:
            cartesian *= len(knob.matrix_values)
        print(f"knobs:            {len(KNOBS)}")
        print(f"full cartesian:   {cartesian} rows")
        print(f"island rows:      {len(island_rows())}")
        print(f"pairwise alone:   {len(covering_rows())} rows")
        print(f"generated rows:   {len(rows)}")
        covered = set()
        index = {knob.name: i for i, knob in enumerate(KNOBS)}
        for row in rows:
            for a, va in row.items():
                for b, vb in row.items():
                    if index[a] < index[b]:
                        covered.add(_pair(index[a], va, index[b], vb))
        missing = all_pairs(KNOBS) - covered
        print(f"pair coverage:    {'complete' if not missing else missing}")
        return 0

    if args.check or args.write:
        with open(args.workflow) as handle:
            current = handle.read()
        regenerated = generate_workflow(current)
        if args.write:
            if regenerated != current:
                with open(args.workflow, "w") as handle:
                    handle.write(regenerated)
                print(f"updated {args.workflow}")
            else:
                print(f"{args.workflow} already up to date")
            return 0
        if regenerated != current:
            print(
                f"{args.workflow} drifted from tools/ci_matrix.py — "
                f"regenerate with: python tools/ci_matrix.py --write"
            )
            sys.stdout.writelines(
                difflib.unified_diff(
                    current.splitlines(keepends=True),
                    regenerated.splitlines(keepends=True),
                    fromfile=f"{args.workflow} (committed)",
                    tofile=f"{args.workflow} (regenerated)",
                )
            )
            return 1
        print(f"{args.workflow} matches the registry")
        return 0

    print("\n".join(render_block()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
