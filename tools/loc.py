#!/usr/bin/env python3
"""The trajectory metric, defined once: physical and code-only line counts.

Every CHANGES.md entry reports how much code the tree holds; this is the one
counter those figures come from.  A *code-only* line carries at least one
token that is not a comment and is not part of a module, class or function
docstring — so blank lines, comment lines and documentation do not count,
and neither does explanation a change adds or drops.

Usage, from the repository root::

    python tools/loc.py                        # the table CI publishes
    python tools/loc.py src/repro/net/nic.py   # one row per named file
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path
from typing import Set, Tuple

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def count(path: str) -> Tuple[int, int]:
    """``(physical lines, code-only lines)`` of one Python file."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    docstring_lines: Set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    code_lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code_lines.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code_lines - docstring_lines)


def main(argv) -> int:
    package = Path("src", "repro")
    rows = argv or [
        *sorted(
            str(path) for path in package.iterdir()
            if path.is_dir() and path.name != "__pycache__"
        ),
        "src", "tests", "tools",
    ]
    print(f"| {'path':<24} | physical | code-only |")
    print(f"|{'-' * 26}|---------:|----------:|")
    for row in rows:
        files = [row] if os.path.isfile(row) else Path(row).rglob("*.py")
        totals = [count(str(path)) for path in files]
        physical, code = (sum(total[i] for total in totals) for i in (0, 1))
        print(f"| {row:<24} | {physical:>8} | {code:>9} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
