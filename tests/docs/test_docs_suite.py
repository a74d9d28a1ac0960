"""The docs can't rot: every ``python`` code block runs, every link resolves.

Conventions enforced here (and relied on by the CI docs job):

* every fenced ```` ```python ```` block in ``README.md`` and ``docs/*.md``
  must be self-contained and executable as written — fragments belong in
  ```` ```text ```` fences;
* every relative markdown link must point at an existing file (or directory),
  and a ``#fragment`` on a markdown target must match one of its headings.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.name,
)

FENCE = re.compile(r"^```(\w*)\s*$")
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def extract_blocks(path, language):
    """Yield (start_line, source) for each fenced block of *language*."""
    blocks = []
    lines = path.read_text().splitlines()
    inside, start, buffer = False, 0, []
    for number, line in enumerate(lines, start=1):
        fence = FENCE.match(line)
        if fence and not inside:
            inside, start, buffer = fence.group(1) == language, number, []
            continue
        if line.strip() == "```" and inside is not False:
            if inside is True:
                blocks.append((start, "\n".join(buffer)))
            inside = False
            continue
        if inside is True:
            buffer.append(line)
    return blocks


def github_anchor(heading):
    """GitHub's anchor slug: lowercase, punctuation stripped, spaces->dashes."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\sÀ-￿-]", "", slug)
    return re.sub(r"\s", "-", slug)


def doc_ids():
    return [path.relative_to(REPO_ROOT).as_posix() for path in DOC_FILES]


@pytest.mark.parametrize("doc", DOC_FILES, ids=doc_ids())
def test_every_python_block_executes(doc):
    blocks = extract_blocks(doc, "python")
    for start, source in blocks:
        namespace = {"__name__": f"doc_block_{doc.stem}_{start}"}
        try:
            exec(compile(source, f"{doc.name}:{start}", "exec"), namespace)
        except Exception as error:  # pragma: no cover - the message is the point
            pytest.fail(
                f"{doc.relative_to(REPO_ROOT)} line {start}: code block "
                f"raised {type(error).__name__}: {error}"
            )


def test_readme_and_docs_actually_contain_examples():
    """The executable-docs guarantee is vacuous if nothing is executable."""
    counted = {
        doc.name: len(extract_blocks(doc, "python")) for doc in DOC_FILES
    }
    assert counted["README.md"] >= 2, counted
    assert counted["verbs.md"] >= 2, counted
    assert counted["architecture.md"] >= 1, counted


@pytest.mark.parametrize("doc", DOC_FILES, ids=doc_ids())
def test_relative_links_resolve(doc):
    text = doc.read_text()
    problems = []
    for target in LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # external: not checked offline
        path_part, _, fragment = target.partition("#")
        resolved = (
            doc.parent / path_part if path_part else doc
        ).resolve()
        if not resolved.exists():
            problems.append(f"{target}: no such file {resolved}")
            continue
        if fragment and resolved.suffix == ".md":
            anchors = {
                github_anchor(h) for h in HEADING.findall(resolved.read_text())
            }
            if fragment not in anchors:
                problems.append(f"{target}: no heading for #{fragment}")
    assert not problems, (
        f"{doc.relative_to(REPO_ROOT)} has broken links:\n  "
        + "\n  ".join(problems)
    )


def test_every_verbs_module_names_its_real_verbs_analogue():
    """Each repro.verbs module documents which ibv_* construct it models."""
    undocumented = []
    for module in sorted((REPO_ROOT / "src" / "repro" / "verbs").glob("*.py")):
        head = module.read_text()[:2000]
        if "ibv_" not in head:
            undocumented.append(module.name)
    assert not undocumented, (
        f"verbs modules without a real-verbs analogue in their docstring: "
        f"{undocumented}"
    )


def test_docs_cover_every_benchmark_file():
    """docs/benchmarks.md must name every bench_*.py, so new benchmarks
    cannot land undocumented."""
    table = (REPO_ROOT / "docs" / "benchmarks.md").read_text()
    missing = [
        bench.name
        for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
        if bench.name not in table
    ]
    assert not missing, f"benchmarks missing from docs/benchmarks.md: {missing}"


def test_the_choice_point_table_is_the_decision_shape_table():
    """docs/explore.md lists every decision kind with the shape the code uses."""
    from repro.explore.controller import ScheduleController
    from repro.explore.decisions import DECISION_SHAPES

    rows = re.findall(
        r"^\| `(\w+)` \| (\w+) \| .*→ `(\w+)` \|",
        (REPO_ROOT / "docs" / "explore.md").read_text(),
        re.MULTILINE,
    )
    assert {kind: shape for kind, shape, _ in rows} == DECISION_SHAPES
    assert [kind for kind, _, _ in rows] == list(DECISION_SHAPES)
    for _, _, entry_point in rows:
        assert callable(getattr(ScheduleController, entry_point)), entry_point
