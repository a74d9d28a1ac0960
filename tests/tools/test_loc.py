"""``tools/loc.py`` counts what it says it counts.

A code-only line carries at least one token that is not a comment and is not
part of a module, class or function docstring.
"""

import importlib.util
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location("loc", REPO_ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)


def test_comments_blank_lines_and_docstrings_are_not_code(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(textwrap.dedent('''\
        """Module docstring,
        two lines."""

        # a comment line
        import os  # a trailing comment does not unmake a code line


        class Thing:
            """Class docstring."""

            def method(self):
                """Function docstring."""
                text = """a string that is data,
                on two lines, is code"""
                return (
                    text,
                    os.sep,
                )
    '''))
    assert loc.count(str(source)) == (18, 9)


def test_the_table_covers_every_package_and_the_totals_add_up(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert loc.main([]) == 0
    rows = {
        cells[0]: (int(cells[1]), int(cells[2]))
        for cells in (
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in capsys.readouterr().out.splitlines()[2:]
        )
    }
    packages = {
        f"src/repro/{path.name}"
        for path in (REPO_ROOT / "src" / "repro").iterdir()
        if path.is_dir() and path.name != "__pycache__"
    }
    assert set(rows) == packages | {"src", "tests", "tools"}
    top_level = sum(
        loc.count(str(path))[1] for path in (REPO_ROOT / "src" / "repro").glob("*.py")
    )
    assert rows["src"][1] == top_level + sum(rows[name][1] for name in packages)
