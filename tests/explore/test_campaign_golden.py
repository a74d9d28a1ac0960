"""The default campaign's report, pinned byte for byte.

Every refactor since the campaign runner landed has had to show that the
default-argument ``python -m repro.explore --json --markdown`` writes the same
bytes before and after; this test does it instead of a hand-run ``cmp``.  It
runs the CLI entry point with no argument but the two output paths (15
patterns x budget 6, fuzz strategy, seed 0) and compares byte length and
sha256 of both files — and stdout, which is the markdown plus a newline —
with the recorded values.

Regenerating is legitimate only in a PR whose *purpose* is to change what a
campaign reports (a new metric in the per-schedule snapshot, a new report
column, a corpus pattern added or relabelled); a refactor, an optimisation or
a new strategy that moves these bytes has changed behaviour.  To regenerate::

    PYTHONPATH=src python -m repro.explore --json /tmp/c.json --markdown /tmp/c.md
    wc -c /tmp/c.json /tmp/c.md && sha256sum /tmp/c.json /tmp/c.md

and paste the four values into ``EXPECTED`` below.
"""

import hashlib

from repro.explore.campaign import main

EXPECTED = {
    "json": (
        756222,
        "28582a1f28d146dc4ed0cbb143ab7a0cfb273bf15e9b69b46d836bd9ab4f798b",
    ),
    "markdown": (
        2443,
        "4030e54fa5e0b3cf6d6dfb4c77bc1a2b4db45373f05489d256a4b1be8de75390",
    ),
}


def _size_and_digest(data):
    return len(data), hashlib.sha256(data).hexdigest()


def test_default_campaign_writes_the_recorded_bytes(tmp_path, capsys):
    json_path, markdown_path = tmp_path / "campaign.json", tmp_path / "campaign.md"
    assert main(["--json", str(json_path), "--markdown", str(markdown_path)]) == 0
    markdown = markdown_path.read_bytes()
    assert _size_and_digest(json_path.read_bytes()) == EXPECTED["json"]
    assert _size_and_digest(markdown) == EXPECTED["markdown"]
    assert capsys.readouterr().out.encode() == markdown + b"\n"
