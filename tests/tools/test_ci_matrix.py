"""The CI knob matrix is generated, covering, and drift-proof.

Acceptance for the CI satellite: ``tools/ci_matrix.py`` owns the
``--expect-consistent`` matrix as a declarative knob registry — the
workflow's generated block is a pairwise covering array plus full-cartesian
islands for the high-risk knob pairs, ``--check`` fails on any hand-edit,
and adding a knob value to the registry is the only move needed to extend
the matrix.
"""

import dataclasses
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "ci_matrix", REPO_ROOT / "tools" / "ci_matrix.py"
)
ci_matrix = importlib.util.module_from_spec(spec)
sys.modules["ci_matrix"] = ci_matrix
spec.loader.exec_module(ci_matrix)

WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


class TestCoverage:
    def test_every_knob_pair_is_covered(self):
        rows = ci_matrix.matrix_rows()
        index = {knob.name: i for i, knob in enumerate(ci_matrix.KNOBS)}
        covered = set()
        for row in rows:
            for a, va in row.items():
                for b, vb in row.items():
                    if index[a] < index[b]:
                        covered.add(ci_matrix._pair(index[a], va, index[b], vb))
        assert covered >= ci_matrix.all_pairs(ci_matrix.KNOBS)

    def test_high_risk_pairs_get_the_full_cartesian_product(self):
        rows = ci_matrix.matrix_rows()
        by_name = {knob.name: knob for knob in ci_matrix.KNOBS}
        for a_name, b_name in ci_matrix.HIGH_RISK_PAIRS:
            for va in by_name[a_name].matrix_values:
                for vb in by_name[b_name].matrix_values:
                    assert any(
                        row[a_name] == va and row[b_name] == vb for row in rows
                    ), f"island missing: {a_name}={va}, {b_name}={vb}"

    def test_rows_are_far_fewer_than_the_cartesian_product(self):
        cartesian = 1
        for knob in ci_matrix.KNOBS:
            cartesian *= len(knob.matrix_values)
        assert len(ci_matrix.matrix_rows()) < cartesian / 4

    def test_generation_is_deterministic(self):
        assert ci_matrix.render_block() == ci_matrix.render_block()
        assert ci_matrix.matrix_rows() == ci_matrix.matrix_rows()


class TestCommands:
    def test_every_row_asserts_consistency(self):
        for row in ci_matrix.matrix_rows():
            command = ci_matrix.row_command(row)
            assert command.startswith("python -m repro.explore ")
            assert command.endswith(" --expect-consistent")

    def test_ud_rows_fuzz_with_nonzero_drop_and_duplicate_rates(self):
        rows = ci_matrix.matrix_rows()
        ud_rows = [r for r in rows if r["transport"] == "ud"]
        assert ud_rows, "the matrix must exercise the UD service level"
        for row in ud_rows:
            command = ci_matrix.row_command(row)
            assert "--strategy fuzz" in command
            assert "--drop-rate 0.25" in command
            assert "--duplicate-rate 0.1" in command

    def test_rc_rows_search_systematically(self):
        for row in ci_matrix.matrix_rows():
            if row["transport"] == "rc":
                command = ci_matrix.row_command(row)
                assert "--strategy systematic" in command
                assert "--drop-rate" not in command


class TestDrift:
    def test_committed_workflow_matches_the_registry(self):
        assert ci_matrix.main(["--check", "--workflow", str(WORKFLOW)]) == 0

    def test_hand_edited_block_fails_the_check(self, tmp_path, capsys):
        tampered = tmp_path / "ci.yml"
        shutil.copy(WORKFLOW, tampered)
        text = tampered.read_text()
        target = "--transport ud"
        assert target in text
        tampered.write_text(text.replace(target, "--transport rc", 1))
        assert ci_matrix.main(["--check", "--workflow", str(tampered)]) == 1
        out = capsys.readouterr().out
        assert "drifted" in out
        assert "--write" in out

    def test_write_repairs_a_tampered_block(self, tmp_path):
        tampered = tmp_path / "ci.yml"
        shutil.copy(WORKFLOW, tampered)
        tampered.write_text(
            tampered.read_text().replace("--transport ud", "--transport rc", 1)
        )
        assert ci_matrix.main(["--write", "--workflow", str(tampered)]) == 0
        assert ci_matrix.main(["--check", "--workflow", str(tampered)]) == 0
        assert tampered.read_text() == WORKFLOW.read_text()

    def test_missing_markers_is_a_loud_error(self, tmp_path):
        broken = tmp_path / "ci.yml"
        broken.write_text("jobs:\n  nothing: {}\n")
        with pytest.raises(SystemExit, match="markers"):
            ci_matrix.main(["--check", "--workflow", str(broken)])

    def test_registry_changes_surface_as_drift(self, monkeypatch, tmp_path):
        """Adding a knob value must invalidate the committed block."""
        copy = tmp_path / "ci.yml"
        shutil.copy(WORKFLOW, copy)
        knobs = list(ci_matrix.KNOBS)
        knobs[1] = dataclasses.replace(
            knobs[1], matrix_values=knobs[1].matrix_values + ("bogus",)
        )
        monkeypatch.setattr(ci_matrix, "KNOBS", tuple(knobs))
        assert ci_matrix.main(["--check", "--workflow", str(copy)]) == 1
