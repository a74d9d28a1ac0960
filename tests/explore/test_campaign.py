"""The sharded campaign runner: worker-count invariance, reports, CLI smoke."""

import json

import pytest

from repro.explore.campaign import CampaignConfig, main, run_campaign

PATTERNS = ["fig5a-concurrent-puts", "write-after-read-unsync"]


@pytest.mark.parametrize(
    "strategy, patterns",
    [
        ("systematic", PATTERNS),
        # The benchmark's strategy, and a pattern that draws a stream per rank:
        # each worker fills its own process-wide stream memo (``repro.sim.rng``),
        # the inline run this process's.
        ("fuzz", PATTERNS + ["unsynchronized-counter"]),
    ],
    ids=["systematic", "fuzz"],
)
def test_sharded_campaign_matches_inline_campaign(strategy, patterns):
    inline = run_campaign(
        CampaignConfig(strategy=strategy, budget=4, seed=0, quantum=4.0, workers=0),
        patterns=patterns,
    )
    sharded = run_campaign(
        CampaignConfig(strategy=strategy, budget=4, seed=0, quantum=4.0, workers=2),
        patterns=patterns,
    )
    inline_dict, sharded_dict = inline.as_dict(), sharded.as_dict()
    # Worker count is orchestration, not an input to any schedule.
    inline_dict["config"]["workers"] = sharded_dict["config"]["workers"] = None
    assert inline_dict == sharded_dict


def test_report_json_and_markdown_are_well_formed():
    report = run_campaign(
        CampaignConfig(strategy="fuzz", budget=4, seed=0, quantum=4.0),
        patterns=PATTERNS,
    )
    payload = json.loads(report.to_json())
    assert payload["format"] == "repro-exploration-campaign"
    assert {p["pattern"] for p in payload["patterns"]} == set(PATTERNS)
    assert "matrix-clock" in payload["detector_scores"]
    markdown = report.to_markdown()
    assert "| detector |" in markdown and "matrix-clock" in markdown
    for name in PATTERNS:
        assert name in markdown


def test_detector_scores_rank_detectors_correctly():
    """Across explored schedules, the accuracy ordering the paper reports:
    matrix-clock perfect, lockset near-blind (NIC locks satisfy its
    discipline while the logical races remain)."""
    report = run_campaign(
        CampaignConfig(strategy="systematic", budget=5, seed=0, quantum=4.0),
        patterns=PATTERNS + ["fig4-concurrent-reads", "disjoint-cells"],
    )
    scores = report.detector_scores()
    matrix = scores["matrix-clock"]
    assert matrix.program_level.accuracy == 1.0
    assert matrix.symbol_level.recall == 1.0
    lockset = scores["lockset"]
    assert lockset.symbol_level.recall == 0.0
    assert lockset.program_level.accuracy < matrix.program_level.accuracy


def test_campaign_rejects_bad_configuration():
    with pytest.raises(ValueError):
        CampaignConfig(strategy="annealing")
    with pytest.raises(ValueError):
        CampaignConfig(budget=0)
    with pytest.raises(ValueError):
        CampaignConfig(workers=-1)
    # A fractional or boolean count fails here, not inside the explorer, and
    # so does a switch that is not a bool (``bool("false")`` is true).
    for name, value in [
        ("budget", 2.5),
        ("budget", True),
        ("workers", 1.5),
        ("treat_rmw_pairs_as_ordered", "false"),
        ("treat_rmw_pairs_as_ordered", 1),
    ]:
        with pytest.raises(TypeError, match=name):
            CampaignConfig(**{name: value})
    # Search parameters fail at the parent, by the strategies' own checks.
    with pytest.raises(ValueError, match="reorder_probability"):
        CampaignConfig(reorder_probability=1.5, quantum=-1.0)
    with pytest.raises(ValueError, match="branch_factor"):
        CampaignConfig(strategy="systematic", branch_factor=0)
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(), corpus="nonexistent")
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(), patterns=["no-such-pattern"])


@pytest.mark.parametrize(
    "name, value",
    [
        ("budget", 2.5),
        ("budget", 3.0),
        ("budget", True),
        ("budget", "3"),
        ("budget", None),
        ("workers", 1.5),
        ("workers", 2.0),
        ("workers", True),
        ("workers", "2"),
        ("workers", None),
    ],
)
def test_campaign_counts_must_be_ints(name, value):
    # A fractional, boolean or text count fails here, not inside the explorer.
    with pytest.raises(TypeError, match=name):
        CampaignConfig(**{name: value})


@pytest.mark.parametrize("name, value", [("budget", 1), ("workers", 0), ("workers", 2)])
def test_campaign_counts_at_their_bounds_are_accepted(name, value):
    assert getattr(CampaignConfig(**{name: value}), name) == value


def test_cli_smoke_with_expect_consistent(tmp_path, capsys):
    json_path = tmp_path / "campaign.json"
    markdown_path = tmp_path / "campaign.md"
    exit_code = main(
        [
            "--patterns", *PATTERNS,
            "--strategy", "systematic",
            "--budget", "4",
            "--quantum", "4.0",
            "--json", str(json_path),
            "--markdown", str(markdown_path),
            "--expect-consistent",
        ]
    )
    assert exit_code == 0
    assert json.loads(json_path.read_text())["fully_consistent"] is True
    assert "HOLDS" in markdown_path.read_text()
    assert "Exploration campaign" in capsys.readouterr().out


def test_campaign_critical_path_summaries_and_ranked_markdown():
    """With ``critical_path=True`` every outcome carries a per-schedule path
    summary (exact: path time == the schedule's elapsed sim time) and the
    markdown report ranks schedules by path composition."""
    report = run_campaign(
        CampaignConfig(
            strategy="systematic", budget=3, seed=0, quantum=4.0,
            critical_path=True,
        ),
        patterns=["fig5a-concurrent-puts"],
    )
    (pattern,) = report.per_pattern
    outcomes = pattern["outcomes"]
    assert outcomes
    for outcome in outcomes:
        summary = outcome["critical_path"]
        assert summary["path_sim_time"] == outcome["elapsed_sim_time"]
        assert summary["dominant"] in summary["categories"]
    markdown = report.to_markdown()
    assert "## Schedules ranked by critical-path composition" in markdown


def test_campaign_without_critical_path_records_no_summaries():
    report = run_campaign(
        CampaignConfig(strategy="systematic", budget=2, seed=0, quantum=4.0),
        patterns=["fig5a-concurrent-puts"],
    )
    (pattern,) = report.per_pattern
    assert all(not o["critical_path"] for o in pattern["outcomes"])
    assert "ranked by critical-path" not in report.to_markdown()


def test_minimize_dir_writes_replayable_artifacts_per_racy_pattern(tmp_path):
    """The nightly leg's contract: --minimize-dir emits one self-contained,
    replayable minimized racing schedule per racy pattern, under the
    campaign's own knobs (here: UD with drop/duplicate fuzzing)."""
    from repro.explore.campaign import minimize_campaign_artifacts
    from repro.explore.minimize import load_artifact, replay_artifact
    from repro.explore.runner import MATRIX_CLOCK
    from repro.workloads.racy_patterns import pattern_corpus

    config = CampaignConfig(
        strategy="fuzz",
        budget=3,
        seed=0,
        quantum=4.0,
        clock_transport="piggyback",
        clock_wire="delta",
        transport="ud",
        drop_probability=0.25,
        duplicate_probability=0.1,
    )
    written = minimize_campaign_artifacts(
        config, str(tmp_path), patterns=PATTERNS
    )
    assert len(written) == len(PATTERNS)
    by_name = {p.name: p for p in pattern_corpus()}
    for path in written:
        artifact = load_artifact(path)
        pattern = by_name[artifact["pattern"]]
        assert artifact["target_symbols"], path
        assert set(artifact["target_symbols"]) <= set(pattern.racy_symbols)

        # Replaying the artifact recipe must need the same knobs baked in.
        def factory(seed, _build=pattern.build):
            runtime = _build(seed)
            runtime.set_knob("clock_transport", "piggyback")
            runtime.set_knob("clock_wire", "delta")
            runtime.set_knob("transport", "ud")
            return runtime

        outcome = replay_artifact(path, factory)
        assert set(artifact["target_symbols"]) <= outcome.flagged[MATRIX_CLOCK]


def test_minimize_dir_cli_flag_prints_artifact_paths(tmp_path, capsys):
    out_dir = tmp_path / "minimized"
    code = main(
        [
            "--patterns",
            "fig5a-concurrent-puts",
            "--strategy",
            "fuzz",
            "--budget",
            "2",
            "--quantum",
            "4.0",
            "--minimize-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "minimized-fig5a-concurrent-puts.json").exists()
    assert "minimized racing schedule" in capsys.readouterr().out
