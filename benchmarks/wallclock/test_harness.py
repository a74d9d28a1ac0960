"""Smoke test of the benchmark harness itself (not part of tier-1).

Run it explicitly, from the repository root::

    python -m pytest benchmarks/wallclock/test_harness.py -q

It drives ``run.py --quick`` (tiny sizes, two repetitions per run) and checks
the contract between the harness and ``BENCHMARK.json``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("wallclock") / "quick.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--seed", "0", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open(out) as handle:
        return json.load(handle)


def test_report_and_benchmark_json_name_the_same_metrics(spec, report):
    assert sorted(report["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    for entry in report["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            measured = {name: cell["unit"] for name, cell in entry[section].items()}
            assert measured == declared
            assert all(NAME.fullmatch(name) for name in measured)


def test_no_repetition_failed_and_every_boundary_resolved(report):
    for name, entry in report["workloads"].items():
        assert entry["failed_share"] == 0, name
        assert entry["attempted"] == 4, name  # 2 untraced + 1 untraced and 1 traced
        assert len(entry["sim_digest"]) == 1, name
        unresolved = [m for m, cell in entry["per_layer"].items() if cell["value"] is None]
        assert not unresolved, name
        assert all(cell["value"] > 0 for cell in entry["end_to_end"].values()), name


def test_counts_repeat_exactly(spec):
    """Two runs of one seed agree on every call count and simulated count."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--quick", "--workload", "run_posted",
        "--seed", "1", "--trace", "1", "--seconds", "1",
    ]  # fmt: skip
    runs = []
    for _ in range(2):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout.strip().splitlines()[-1])["metrics"])
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes", "simtime")]
    assert len(exact) > 40
    assert {m: runs[0][m]["value"] for m in exact} == {m: runs[1][m]["value"] for m in exact}


def test_layer_shares_sum_to_one_and_show_the_predicted_contrast(report):
    def value(workload, metric):
        return report["workloads"][workload]["per_layer"][metric]["value"]

    shares = [m for m in report["workloads"]["run_posted"]["per_layer"] if m.endswith(".self_share")]
    assert len(shares) == 12
    for workload in report["workloads"]:
        assert sum(value(workload, share) for share in shares) == pytest.approx(1.0)
    assert value("replay_postmortem", "core.self_share") > 0.5
    assert (
        value("replay_postmortem", "sim.self_share") + value("replay_postmortem", "net.self_share")
        < 0.02
    )
    assert value("run_posted", "verbs.self_share") > 10 * value("run_blocking", "verbs.self_share")
    assert value("run_blocking", "net.wire_encode.calls") == 0
    assert value("run_posted", "net.wire_encode.calls") > 0
    assert value("campaign_fuzz", "explore.pick_next.calls") > 0


def test_exits_nonzero_without_the_program_under_test(tmp_path):
    """In a tree that holds only the benchmark, the command must fail, printing no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "wallclock", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/wallclock/run.py", "--workload", "run_blocking",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout == ""
