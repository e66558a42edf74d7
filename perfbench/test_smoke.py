"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in MANIFEST["workloads"]]


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "0.2", "--trace", str(trace), "--smoke",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    report = last_json(run_bench(REPO, workload, trace))
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert report["attempted"] >= 1 and report["failed"] == 0
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in report["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for entry in report["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def copy_benchmark(tmp_path: Path, with_source: bool) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    if with_source:
        (tmp_path / "src").symlink_to(REPO / "src")
    return tmp_path


def test_corrupted_golden_value_counts_as_failed_operation(tmp_path: Path) -> None:
    root = copy_benchmark(tmp_path, with_source=True)
    golden_path = root / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    cells = golden["high_dim"]["smoke"]["cells"]
    cells[0]["total_regrets"]["UCB"] += 1.0
    golden_path.write_text(json.dumps(golden))

    report = last_json(run_bench(root, "high_dim", 0))

    assert report["correct"] is False
    # Every call plays the one smoke seed, and every call misses.
    assert report["failed"] == report["attempted"] >= 1


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    root = copy_benchmark(tmp_path, with_source=False)
    done = run_bench(root, "high_dim", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
