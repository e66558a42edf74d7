"""The observer outputs of ``fasea run``, ``quickstart`` and ``replicate``.

Each observer flag writes a fixed set of files, and two runs of one
command write byte-identical health, alert and decision logs and the
same ``metrics.json`` once wall-clock metrics are scrubbed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli
from repro.cli import main

FIG2_REPORTS = {"report.txt", "curve_kendall_tau.csv", "params.json"}
TELEMETRY = {"metrics.json", "trace.jsonl"}
HEALTH = {"health.json", "alerts.jsonl"}
PROFILE = {"profile.json", "profile.folded"}
QUICKSTART_HORIZON = 150


def _files(directory: Path) -> set:
    return {path.name for path in directory.iterdir()}


def _scrubbed_metrics(directory: Path) -> dict:
    document = json.loads((directory / "metrics.json").read_text(encoding="utf-8"))
    return {
        section: (
            {name: value for name, value in content.items() if "seconds" not in name}
            if isinstance(content, dict)
            else content
        )
        for section, content in document.items()
    }


def _stacks(directory: Path) -> list:
    lines = (directory / "profile.folded").read_text(encoding="utf-8").splitlines()
    return [line.rsplit(" ", 1)[0] for line in lines]


def _assert_same_logs(first: Path, second: Path, logs) -> None:
    for log in logs:
        assert (first / log).read_bytes() == (second / log).read_bytes(), log
    assert _scrubbed_metrics(first) == _scrubbed_metrics(second)


def _run_fig2(out: Path, *flags: str) -> Path:
    argv = ["run", "fig2", "--horizon", "150", "--quiet", "--out", str(out), *flags]
    assert main(argv) == 0
    return out / "fig2"


def _quickstart(out: Path, *flags: str) -> Path:
    assert main(["quickstart", "--quiet", "--out", str(out), *flags]) == 0
    return out


@pytest.fixture
def short_quickstart(monkeypatch):
    monkeypatch.setattr(cli, "_QUICKSTART_HORIZON", QUICKSTART_HORIZON)


@pytest.mark.parametrize(
    "flags, written",
    [
        ((), FIG2_REPORTS),
        (("--obs",), FIG2_REPORTS | TELEMETRY),
        (("--stream",), FIG2_REPORTS | TELEMETRY),
        (("--health",), FIG2_REPORTS | TELEMETRY | HEALTH),
        (("--profile", "8"), FIG2_REPORTS | TELEMETRY | PROFILE),
    ],
    ids=["plain", "obs", "stream", "health", "profile"],
)
def test_run_writes_each_observers_files(tmp_path, capsys, flags, written):
    assert _files(_run_fig2(tmp_path, *flags)) == written
    capsys.readouterr()


def test_run_observer_logs_repeat_byte_for_byte(tmp_path, capsys):
    flags = ("--health", "--stream", "--profile", "8")
    first = _run_fig2(tmp_path / "a", *flags)
    second = _run_fig2(tmp_path / "b", *flags)
    capsys.readouterr()
    assert _files(first) == FIG2_REPORTS | TELEMETRY | HEALTH | PROFILE
    _assert_same_logs(first, second, ["health.json", "alerts.jsonl"])
    assert _stacks(first) == _stacks(second)
    assert json.loads((first / "health.json").read_text(encoding="utf-8"))["events"]
    assert (first / "alerts.jsonl").read_text(encoding="utf-8").strip()


@pytest.mark.parametrize(
    "flags, written",
    [
        ((), set()),
        (("--obs",), TELEMETRY),
        (("--stream",), TELEMETRY),
        (("--flight",), TELEMETRY | {"decisions.jsonl"}),
        (("--health",), TELEMETRY | HEALTH),
        (("--profile", "8"), TELEMETRY | PROFILE),
    ],
    ids=["plain", "obs", "stream", "flight", "health", "profile"],
)
def test_quickstart_writes_each_observers_files(
    tmp_path, capsys, short_quickstart, flags, written
):
    out = _quickstart(tmp_path / "q", *flags)
    capsys.readouterr()
    assert (_files(out) if out.exists() else set()) == written


def test_quickstart_observer_logs_repeat_byte_for_byte(tmp_path, capsys, short_quickstart):
    flags = ("--flight", "--health", "--stream")
    first = _quickstart(tmp_path / "a", *flags)
    second = _quickstart(tmp_path / "b", *flags)
    capsys.readouterr()
    assert _files(first) == TELEMETRY | HEALTH | {"decisions.jsonl"}
    _assert_same_logs(first, second, ["health.json", "alerts.jsonl", "decisions.jsonl"])


def test_replicate_flight_and_health_repeat_byte_for_byte(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = []
    for label in ("a", "b"):
        argv = ["replicate", "--seeds", "1", "--horizon", "60", "--flight", label, "--health"]
        assert main(argv) == 0
        runs.append(tmp_path / label)
    capsys.readouterr()
    assert _files(tmp_path) == {"a", "b"}
    assert _files(runs[0]) == TELEMETRY | HEALTH | {"decisions.jsonl"}
    _assert_same_logs(*runs, ["health.json", "alerts.jsonl", "decisions.jsonl"])


def test_run_health_starts_each_world_fresh(tmp_path, capsys):
    """fig3 plays one fleet per |V|: each world marks its own capacity
    cliffs against its own |V|, exactly as that world run alone does."""
    from repro.experiments.config import base_config, compare_policies, scaled_num_events

    assert main(["run", "fig3", "--horizon", "300", "--health", "--quiet",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    events = json.loads((tmp_path / "fig3" / "health.json").read_text(encoding="utf-8"))["events"]
    sizes = [scaled_num_events("scaled", paper_v) for paper_v in (100, 1000)]
    onsets = {size: [] for size in sizes}
    for event in events:
        if event.get("direction") == "onset":
            onsets.setdefault(event["num_events"], []).append(event["policy"])
    policies = ["Exploit", "OPT", "Random", "TS", "UCB", "eGreedy"]
    assert {size: sorted(names) for size, names in onsets.items()} == {
        size: policies for size in sizes
    }

    from repro.obs.core import Instrumentation, use
    from repro.obs.health import health_events_from_trace

    alone = []
    for size in sizes:
        obs = Instrumentation()
        obs.health = True
        with use(obs):
            compare_policies(base_config("scaled", 0, num_events=size), horizon=300)
        alone.extend(health_events_from_trace(obs.trace_records()))
    assert events == alone
