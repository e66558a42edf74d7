"""Health report & live dashboard: followers, renderers, CLI verbs.

The consumption half of learning health: the :class:`JsonlFollower`
never crashes on (or double-reads) a log whose writer died mid-record,
``obs health`` renders the same document from ``health.json`` or from
the streamed trace of a run that never persisted it, and ``obs top``
follows a run directory frame-by-frame with an injected clock.
"""

import io
import json
import shutil

import pytest

from repro.bandits import OptPolicy
from repro.cli import main as cli_main
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.io.runstore import persist_run_telemetry
from repro.obs.console import Console
from repro.obs.core import Instrumentation
from repro.obs.dashboard import (
    SPARK_BLOCKS,
    SPARK_WIDTH,
    TRACE_FILENAME,
    JsonlFollower,
    health_events_from_trace,
    health_table_rows,
    load_health_document,
    render_health_text,
    run_top,
    text_sparkline,
    top_lines,
    write_health_html,
)
from repro.obs.health import (
    ALERT_EVENT_NAME,
    ALERTS_FILENAME,
    CAPACITY_CLIFF_DETECTOR,
    CUSUM_DETECTOR,
    HEALTH_FILENAME,
    health_event,
    load_alerts,
    persist_health,
)
from repro.obs.stream import StreamingSink
from repro.simulation.runner import run_policy


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A full monitored run directory: metrics + trace + health + alerts."""
    directory = tmp_path_factory.mktemp("monitored")
    config = SyntheticConfig(
        num_events=6,
        horizon=60,
        dim=3,
        capacity_mean=2.0,
        capacity_std=1.0,
        conflict_ratio=0.0,
        seed=1,
    )
    world = build_world(config)
    obs = Instrumentation()
    obs.health = True
    with StreamingSink(
        directory, obs, flush_every_rounds=1, flush_every_seconds=None
    ) as sink:
        obs.stream_sink = sink
        run_policy(OptPolicy(world.theta), world, run_seed=0, obs=obs)
    persist_run_telemetry(directory, obs)
    persist_health(directory, obs.trace_records())
    return directory


@pytest.fixture()
def torn_dir(run_dir, tmp_path):
    """The same run directory with ``trace.jsonl`` chopped mid-record."""
    directory = tmp_path / "torn"
    shutil.copytree(run_dir, directory)
    trace = directory / TRACE_FILENAME
    trace.write_bytes(trace.read_bytes()[:-9])
    return directory


# ----------------------------------------------------------------------
# JsonlFollower
# ----------------------------------------------------------------------
def test_follower_consumes_complete_lines_once(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{"b": 2}\n')
    follower = JsonlFollower(path)
    assert follower.poll() == [{"a": 1}, {"b": 2}]
    assert follower.poll() == []  # nothing new: no re-reads


def test_follower_leaves_a_partial_tail_then_reads_it_exactly_once(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{"b": 2')  # writer mid-record
    follower = JsonlFollower(path)
    assert follower.poll() == [{"a": 1}]
    assert follower.poll() == []  # the torn tail stays unconsumed
    with path.open("a", encoding="utf-8") as handle:
        handle.write('}\n')
    assert follower.poll() == [{"b": 2}]  # ... and arrives exactly once
    assert follower.poll() == []


def test_follower_stops_at_a_malformed_interior_line(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\nnot json\n{"c": 3}\n')
    follower = JsonlFollower(path)
    assert follower.poll() == [{"a": 1}]
    # The damaged line ends the valid prefix; the follower refuses to
    # skip bytes silently, so later records never leapfrog it.
    assert follower.poll() == []
    assert follower.poll() == []


def test_follower_restarts_after_the_file_shrinks(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{"b": 2}\n')
    follower = JsonlFollower(path)
    follower.poll()
    path.write_text('{"c": 3}\n')  # rotation: smaller file
    assert follower.poll() == [{"c": 3}]


def test_follower_tolerates_a_missing_file(tmp_path):
    follower = JsonlFollower(tmp_path / "absent.jsonl")
    assert follower.poll() == []
    assert follower.offset == 0


def test_health_events_from_trace_filters_to_health_fields():
    records = [
        {"kind": "span", "name": "round"},
        {"kind": "event", "name": "round_done", "fields": {"t": 1}},
        {"kind": "event", "name": "health", "fields": {"detector": "cusum"}},
    ]
    assert health_events_from_trace(records) == [{"detector": "cusum"}]


# ----------------------------------------------------------------------
# Sparklines
# ----------------------------------------------------------------------
def test_text_sparkline_shapes():
    assert text_sparkline([]) == ""
    assert text_sparkline([2.0, 2.0, 2.0]) == SPARK_BLOCKS[0] * 3
    ramp = text_sparkline([float(i) for i in range(8)])
    assert ramp[0] == SPARK_BLOCKS[0] and ramp[-1] == SPARK_BLOCKS[-1]
    assert len(text_sparkline([float(i) for i in range(200)])) == SPARK_WIDTH


# ----------------------------------------------------------------------
# obs health — document + renderers
# ----------------------------------------------------------------------
def test_load_health_document_prefers_the_recorded_file(run_dir):
    payload = load_health_document(run_dir)
    assert payload["summary"]["OPT"]["cliff_onset"] == 2
    assert payload["summary"]["OPT"]["cliff_complete"] == 12
    assert payload["alerts"] == load_alerts(run_dir)


def test_load_health_document_reads_the_streamed_trace(run_dir, tmp_path):
    """A run killed before it persisted: the trace holds the same report."""
    directory = tmp_path / "killed"
    shutil.copytree(run_dir, directory)
    for name in (HEALTH_FILENAME, ALERTS_FILENAME):
        (directory / name).unlink()
    assert load_health_document(directory) == load_health_document(run_dir)


def test_cli_obs_health_without_health_or_trace_names_the_flag(run_dir, tmp_path, capsys):
    directory = tmp_path / "metrics-only"
    directory.mkdir()
    shutil.copy(run_dir / "metrics.json", directory)
    assert cli_main(["obs", "health", str(directory)]) == 2
    assert "--health" in capsys.readouterr().err


def test_render_health_text_shows_detections_and_alerts(run_dir):
    payload = load_health_document(run_dir)
    alerts = load_alerts(run_dir)
    assert alerts, "the exhaustion world must fire at least one alert"
    text = render_health_text(payload, alerts)
    assert "learning health (per policy)" in text
    assert "OPT" in text and "cliff onset" in text
    assert "capacity-exhaustion" in text
    empty = render_health_text({"summary": {}}, [])
    assert "no health events recorded" in empty
    assert "alerts: none fired" in empty


def test_health_table_rows_truncate_long_changepoint_lists():
    rows = health_table_rows(
        {
            "TS": {
                "detections": {CUSUM_DETECTOR: 9},
                "changepoints": list(range(9)),
            }
        }
    )
    assert rows[0][0] == "TS"
    assert "(9 total)" in rows[0][2]
    assert rows[0][3] == "-" and rows[0][4] == "-"  # no cliff marks


def test_write_health_html_embeds_sparklines_and_alerts(run_dir, tmp_path):
    from repro.obs.cli import load_snapshot

    payload = load_health_document(run_dir)
    alerts = load_alerts(run_dir)
    out = write_health_html(
        tmp_path / "health.html", payload, alerts, load_snapshot(run_dir)
    )
    html = out.read_text(encoding="utf-8")
    assert "<svg" in html
    assert "capacity-exhaustion" in html
    assert "OPT" in html


# ----------------------------------------------------------------------
# obs top — frames
# ----------------------------------------------------------------------
def test_top_lines_render_sparklines_detectors_and_alerts():
    obs = Instrumentation()
    series = obs.series("policy.UCB.reward")
    for t in range(10):
        series.append(t, float(t))
    events = [
        health_event(
            CAPACITY_CLIFF_DETECTOR, "UCB", "capacity_exhausted", 4, 1.0, "onset"
        )
    ]
    alerts = [
        {"rule": "capacity-exhaustion", "severity": "warning",
         "policy": "UCB", "round": 4}
    ]
    text = "\n".join(top_lines(obs.snapshot(), events, alerts))
    assert "reward (sparkline" in text
    assert "UCB" in text and "last=9" in text
    assert "cliff@4" in text
    assert "[warning " in text and "capacity-exhaustion" in text


def test_top_lines_of_an_idle_run_say_so():
    text = "\n".join(top_lines(Instrumentation().snapshot(), [], []))
    assert "health detectors: no events" in text
    assert "alerts: none fired" in text


def test_run_top_once_renders_a_single_frame(run_dir):
    out, err = io.StringIO(), io.StringIO()
    console = Console(quiet=False, color=False, out=out, err=err)
    assert run_top(run_dir, console, max_updates=1, sleep=lambda _s: None) == 0
    assert "top frame 1" in err.getvalue()
    body = out.getvalue()
    assert "reward (sparkline" in body and "OPT" in body
    assert "cliff@2" in body
    assert "capacity-exhaustion" in body


def test_run_top_rerenders_when_new_alerts_arrive(run_dir, tmp_path):
    directory = tmp_path / "live"
    shutil.copytree(run_dir, directory)
    out, err = io.StringIO(), io.StringIO()
    console = Console(quiet=False, color=False, out=out, err=err)

    def advance(_interval):
        with (directory / TRACE_FILENAME).open("a", encoding="utf-8") as handle:
            alert = {"kind": "alert", "rule": "late-breaking",
                     "severity": "info", "metric": "m", "round": 99}
            record = {"kind": "event", "name": ALERT_EVENT_NAME, "fields": alert}
            handle.write(json.dumps(record) + "\n")

    assert run_top(directory, console, max_updates=2, sleep=advance) == 0
    assert "top frame 2" in err.getvalue()
    assert "late-breaking" in out.getvalue()


def test_run_top_survives_a_torn_trace_without_double_reading(run_dir, torn_dir):
    out, err = io.StringIO(), io.StringIO()
    console = Console(quiet=False, color=False, out=out, err=err)
    torn = torn_dir / TRACE_FILENAME
    follower = JsonlFollower(torn)
    prefix = follower.poll()
    assert prefix  # the chop left a non-empty valid prefix
    assert run_top(torn_dir, console, max_updates=1, sleep=lambda _s: None) == 0
    assert "health detectors:" in out.getvalue()
    # Repair the tail with the bytes the crash cut off: the follower
    # resumes at its consumed offset and yields exactly the remaining
    # records — the prefix is never read twice.
    torn.write_bytes((run_dir / TRACE_FILENAME).read_bytes())
    resumed = follower.poll()
    assert resumed
    assert prefix + resumed == JsonlFollower(torn).poll()


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
def test_cli_obs_health_text(run_dir, capsys):
    assert cli_main(["obs", "health", str(run_dir)]) == 0
    captured = capsys.readouterr()
    assert "learning health (per policy)" in captured.out
    assert "capacity-exhaustion" in captured.out


def test_cli_obs_health_json(run_dir, capsys):
    assert cli_main(["obs", "health", str(run_dir), "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["OPT"]["cliff_onset"] == 2
    assert any(a["rule"] == "capacity-exhaustion" for a in document["alerts"])


def test_cli_obs_health_writes_the_html_report(run_dir, tmp_path, capsys):
    target = tmp_path / "report.html"
    assert cli_main(
        ["obs", "health", str(run_dir), "--html", str(target)]
    ) == 0
    assert "<svg" in target.read_text(encoding="utf-8")


def test_cli_obs_health_missing_directory_is_an_error(tmp_path, capsys):
    assert cli_main(["obs", "health", str(tmp_path / "nope")]) == 2
    assert capsys.readouterr().err


def test_cli_obs_top_once(run_dir, capsys):
    assert cli_main(["obs", "top", str(run_dir), "--once"]) == 0
    captured = capsys.readouterr()
    assert "reward (sparkline" in captured.out
    assert "cliff@2" in captured.out


def test_cli_obs_top_once_on_a_torn_trace(torn_dir, capsys):
    assert cli_main(["obs", "top", str(torn_dir), "--once"]) == 0
    assert "health detectors:" in capsys.readouterr().out


def test_cli_obs_tail_once_on_a_torn_trace(torn_dir, capsys):
    # The counters the deleted ``obs tail`` verb printed are now the
    # first line of the ``obs top`` frame; a torn trace must not hide them.
    assert cli_main(["obs", "top", str(torn_dir), "--once"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert "counters: " in first and "env.rounds=" in first
