"""Streaming-sink guarantees: crash safety, cadence, live following.

The ISSUE's headline promise, tested directly: a run killed mid-stream
(up to and including ``SIGKILL``) leaves a loadable ``metrics.json``
and a ``trace.jsonl`` whose longest valid prefix parses.  Plus the
cadence triggers (rounds / seconds), atomic snapshot rotation,
``fasea obs top`` following a streamed directory, and bit-identity of
results with the sink attached.
"""

import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.exceptions import ConfigurationError
from repro.io.runstore import load_run_metrics, persist_run_telemetry
from repro.obs.console import Console
from repro.obs.core import Instrumentation
from repro.obs.dashboard import run_top, top_lines
from repro.obs.stream import StreamingSink
from repro.obs.trace import read_trace_jsonl

REPO_ROOT = Path(__file__).resolve().parents[1]


def _busy_obs(rounds=5):
    obs = Instrumentation()
    for t in range(rounds):
        obs.counter("env.rounds").inc()
        obs.series("policy.UCB.reward").append(t, float(t))
        obs.event("round_done", t=t)
    return obs


# ----------------------------------------------------------------------
# Construction / cadence
# ----------------------------------------------------------------------
def test_sink_rejects_degenerate_cadences(tmp_path):
    obs = Instrumentation()
    with pytest.raises(ConfigurationError, match="at least one flush trigger"):
        StreamingSink(
            tmp_path, obs, flush_every_rounds=None, flush_every_seconds=None
        )
    with pytest.raises(ConfigurationError, match="flush_every_rounds"):
        StreamingSink(tmp_path, obs, flush_every_rounds=0)
    with pytest.raises(ConfigurationError, match="flush_every_seconds"):
        StreamingSink(tmp_path, obs, flush_every_seconds=0.0)
    with pytest.raises(ConfigurationError, match="fsync_every_flushes"):
        StreamingSink(tmp_path, obs, fsync_every_flushes=0)


def test_round_trigger_flushes_on_cadence(tmp_path):
    obs = _busy_obs()
    sink = StreamingSink(
        tmp_path, obs, flush_every_rounds=10, flush_every_seconds=None
    )
    flushes = sum(sink.maybe_flush(1) for _ in range(35))
    assert flushes == 3
    assert sink.flush_count == 3
    assert sink.metrics_path.is_file()
    sink.close()
    assert sink.flush_count == 4  # close() always publishes a final one
    sink.close()
    assert sink.flush_count == 4  # ... and is idempotent


def test_time_trigger_fires_on_the_monotonic_clock(tmp_path, monkeypatch):
    fake_now = [100.0]
    monkeypatch.setattr("repro.obs.stream.monotonic", lambda: fake_now[0])
    sink = StreamingSink(
        tmp_path,
        _busy_obs(),
        flush_every_rounds=None,
        flush_every_seconds=5.0,
    )
    assert sink.maybe_flush(1) is False  # no time has passed
    fake_now[0] += 4.9
    assert sink.maybe_flush(1) is False
    fake_now[0] += 0.2
    assert sink.maybe_flush(1) is True
    assert sink.maybe_flush(1) is False  # timer reset by the flush


def test_unflushed_path_is_observable_via_flush_count(tmp_path):
    sink = StreamingSink(
        tmp_path, _busy_obs(), flush_every_rounds=1000, flush_every_seconds=None
    )
    for _ in range(50):
        assert sink.maybe_flush(1) is False
    assert sink.flush_count == 0


# ----------------------------------------------------------------------
# Crash safety
# ----------------------------------------------------------------------
def test_snapshot_on_disk_is_always_complete(tmp_path):
    obs = Instrumentation()
    sink = StreamingSink(
        tmp_path, obs, flush_every_rounds=1, flush_every_seconds=None
    )
    for t in range(20):
        obs.counter("env.rounds").inc()
        sink.maybe_flush(1)
        # Between any two flushes the published file is a complete,
        # schema-valid document (atomic os.replace) ...
        snapshot = load_run_metrics(tmp_path)
        assert snapshot.counters["env.rounds"] == t + 1
        # ... and no torn temp file is left behind.
        assert not list(tmp_path.glob(".*.tmp"))
    sink.close()


def test_truncated_trace_parses_to_longest_valid_prefix(tmp_path):
    obs = _busy_obs(rounds=8)
    sink = StreamingSink(
        tmp_path, obs, flush_every_rounds=1, flush_every_seconds=None
    )
    sink.flush()
    complete = read_trace_jsonl(sink.trace_path)
    assert len(complete) == 8  # the 8 round_done events
    # Simulate a crash mid-append: chop the file inside the last line.
    raw = sink.trace_path.read_bytes()
    sink.trace_path.write_bytes(raw[:-7])
    with pytest.raises(ConfigurationError):
        read_trace_jsonl(sink.trace_path)  # strict readers refuse
    recovered = read_trace_jsonl(sink.trace_path, strict=False)
    assert recovered == complete[:-1]  # longest valid prefix
    # The atomic snapshot is untouched by the torn trace.
    assert load_run_metrics(tmp_path).counters["env.rounds"] == 8


def test_sigkill_leaves_loadable_artifacts(tmp_path):
    """A real SIGKILL mid-stream: the streamed directory still loads."""
    script = """
import os, signal, sys
from repro.obs.core import Instrumentation
from repro.obs.stream import StreamingSink

directory = sys.argv[1]
obs = Instrumentation()
sink = StreamingSink(
    directory, obs, flush_every_rounds=1, flush_every_seconds=None
)
for t in range(12):
    obs.counter("env.rounds").inc()
    obs.event("round_done", t=t)
    sink.maybe_flush(1)
# Leave a half-written line in flight, then die without cleanup.
with open(sink.trace_path, "a", encoding="utf-8") as handle:
    handle.write('{"kind": "event", "name": "torn')
    handle.flush()
os.kill(os.getpid(), signal.SIGKILL)
"""
    run_dir = tmp_path / "victim"
    result = subprocess.run(
        [sys.executable, "-c", script, str(run_dir)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == -signal.SIGKILL
    snapshot = load_run_metrics(run_dir)
    assert snapshot.counters["env.rounds"] == 12
    recovered = read_trace_jsonl(run_dir / "trace.jsonl", strict=False)
    assert [r["name"] for r in recovered] == ["round_done"] * 12


def test_reused_directory_starts_the_trace_fresh(tmp_path):
    first = _busy_obs(rounds=3)
    with StreamingSink(
        tmp_path, first, flush_every_rounds=1, flush_every_seconds=None
    ):
        pass
    assert len(read_trace_jsonl(tmp_path / "trace.jsonl")) == 3
    second = _busy_obs(rounds=2)
    with StreamingSink(
        tmp_path, second, flush_every_rounds=1, flush_every_seconds=None
    ) as sink:
        sink.flush()
    # No leakage of the first run's records into the second run's prefix.
    assert len(read_trace_jsonl(tmp_path / "trace.jsonl")) == 2


def test_final_persist_overwrites_streamed_artifacts(tmp_path):
    obs = _busy_obs(rounds=4)
    with StreamingSink(
        tmp_path, obs, flush_every_rounds=1, flush_every_seconds=None
    ) as sink:
        sink.flush()
    persist_run_telemetry(tmp_path, obs)
    snapshot = load_run_metrics(tmp_path)
    assert snapshot.counters["env.rounds"] == 4
    assert read_trace_jsonl(tmp_path / "trace.jsonl") == obs.trace_records()


# ----------------------------------------------------------------------
# Streaming changes nothing (determinism contract)
# ----------------------------------------------------------------------
def test_rewards_are_bit_identical_with_streaming(tmp_path, small_world):
    from repro.bandits import UcbPolicy
    from repro.simulation.runner import run_policy

    plain = run_policy(
        UcbPolicy(dim=small_world.config.dim), small_world, run_seed=3
    )
    obs = Instrumentation()
    with StreamingSink(
        tmp_path, obs, flush_every_rounds=5, flush_every_seconds=None
    ) as sink:
        obs.stream_sink = sink
        streamed = run_policy(
            UcbPolicy(dim=small_world.config.dim),
            small_world,
            run_seed=3,
            obs=obs,
        )
    assert sink.flush_count >= small_world.config.horizon // 5
    np.testing.assert_array_equal(plain.rewards, streamed.rewards)
    np.testing.assert_array_equal(plain.arranged, streamed.arranged)


# ----------------------------------------------------------------------
# fasea obs top over a streamed directory
# ----------------------------------------------------------------------
@pytest.fixture()
def live_dir(tmp_path):
    obs = Instrumentation()
    obs.counter("env.rounds").inc(40)
    obs.series("policy.UCB.reward").append(39, 7.5)
    obs.series("policy.TS.reward").append(39, 6.25)
    obs.series("policy.UCB.theta_drift").append(39, 0.125)
    hist = obs.histogram("policy.UCB.oracle.fill_rate")
    hist.observe(0.5)
    hist.observe(1.0)
    with StreamingSink(
        tmp_path, obs, flush_every_rounds=1, flush_every_seconds=None
    ) as sink:
        sink.flush()
    return tmp_path


def test_top_lines_render_counters_drift_and_fill_rate(live_dir):
    snapshot = load_run_metrics(live_dir)
    text = "\n".join(top_lines(snapshot, [], []))
    assert "counters: env.rounds=40" in text
    assert "UCB" in text and "last=7.5" in text
    assert "TS" in text and "last=6.25" in text
    assert "theta_drift (last point per policy):" in text
    assert "t=39" in text and "last=0.125" in text
    assert "oracle fill rate:" in text and "mean=0.7500" in text


def test_tail_lines_of_empty_snapshot_say_so():
    # The lines ``obs tail`` used to render (counters, θ̂ drift, fill
    # rate) are left out of an empty snapshot's frame entirely, so the
    # frame says only that nothing has happened yet.
    frame = top_lines(Instrumentation().snapshot(), [], [])
    assert frame == ["health detectors: no events", "alerts: none fired"]


def _quiet_console():
    out, err = io.StringIO(), io.StringIO()
    return Console(quiet=False, color=False, out=out, err=err), out, err


def test_run_top_once_renders_the_streamed_counters(live_dir):
    console, out, err = _quiet_console()
    assert run_top(live_dir, console, max_updates=1, sleep=lambda _s: None) == 0
    assert "top frame 1" in err.getvalue()
    assert "env.rounds=40" in out.getvalue()


def test_run_top_rerenders_when_the_snapshot_rotates(live_dir):
    obs = Instrumentation()
    obs.counter("env.rounds").inc(41)
    console, out, err = _quiet_console()

    def advance(_interval):
        # Between polls the "running" process rotates a fresh snapshot.
        sink = StreamingSink(
            live_dir, obs, flush_every_rounds=1, flush_every_seconds=None
        )
        sink.flush()
        os.utime(live_dir / "metrics.json")  # guarantee a new mtime tick

    assert run_top(live_dir, console, max_updates=2, sleep=advance) == 0
    assert "top frame 2" in err.getvalue()
    assert "env.rounds=41" in out.getvalue()


def test_cli_obs_top_once_renders_the_streamed_counters(live_dir, capsys):
    assert cli_main(["obs", "top", str(live_dir), "--once"]) == 0
    captured = capsys.readouterr()
    assert "env.rounds=40" in captured.out


def test_cli_obs_summary_missing_directory_is_an_error(tmp_path, capsys):
    code = cli_main(["obs", "summary", str(tmp_path / "nope")])
    assert code == 2
    assert capsys.readouterr().err


def test_cli_obs_top_missing_directory_is_an_error(tmp_path, capsys):
    code = cli_main(["obs", "top", str(tmp_path / "nope"), "--once"])
    assert code == 2
    assert "no run directory" in capsys.readouterr().err


def test_streamed_snapshot_document_is_schema_versioned(live_dir):
    payload = json.loads((live_dir / "metrics.json").read_text())
    assert payload["version"] == 1
