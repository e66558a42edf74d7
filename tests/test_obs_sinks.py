"""Tests for the ``repro.obs`` sinks: JSONL traces, exporters, console.

The sinks are the plain-data boundary of the telemetry bus: traces
round-trip through JSONL unchanged, snapshots round-trip through the
``metrics.json`` schema, and every human-facing CLI line flows through :class:`Console` with the
documented stream/quiet/colour routing.
"""

import io
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.console import Console, color_allowed
from repro.obs.core import Instrumentation
from repro.obs.export import snapshot_from_json, snapshot_to_json
from repro.obs.trace import read_trace_jsonl, span_tree_lines, write_trace_jsonl


@pytest.fixture()
def sample_obs():
    obs = Instrumentation()
    with obs.span("outer", run=7):
        obs.counter("env.rounds").inc(3)
        obs.event("drained", event_id=2)
        with obs.span("inner"):
            obs.timer("policy.UCB.select_seconds").observe(0.01)
    obs.gauge("parallel.workers").set(2)
    obs.series("policy.UCB.reward").append(1, 4.0)
    obs.series("policy.UCB.reward").append(2, 5.0)
    return obs


# ----------------------------------------------------------------------
# JSONL trace sink
# ----------------------------------------------------------------------
def test_trace_jsonl_roundtrip(sample_obs, tmp_path):
    records = sample_obs.trace_records()
    path = write_trace_jsonl(records, tmp_path / "nested" / "trace.jsonl")
    assert path.is_file()
    assert read_trace_jsonl(path) == records


def test_trace_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"kind": "event", "name": "a"}\n\n')
    assert read_trace_jsonl(path) == [{"kind": "event", "name": "a"}]


def test_trace_reader_rejects_garbage(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ConfigurationError, match="invalid trace line"):
        read_trace_jsonl(path)
    path.write_text("[1, 2]\n")
    with pytest.raises(ConfigurationError, match="not an object"):
        read_trace_jsonl(path)


def test_span_tree_indents_children_and_events(sample_obs):
    lines = span_tree_lines(sample_obs.trace_records())
    outer = next(line for line in lines if "outer" in line)
    inner = next(line for line in lines if "inner" in line)
    event = next(line for line in lines if "drained" in line)
    assert not outer.startswith(" ")
    assert inner.startswith("  [span]")
    assert event.startswith("  [event]") and "event_id=2" in event
    assert "run=7" in outer and "ms" in outer


def test_span_tree_can_exclude_events_and_truncate(sample_obs):
    records = sample_obs.trace_records()
    no_events = span_tree_lines(records, include_events=False)
    assert all("[event]" not in line for line in no_events)
    truncated = span_tree_lines(records, limit=1)
    assert truncated[-1] == "... truncated at 1 lines ..."
    assert len(truncated) == 2


# ----------------------------------------------------------------------
# JSON exporter
# ----------------------------------------------------------------------
def test_snapshot_json_roundtrip(sample_obs):
    snapshot = sample_obs.snapshot()
    text = snapshot_to_json(snapshot)
    assert text.endswith("\n")
    assert json.loads(text)["version"] == 1
    assert snapshot_from_json(text).to_dict() == snapshot.to_dict()


# ----------------------------------------------------------------------
# Snapshot merge algebra
# ----------------------------------------------------------------------
def _random_snapshot(seed):
    """A deterministic pseudo-random snapshot exercising every family."""
    import numpy as np

    rng = np.random.default_rng(seed)
    obs = Instrumentation()
    for i in range(int(rng.integers(1, 4))):
        obs.counter(f"c{int(rng.integers(0, 3))}").inc(int(rng.integers(1, 9)))
    obs.gauge(f"g{seed % 2}").set(float(rng.normal()))
    hist = obs.histogram("h", buckets=(0.1, 1.0, 10.0))
    for value in rng.uniform(0.0, 12.0, size=int(rng.integers(1, 6))):
        hist.observe(float(value))
    timer = obs.timer("t.select_seconds")
    for value in rng.uniform(0.0, 0.2, size=int(rng.integers(1, 4))):
        timer.observe(float(value))
    series = obs.series("s.reward")
    for step in range(int(rng.integers(1, 5))):
        series.append(step, float(rng.normal()))
    return obs.snapshot()


def _merged(left, right):
    merged = snapshot_from_json(snapshot_to_json(left))  # deep copy
    merged.merge(right)
    return merged


def _assert_snapshots_equivalent(left, right):
    """Exact equality everywhere except histogram ``sum``.

    Bucket counts, counters, gauges, series and min/max are integers or
    single writes and merge exactly; the float ``sum`` accumulates in
    merge order, so associativity holds only up to the last ulp there.
    """
    import math

    left_dict, right_dict = left.to_dict(), right.to_dict()
    for section in ("counters", "gauges", "series", "meta"):
        assert left_dict[section] == right_dict[section]
    assert set(left_dict["histograms"]) == set(right_dict["histograms"])
    for name, payload in left_dict["histograms"].items():
        other = right_dict["histograms"][name]
        for key in payload:
            if key == "sum":
                assert math.isclose(
                    payload["sum"], other["sum"], rel_tol=1e-12, abs_tol=0.0
                )
            else:
                assert payload[key] == other[key], (name, key)


@pytest.mark.parametrize("seed", [0, 1, 7, 23, 99])
def test_snapshot_merge_is_associative(seed):
    # merge(a, merge(b, c)) == merge(merge(a, b), c) for every family:
    # counters add, histograms/timers bucket-add, series concatenate in
    # order, gauges take the rightmost write.  This is the property that
    # makes submission-order worker merging independent of --jobs.
    a, b, c = (_random_snapshot(seed * 3 + k) for k in range(3))
    left = _merged(_merged(a, b), c)
    right = _merged(a, _merged(b, c))
    _assert_snapshots_equivalent(left, right)


def test_snapshot_merge_identity_and_histogram_bounds():
    snapshot = _random_snapshot(5)
    merged = _merged(snapshot, Instrumentation().snapshot())
    assert merged.to_dict() == snapshot.to_dict()
    doubled = _merged(snapshot, snapshot)
    for name, payload in doubled.histograms.items():
        base = snapshot.histograms[name]
        assert payload["count"] == 2 * base["count"]
        assert payload["min"] == base["min"]
        assert payload["max"] == base["max"]


# ----------------------------------------------------------------------
# Console
# ----------------------------------------------------------------------
def _console(quiet=False, color=False):
    out, err = io.StringIO(), io.StringIO()
    return Console(quiet=quiet, color=color, out=out, err=err), out, err


def test_console_routes_channels_to_the_right_streams():
    console, out, err = _console()
    console.result("table")
    console.data("payload")
    console.info("progress")
    console.warn("careful")
    console.error("broken")
    assert out.getvalue() == "table\npayload\n"
    assert err.getvalue() == "progress\ncareful\nbroken\n"


def test_quiet_silences_chrome_but_not_data_or_errors():
    console, out, err = _console(quiet=True)
    console.result("table")
    console.info("progress")
    console.data("payload")
    console.warn("careful")
    console.error("broken")
    assert out.getvalue() == "payload\n"
    assert err.getvalue() == "careful\nbroken\n"


def test_style_wraps_only_when_colour_is_enabled():
    coloured, _, _ = _console(color=True)
    plain, _, _ = _console(color=False)
    assert coloured.style("x", "red") == "\x1b[31mx\x1b[0m"
    assert plain.style("x", "red") == "x"
    assert coloured.style("x", "no-such-style") == "x"


def test_color_allowed_honours_no_color_and_dumb_term(monkeypatch):
    stream = io.StringIO()  # not a tty
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setenv("TERM", "xterm")
    assert color_allowed(stream) is False  # non-tty
    monkeypatch.setenv("NO_COLOR", "1")
    assert color_allowed(stream) is False
    monkeypatch.delenv("NO_COLOR")
    monkeypatch.setenv("TERM", "dumb")
    assert color_allowed(stream) is False
