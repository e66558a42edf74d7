"""Unit tests for the ``repro.obs`` core (DESIGN.md §5.8).

Covers the metric primitives (counter/gauge/histogram/timer/series),
the registry's get-or-create + type-conflict semantics, hierarchical
spans, snapshot merge determinism, the picklable plain-data boundary,
and the disabled-by-default ``NULL_OBS`` contract.
"""

import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.core import (
    DEFAULT_BUCKETS,
    NULL_OBS,
    Counter,
    Gauge,
    Histogram,
    Instrumentation,
    MetricsSnapshot,
    NullInstrumentation,
    Series,
    Timer,
    current,
    set_current,
    use,
)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def test_counter_increments_and_rejects_decrease():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ConfigurationError, match="cannot decrease"):
        counter.inc(-1)


def test_gauge_set_and_signed_inc():
    gauge = Gauge("g")
    gauge.set(3)
    gauge.inc(-1.5)
    assert gauge.value == 1.5


def test_histogram_requires_sorted_nonempty_buckets():
    with pytest.raises(ConfigurationError, match="at least one bucket"):
        Histogram("h", buckets=())
    with pytest.raises(ConfigurationError, match="sorted"):
        Histogram("h", buckets=(2.0, 1.0))


def test_histogram_buckets_observations_inclusively():
    hist = Histogram("h", buckets=(1.0, 2.0))
    for value in (0.5, 1.0, 1.5, 99.0):
        hist.observe(value)
    assert hist.counts == [2, 1, 1]  # (<=1, <=2, +Inf)
    assert hist.count == 4
    assert hist.sum == pytest.approx(102.0)
    assert hist.mean == pytest.approx(25.5)
    assert (hist.min, hist.max) == (0.5, 99.0)


def test_histogram_merge_adds_bucketwise_and_tracks_extremes():
    left = Histogram("h", buckets=(1.0, 2.0))
    right = Histogram("h", buckets=(1.0, 2.0))
    left.observe(0.5)
    right.observe(5.0)
    left.merge(right)
    assert left.counts == [1, 0, 1]
    assert left.count == 2
    assert (left.min, left.max) == (0.5, 5.0)


def test_histogram_merge_rejects_different_layouts():
    left = Histogram("h", buckets=(1.0,))
    right = Histogram("h", buckets=(2.0,))
    with pytest.raises(ConfigurationError, match="bucket layout differs"):
        left.merge(right)


def test_timer_context_and_observe_share_one_histogram():
    timer = Timer("t")
    with timer.time():
        pass
    timer.observe(0.25)
    assert timer.count == 2
    assert timer.total >= 0.25
    assert timer.mean == pytest.approx(timer.total / 2)


def test_series_appends_in_order_and_exposes_last():
    series = Series("s")
    assert len(series) == 0 and series.last is None
    series.append(1, 0.5)
    series.append(3, 0.25)
    assert series.points == [(1, 0.5), (3, 0.25)]
    assert series.last == (3, 0.25)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_accessors_get_or_create_the_same_object():
    obs = Instrumentation()
    assert obs.counter("x") is obs.counter("x")
    assert obs.series("y") is obs.series("y")


def test_name_reuse_across_types_raises():
    obs = Instrumentation()
    obs.counter("x")
    with pytest.raises(ConfigurationError, match="already registered"):
        obs.gauge("x")


def test_snapshot_partitions_metrics_by_type():
    obs = Instrumentation()
    obs.counter("c").inc(2)
    obs.gauge("g").set(1.5)
    obs.histogram("h").observe(0.2)
    obs.timer("t").observe(0.1)
    obs.series("s").append(1, 9.0)
    snap = obs.snapshot()
    assert snap.counters == {"c": 2}
    assert snap.gauges == {"g": 1.5}
    assert set(snap.histograms) == {"h", "t"}
    assert snap.histograms["t"]["unit"] == "seconds"
    assert "unit" not in snap.histograms["h"]
    assert snap.series == {"s": [[1, 9.0]]}


def test_snapshot_roundtrips_through_dict_and_pickle():
    obs = Instrumentation()
    obs.counter("c").inc()
    obs.timer("t").observe(0.5)
    obs.series("s").append(2, 3.0)
    snap = obs.snapshot()
    payload = snap.to_dict()
    assert payload["version"] == 1
    rebuilt = MetricsSnapshot.from_dict(payload)
    assert rebuilt.to_dict() == payload
    assert pickle.loads(pickle.dumps(snap)).to_dict() == payload


def test_snapshot_merge_semantics():
    left = Instrumentation()
    right = Instrumentation()
    for obs, gauge_value in ((left, 1.0), (right, 2.0)):
        obs.counter("c").inc(3)
        obs.gauge("g").set(gauge_value)
        obs.histogram("h", buckets=(1.0,)).observe(0.5)
        obs.series("s").append(1, 7.0)
    merged = left.snapshot()
    merged.merge(right.snapshot())
    assert merged.counters["c"] == 6  # counters add
    assert merged.gauges["g"] == 2.0  # last write wins
    assert merged.histograms["h"]["count"] == 2  # bucket-wise add
    assert merged.series["s"] == [[1, 7.0], [1, 7.0]]  # concatenation


def test_snapshot_merge_rejects_mismatched_histogram_layouts():
    left = Instrumentation()
    right = Instrumentation()
    left.histogram("h", buckets=(1.0,)).observe(0.5)
    right.histogram("h", buckets=(2.0,)).observe(0.5)
    merged = left.snapshot()
    with pytest.raises(ConfigurationError, match="bucket layouts"):
        merged.merge(right.snapshot())


def test_merge_snapshot_into_live_registry_is_order_deterministic():
    def worker(tag):
        obs = Instrumentation()
        obs.counter("calls").inc()
        obs.timer("t").observe(0.125)
        obs.series("s").append(1, float(tag))
        return obs.snapshot()

    snapshots = [worker(tag) for tag in (10, 20)]
    parent_a = Instrumentation()
    parent_b = Instrumentation()
    for snapshot in snapshots:
        parent_a.merge_snapshot(snapshot)
    for snapshot in snapshots:
        parent_b.merge_snapshot(snapshot)
    assert parent_a.snapshot().to_dict() == parent_b.snapshot().to_dict()
    assert parent_a.counter("calls").value == 2
    assert parent_a.timer("t").count == 2
    assert parent_a.series("s").points == [(1, 10.0), (1, 20.0)]


# ----------------------------------------------------------------------
# Spans and events
# ----------------------------------------------------------------------
def test_spans_record_hierarchy_and_attrs():
    obs = Instrumentation()
    with obs.span("outer", run=1):
        with obs.span("inner"):
            pass
    inner, outer = obs.trace_records()  # inner closes first
    assert (inner["name"], outer["name"]) == ("inner", "outer")
    assert outer["parent_id"] is None
    assert inner["parent_id"] == outer["span_id"]
    assert outer["attrs"] == {"run": 1}
    assert inner["duration_ns"] >= 0


def test_events_attach_to_the_open_span():
    obs = Instrumentation()
    obs.event("orphan")
    with obs.span("outer"):
        obs.event("child", detail=3)
    orphan, child, outer = obs.trace_records()
    assert "span_id" not in orphan
    assert child["span_id"] == outer["span_id"]
    assert child["fields"] == {"detail": 3}


def test_span_records_the_exception_type():
    obs = Instrumentation()
    with pytest.raises(ValueError):
        with obs.span("doomed"):
            raise ValueError("boom")
    (record,) = obs.trace_records()
    assert record["error"] == "ValueError"


def test_merge_trace_appends_copies():
    obs = Instrumentation()
    record = {"kind": "event", "name": "remote"}
    obs.merge_trace([record])
    merged = obs.trace_records()[0]
    assert merged == record and merged is not record


def test_merge_trace_nests_roots_under_the_open_span():
    worker = Instrumentation()
    with worker.span("unit"):
        worker.event("inside")
    worker.event("outside")
    obs = Instrumentation()
    with obs.span("outer"):
        obs.merge_trace(worker.trace_records())
    records = {record["name"]: record for record in obs.trace_records()}
    outer = records["outer"]["span_id"]
    assert records["unit"]["parent_id"] == outer
    assert records["inside"]["span_id"] == records["unit"]["span_id"] != outer
    assert records["outside"]["span_id"] == outer


# ----------------------------------------------------------------------
# Null instrumentation + process-local registry
# ----------------------------------------------------------------------
def test_null_obs_is_disabled_and_inert():
    assert NULL_OBS.enabled is False
    assert Instrumentation.enabled is True
    NULL_OBS.counter("c").inc()
    NULL_OBS.gauge("g").set(5)
    NULL_OBS.series("s").append(1, 2)
    with NULL_OBS.timer("t").time():
        pass
    with NULL_OBS.span("ignored", attr=1):
        NULL_OBS.event("ignored")
    assert NULL_OBS.trace_records() == []
    assert NULL_OBS.snapshot().to_dict() == MetricsSnapshot().to_dict()


def test_null_accessors_share_one_object():
    assert NULL_OBS.counter("a") is NULL_OBS.gauge("b") is NULL_OBS.series("c")


def test_current_defaults_to_the_null_singleton():
    assert current() is NULL_OBS


def test_use_installs_and_restores_even_on_error():
    obs = Instrumentation()
    with use(obs):
        assert current() is obs
    assert current() is NULL_OBS
    with pytest.raises(RuntimeError):
        with use(obs):
            raise RuntimeError("boom")
    assert current() is NULL_OBS


def test_set_current_none_restores_the_default():
    obs = Instrumentation()
    previous = set_current(obs)
    try:
        assert previous is NULL_OBS
        assert current() is obs
    finally:
        set_current(None)
    assert current() is NULL_OBS


def test_null_instrumentation_instances_report_disabled():
    assert NullInstrumentation().enabled is False
    assert DEFAULT_BUCKETS == tuple(sorted(DEFAULT_BUCKETS))
