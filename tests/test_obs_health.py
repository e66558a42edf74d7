"""Learning-health guarantees (detectors, events, persistence).

Tested directly: the sequential detectors alarm on the shifts they
advertise (and only after burn-in), the capacity cliff localizes the
golden drop-point rounds, the traced events are the detectors' pass
over the series the run recorded, each fleet call starts fresh
detectors, ``--health`` never moves one reward bit, and ``health.json``
round-trips through its schema-versioned sink.
"""

import json

import numpy as np
import pytest

from repro.bandits import OptPolicy, UcbPolicy, make_policy
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.exceptions import ConfigurationError, SchemaError
from repro.obs.core import Instrumentation
from repro.obs.health import (
    ALERT_EVENT_NAME,
    CAPACITY_CLIFF_DETECTOR,
    CUSUM_DETECTOR,
    EWMA_BAND_DETECTOR,
    HEALTH_EVENT_NAME,
    HEALTH_FILENAME,
    HEALTH_SCHEMA_VERSION,
    CliffTracker,
    EwmaBand,
    PageHinkley,
    WindowedCusum,
    drop_point_rows,
    first_drain_rounds,
    health_event,
    health_events_from_trace,
    load_alerts,
    load_health,
    persist_health,
    series_health,
    summarize_events,
)
from repro.simulation.runner import run_policy


@pytest.fixture(scope="module")
def tiny_world():
    """The seeded 6-event world whose OPT drop points are golden."""
    return build_world(
        SyntheticConfig(
            num_events=6,
            horizon=300,
            dim=3,
            capacity_mean=2.0,
            capacity_std=1.0,
            conflict_ratio=0.0,
            seed=1,
        )
    )


def _health_registry() -> Instrumentation:
    obs = Instrumentation()
    obs.health = True
    return obs


def _events(obs):
    return health_events_from_trace(obs.trace_records())


def _alerts(obs):
    return health_events_from_trace(obs.trace_records(), ALERT_EVENT_NAME)


@pytest.fixture(scope="module")
def monitored_run(tiny_world):
    obs = _health_registry()
    history = run_policy(OptPolicy(tiny_world.theta), tiny_world, run_seed=0, obs=obs)
    return obs, history


# ----------------------------------------------------------------------
# Detector unit behavior
# ----------------------------------------------------------------------
def test_page_hinkley_alarms_on_level_shifts_both_ways():
    detector = PageHinkley(delta=0.005, threshold=5.0, burn_in=10)
    directions = [detector.update(0.0) for _ in range(50)]
    assert directions == [None] * 50  # steady signal: silent
    up = [detector.update(1.0) for _ in range(30)]
    assert "up" in up
    # The alarm reset the state: a drop back alarms again, downward.
    down = [detector.update(0.0) for _ in range(60)]
    assert "down" in down


def test_page_hinkley_respects_burn_in():
    detector = PageHinkley(delta=0.0, threshold=0.5, burn_in=100)
    values = [0.0] * 20 + [10.0] * 50
    assert all(detector.update(v) is None for v in values)  # < burn_in samples


def test_windowed_cusum_alarms_on_shift_but_not_constant():
    detector = WindowedCusum(window=20, threshold=5.0, drift=0.5)
    assert all(detector.update(0.0) is None for _ in range(100))  # sigma=0 guard
    detector = WindowedCusum(window=20, threshold=5.0, drift=0.5)
    rng = np.random.default_rng(0)
    for _ in range(40):
        assert detector.update(float(rng.normal(0.0, 0.1))) is None
    shifted = [detector.update(float(rng.normal(2.0, 0.1))) for _ in range(40)]
    assert "up" in shifted


def test_ewma_band_flags_spikes_then_recenters():
    detector = EwmaBand(alpha=0.2, k=3.0, burn_in=10)
    for _ in range(30):
        assert detector.update(1.0) is None
    assert detector.update(50.0) == "high"
    # The spike was folded in; a persistent new level stops alarming.
    results = [detector.update(50.0) for _ in range(40)]
    assert results[-1] is None
    assert detector.update(-200.0) == "low"


def test_cliff_tracker_marks_onset_and_completion():
    tracker = CliffTracker()
    assert tracker.update(5, 2, 3) == [("onset", 5)]
    assert tracker.update(5, 2, 3) == []  # duplicate drain: no new mark
    assert tracker.update(9, 0, 3) == []
    assert tracker.update(7, 1, 3) == [("complete", 9)]  # last first-drain wins
    assert tracker.onset_round == 5
    assert tracker.complete_round == 9
    assert tracker.first_rounds == {2: 5, 0: 9, 1: 7}


# ----------------------------------------------------------------------
# The single drop-point implementation
# ----------------------------------------------------------------------
def test_first_drain_rounds_takes_the_earliest_report():
    points = [(12, 0.0), (4, 3.0), (2, 3.0), (15, 0.0)]
    assert first_drain_rounds(points) == {0: 12, 3: 2}


def test_drop_point_rows_match_the_golden_table(monitored_run):
    obs, _ = monitored_run
    assert drop_point_rows(obs.snapshot()) == [
        ("OPT", 0, 12),
        ("OPT", 1, 10),
        ("OPT", 2, 5),
        ("OPT", 3, 4),
        ("OPT", 4, 8),
        ("OPT", 5, 2),
    ]


# ----------------------------------------------------------------------
# Health on the golden world
# ----------------------------------------------------------------------
def test_cliff_detector_localizes_the_golden_drop_points(monitored_run):
    obs, _ = monitored_run
    summary = summarize_events(_events(obs))["OPT"]
    assert summary["cliff_onset"] == 2
    assert summary["cliff_complete"] == 12


def test_health_events_reach_the_trace(monitored_run):
    obs, _ = monitored_run
    traced = [
        record
        for record in obs.trace_records()
        if record.get("kind") == "event" and record["name"] == HEALTH_EVENT_NAME
    ]
    assert traced
    cliff = [
        r for r in traced
        if r["fields"]["detector"] == CAPACITY_CLIFF_DETECTOR
    ]
    directions = [r["fields"]["direction"] for r in cliff]
    assert directions[:2] == ["onset", "complete"]


def test_health_events_carry_no_wall_clock_fields(monitored_run):
    obs, _ = monitored_run
    forbidden = {"time", "timestamp", "wall_time", "recorded_at"}
    for event in _events(obs):
        assert event["schema_version"] == HEALTH_SCHEMA_VERSION
        assert not forbidden & set(event)


def test_monitoring_never_moves_a_reward_bit(tiny_world, monitored_run):
    _, monitored = monitored_run
    plain = run_policy(OptPolicy(tiny_world.theta), tiny_world, run_seed=0)
    np.testing.assert_array_equal(plain.rewards, monitored.rewards)
    np.testing.assert_array_equal(plain.arranged, monitored.arranged)


def test_monitoring_is_deterministic_across_repeat_runs(tiny_world, monitored_run):
    obs, _ = monitored_run
    again = _health_registry()
    run_policy(OptPolicy(tiny_world.theta), tiny_world, run_seed=0, obs=again)
    assert _events(again) == _events(obs)


def test_smoke_world_health_and_alert_counts_are_pinned():
    """Detector math and rule evaluation on a learning run, pinned exactly.

    A drifted detector default (e.g. the Page-Hinkley threshold) moves
    these counts while every reward stays put, so no reward gate sees it.
    """
    world = build_world(
        SyntheticConfig(
            num_events=20,
            horizon=120,
            dim=8,
            capacity_mean=12.0,
            capacity_std=4.0,
            conflict_ratio=0.25,
            seed=0,
        )
    )
    obs = _health_registry()
    monitored = run_policy(make_policy("UCB", dim=8, seed=1), world, run_seed=0, obs=obs)
    plain = run_policy(make_policy("UCB", dim=8, seed=1), world, run_seed=0)

    events = _events(obs)
    alerts = _alerts(obs)
    assert len(events) == 2
    assert [(e["detector"], e["round"]) for e in events] == [
        (CAPACITY_CLIFF_DETECTOR, 41),
        (EWMA_BAND_DETECTOR, 120),
    ]
    assert len(alerts) == 1
    assert (alerts[0]["rule"], alerts[0]["round"]) == ("capacity-exhaustion", 41)
    assert monitored.total_reward == 143.0
    np.testing.assert_array_equal(plain.rewards, monitored.rewards)
    np.testing.assert_array_equal(plain.arranged, monitored.arranged)


# ----------------------------------------------------------------------
# Recorded series == traced events (health is a function of the series)
# ----------------------------------------------------------------------
def test_offline_replay_reproduces_the_online_events(monitored_run, tiny_world):
    obs, _ = monitored_run
    events, alerts = series_health(
        obs.snapshot().series, ["OPT"], tiny_world.config.num_events
    )
    assert events == _events(obs)
    assert alerts == _alerts(obs)


def test_offline_replay_on_a_learning_policy(tiny_world):
    obs = _health_registry()
    run_policy(
        UcbPolicy(dim=tiny_world.config.dim), tiny_world, run_seed=0, obs=obs
    )
    events, alerts = series_health(
        obs.snapshot().series, ["UCB"], tiny_world.config.num_events
    )
    assert events == _events(obs)
    assert alerts == _alerts(obs)


def test_each_fleet_call_starts_fresh_detectors(tiny_world, monitored_run):
    """Two runs on one registry log the same events twice: the second
    reads only its own points and re-marks its own cliff onset."""
    obs, _ = monitored_run
    twice = _health_registry()
    for _ in range(2):
        run_policy(OptPolicy(tiny_world.theta), tiny_world, run_seed=0, obs=twice)
    assert _events(twice) == _events(obs) * 2
    assert _alerts(twice) == _alerts(obs) * 2


# ----------------------------------------------------------------------
# Summaries and persistence
# ----------------------------------------------------------------------
def test_summarize_events_groups_by_policy_and_detector():
    events = [
        health_event(CUSUM_DETECTOR, "TS", "reward", 40, 0.5, "down"),
        health_event(CUSUM_DETECTOR, "TS", "reward", 90, 0.25, "down"),
        health_event(EWMA_BAND_DETECTOR, "UCB", "fill", 60, 0.1, "low"),
        health_event(
            CAPACITY_CLIFF_DETECTOR, "OPT", "capacity_exhausted", 2, 5.0, "onset"
        ),
        health_event(
            CAPACITY_CLIFF_DETECTOR, "OPT", "capacity_exhausted", 12, 0.0, "complete"
        ),
    ]
    summary = summarize_events(events)
    assert summary["TS"]["detections"] == {CUSUM_DETECTOR: 2}
    assert summary["TS"]["changepoints"] == [40, 90]
    assert summary["OPT"]["cliff_onset"] == 2
    assert summary["OPT"]["cliff_complete"] == 12
    assert summary["UCB"]["detections"] == {EWMA_BAND_DETECTOR: 1}


def test_persist_and_load_health_round_trip(monitored_run, tmp_path):
    obs, _ = monitored_run
    path, num_events, num_alerts = persist_health(tmp_path, obs.trace_records())
    assert path == tmp_path / HEALTH_FILENAME
    assert (num_events, num_alerts) == (len(_events(obs)), len(_alerts(obs)))
    assert load_alerts(tmp_path) == _alerts(obs)
    payload = load_health(tmp_path)
    assert payload["version"] == HEALTH_SCHEMA_VERSION
    assert payload["events"] == _events(obs)
    assert payload["summary"]["OPT"]["cliff_onset"] == 2


def test_load_health_rejects_future_schema(tmp_path):
    (tmp_path / HEALTH_FILENAME).write_text(
        json.dumps({"version": 99, "events": []})
    )
    with pytest.raises(SchemaError):
        load_health(tmp_path)


def test_load_health_missing_file_is_an_error(tmp_path):
    with pytest.raises(ConfigurationError):
        load_health(tmp_path)
