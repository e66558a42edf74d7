"""The built-in alerts of the learning-health pass.

Tested directly: ``capacity-exhaustion`` fires on each capacity-cliff
mark, ``reward-collapse`` and ``theta-divergence`` are edge-triggered
over cell-local windows, the crash-safe ``alerts.jsonl`` writer follows
the flight-recorder discipline, and a parallel run's ``alerts.jsonl`` is
byte-identical to the serial one — and, with its ``health.json``, to
the pinned bytes of a run in which all three alerts fire.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bandits import OptPolicy, RandomPolicy
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.exceptions import ConfigurationError
from repro.obs.core import Instrumentation, use
from repro.obs.flight import FlightRecorder
from repro.obs.health import (
    ALERT_EVENT_NAME,
    ALERTS_FILENAME,
    ALERTS_SCHEMA_VERSION,
    CAPACITY_CLIFF_DETECTOR,
    CAPACITY_EXHAUSTION_ALERT,
    HEALTH_FILENAME,
    REWARD_COLLAPSE_ALERT,
    REWARD_COLLAPSE_WINDOW,
    THETA_DIVERGENCE_ALERT,
    health_events_from_trace,
    load_alerts,
    persist_health,
    record_fleet_health,
    series_health,
    series_marks,
)
from repro.parallel import PolicyRunCell, run_policy_run_cell, run_work_units
from repro.simulation.fleet import run_policy_fleet


def _rules(alerts):
    return [(record["rule"], record["round"]) for record in alerts]


def _rewards(label, values, start=1):
    """A ``policy.<label>.reward`` series over consecutive rounds."""
    return {f"policy.{label}.reward": list(enumerate(values, start=start))}


# ----------------------------------------------------------------------
# Alert semantics
# ----------------------------------------------------------------------
def test_default_rules_include_the_capacity_exhaustion_alert():
    _, alerts = series_health({"policy.OPT.capacity_exhausted": [(4, 5.0)]}, ["OPT"], 1)
    assert alerts == [
        {
            "kind": "alert",
            "schema_version": ALERTS_SCHEMA_VERSION,
            "rule": CAPACITY_EXHAUSTION_ALERT,
            "severity": "warning",
            "detector": CAPACITY_CLIFF_DETECTOR,
            "policy": "OPT",
            "metric": "capacity_exhausted",
            "direction": direction,
            "round": 4,
            "value": 5.0,
        }
        for direction in ("onset", "complete")
    ]


def test_detector_rule_fires_on_matching_health_events():
    # A reward level shift: Page-Hinkley and CUSUM events, no alert.
    series = _rewards("UCB", [0.0 if round_ < 60 else 5.0 for round_ in range(1, 120)])
    events, alerts = series_health(series, ["UCB"], 3)
    assert events and alerts == []
    series["policy.UCB.capacity_exhausted"] = [(120, 2.0), (121, 2.0)]  # already drained
    _, alerts = series_health(series, ["UCB"], 3)
    assert _rules(alerts) == [(CAPACITY_EXHAUSTION_ALERT, 120)]
    assert alerts[0]["direction"] == "onset"


def test_metric_rule_is_edge_triggered():
    series = _rewards("TS", [1.0] * 5)
    series["policy.TS.theta_drift"] = list(enumerate([5.0, 20.0, 30.0, 5.0, 25.0], start=1))
    _, alerts = series_health(series, ["TS"], 1)
    # Fires on each false->true transition only: rounds 2 and 5.
    assert _rules(alerts) == [(THETA_DIVERGENCE_ALERT, 2), (THETA_DIVERGENCE_ALERT, 5)]
    record = alerts[0]
    assert record["schema_version"] == ALERTS_SCHEMA_VERSION
    assert record["metric"] == "policy.TS.theta_drift"
    assert record["value"] == 20.0 and record["severity"] == "critical"


def test_series_window_minimum_guard():
    _, alerts = series_health(_rewards("TS", [0.0] * (REWARD_COLLAPSE_WINDOW - 1)), ["TS"], 1)
    assert alerts == []  # fewer rewards than the window
    _, alerts = series_health(_rewards("TS", [0.0] * REWARD_COLLAPSE_WINDOW), ["TS"], 1)
    assert _rules(alerts) == [(REWARD_COLLAPSE_ALERT, REWARD_COLLAPSE_WINDOW)]
    assert alerts[0]["metric"] == "policy.TS.reward"
    assert alerts[0]["value"] == 0.0


def test_reward_windows_are_cell_local():
    obs = Instrumentation()
    rewards = obs.series("policy.TS.reward")
    for round_ in range(1, REWARD_COLLAPSE_WINDOW):
        rewards.append(round_, 0.0)
    # A new cell reads from its own start: one more zero reward does not
    # complete the earlier cell's window.
    marks = series_marks(obs, ["TS"])
    rewards.append(1, 0.0)
    record_fleet_health(obs, ["TS"], marks, 1)
    assert health_events_from_trace(obs.trace_records(), ALERT_EVENT_NAME) == []


# ----------------------------------------------------------------------
# The crash-safe log
# ----------------------------------------------------------------------
def test_alert_line_serializes_with_sorted_keys(tmp_path):
    with FlightRecorder(tmp_path, filename=ALERTS_FILENAME) as log:
        log.record({"b": 1, "a": 2})
    assert (tmp_path / ALERTS_FILENAME).read_text() == '{"a": 2, "b": 1}\n'


def test_alert_log_truncates_and_appends(tmp_path):
    (tmp_path / ALERTS_FILENAME).write_text('{"kind": "stale"}\n')
    with FlightRecorder(tmp_path, filename=ALERTS_FILENAME) as log:
        log.record({"kind": "alert", "round": 1})
        log.extend([{"kind": "alert", "round": 2}])
        assert log.num_records == 2
    assert load_alerts(tmp_path) == [
        {"kind": "alert", "round": 1},
        {"kind": "alert", "round": 2},
    ]


def test_alert_log_refuses_use_after_close(tmp_path):
    log = FlightRecorder(tmp_path, filename=ALERTS_FILENAME)
    log.close()
    with pytest.raises(ConfigurationError, match="alerts.jsonl"):
        log.record({"kind": "alert"})


def test_load_alerts_recovers_longest_valid_prefix(tmp_path):
    path = tmp_path / ALERTS_FILENAME
    lines = [json.dumps({"round": i}) for i in range(3)]
    path.write_text("\n".join(lines) + '\n{"round": 3, "trunc')
    with pytest.raises(Exception):
        load_alerts(tmp_path)  # strict: a torn tail is an error
    recovered = load_alerts(tmp_path, strict=False)
    assert recovered == [{"round": 0}, {"round": 1}, {"round": 2}]


def test_load_alerts_missing_log_reads_empty(tmp_path):
    assert load_alerts(tmp_path) == []


# ----------------------------------------------------------------------
# Serial vs parallel byte-identity
# ----------------------------------------------------------------------
EXHAUST_CONFIG = SyntheticConfig(
    num_events=6,
    horizon=40,
    dim=3,
    capacity_mean=2.0,
    capacity_std=1.0,
    conflict_ratio=0.0,
    seed=1,
)


def _monitored(directory, fn, units, jobs):
    """Run ``units`` with ``--health``; write its logs into ``directory``."""
    obs = Instrumentation()
    obs.health = True
    with use(obs):
        run_work_units(fn, units, jobs=jobs)
    persist_health(directory, obs.trace_records())


def test_parallel_alert_log_is_byte_identical_to_serial(tmp_path):
    cells = [
        PolicyRunCell(
            config=EXHAUST_CONFIG,
            policy_name=name,
            horizon=40,
            run_seed=0,
            policy_seed=3,
        )
        for name in ("OPT", "UCB", "eGreedy")
    ]
    _monitored(tmp_path / "serial", run_policy_run_cell, cells, jobs=1)
    _monitored(tmp_path / "pool", run_policy_run_cell, cells, jobs=2)
    for log in (ALERTS_FILENAME, HEALTH_FILENAME):
        serial = (tmp_path / "serial" / log).read_bytes()
        assert serial == (tmp_path / "pool" / log).read_bytes(), log
    # The tiny world exhausts under OPT, so the gate is non-vacuous.
    assert any(
        record["rule"] == "capacity-exhaustion"
        for record in load_alerts(tmp_path / "serial")
    )


# ----------------------------------------------------------------------
# The built-in alerts, pinned byte for byte
# ----------------------------------------------------------------------
class _FarPolicy(RandomPolicy):
    """Random arrangements with an estimate far from θ (‖θ‖ ≤ 1)."""

    name = "Far"

    def theta_estimate(self):
        return np.full(EXHAUST_CONFIG.dim, 20.0)


def _drained_fleet(run_seed):
    """OPT and two diverged learners on the tiny world until it drains.

    The dict order is not the sorted label order, which is the order the
    metric alerts of one round are written in.
    """
    world = build_world(EXHAUST_CONFIG)
    policies = {
        "OPT": OptPolicy(world.theta),
        "Far": _FarPolicy(seed=5),
        "Away": _FarPolicy(seed=6),
    }
    histories = run_policy_fleet(policies, world, horizon=300, run_seed=run_seed)
    return {name: history.total_reward for name, history in histories.items()}


#: alerts.jsonl of two drained cells: each cell's θ̂ divergence of Away
#: and Far at round 1, every policy's capacity-exhaustion onset and
#: completion, and each policy's reward collapse once its last 200
#: rewards average < 0.05.  Written by the rule engine the live health
#: monitor replaced, and unchanged since.
PINNED_ALERTS = Path(__file__).parent / "fixtures" / "alerts" / "builtin_alerts.jsonl"
#: health.json of the same run: every policy's cliff onset and
#: completion per cell, in fleet order within a round.  Written by the
#: live health monitor the per-cell pass replaced.
PINNED_HEALTH = Path(__file__).parent / "fixtures" / "alerts" / "builtin_health.json"


@pytest.mark.parametrize("jobs", [1, 2])
def test_builtin_alerts_fire_and_are_pinned(tmp_path, jobs):
    _monitored(tmp_path, _drained_fleet, [0, 1], jobs=jobs)
    rules = {record["rule"] for record in load_alerts(tmp_path)}
    assert rules == {"capacity-exhaustion", "reward-collapse", "theta-divergence"}
    assert (tmp_path / ALERTS_FILENAME).read_bytes() == PINNED_ALERTS.read_bytes()
    assert (tmp_path / HEALTH_FILENAME).read_bytes() == PINNED_HEALTH.read_bytes()
