"""Off-policy evaluation from recorded decision logs.

The observatory's statistical promises: a deterministic policy
evaluated on its *own* log matches every round and IPS equals the
realized value exactly (self-consistency); streams without logged
propensities (TS, Random) disable the importance-weighted estimators
but keep DM; and the estimators rank a strong logging policy's value
consistently with its realized reward.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.datasets.synthetic import build_world
from repro.exceptions import ConfigurationError
from repro.obs.core import NullInstrumentation
from repro.obs.flight import (
    FlightRecorder,
    load_flight,
    make_replication_header,
    make_run_header,
)
from repro.obs.ope import evaluate_policy, render_ope_report
from repro.obs.replay import build_policy_from_spec
from repro.simulation.runner import run_policy

HORIZON = 60
RUN_SEED = 0
POLICY_SEED = 3


def _record(directory, config, names, horizon=HORIZON):
    specs = [{"name": name, "seed": POLICY_SEED} for name in names]
    world = build_world(config)
    recorder = FlightRecorder(
        directory, run=make_run_header(config, horizon, RUN_SEED, specs)
    )
    obs = NullInstrumentation()
    obs.flight_recorder = recorder
    for spec in specs:
        policy = build_policy_from_spec(spec, world)
        run_policy(policy, world, horizon=horizon, run_seed=RUN_SEED, obs=obs)
    recorder.close()


# ----------------------------------------------------------------------
# Self-consistency: a deterministic policy on its own log
# ----------------------------------------------------------------------
def test_deterministic_target_on_own_log_is_exact(tmp_path, small_config):
    _record(tmp_path, small_config, ["UCB"])
    report = evaluate_policy(load_flight(tmp_path), "UCB")
    assert report.match_rate == 1.0
    assert report.propensity_coverage == 1.0
    # Every round matches with propensity 1, so IPS *is* the realized mean.
    assert report.ips.value == pytest.approx(report.realized_value, abs=1e-12)
    assert report.snips.value == pytest.approx(report.realized_value, abs=1e-12)
    assert report.ips.low <= report.ips.value <= report.ips.high


def test_estimates_rank_consistently_with_realized_reward(tmp_path, small_config):
    """UCB evaluated on eGreedy traffic lands near UCB's true value."""
    _record(tmp_path, small_config, ["UCB", "eGreedy"], horizon=150)
    log = load_flight(tmp_path)
    ucb_true = evaluate_policy(log, "UCB", behavior="UCB").realized_value
    egreedy_true = evaluate_policy(
        log, "eGreedy", behavior="eGreedy"
    ).realized_value
    counterfactual = evaluate_policy(log, "UCB", behavior="eGreedy")
    assert counterfactual.match_rate > 0.0
    # DR is the robust headline estimate: closer to UCB's realized value
    # than to the (weaker) behavior policy's.
    assert abs(counterfactual.dr.value - ucb_true) < abs(
        counterfactual.dr.value - egreedy_true
    ) or ucb_true == pytest.approx(egreedy_true)


# ----------------------------------------------------------------------
# Propensity coverage gates the importance-weighted estimators
# ----------------------------------------------------------------------
def test_ts_behavior_disables_weighted_estimators(tmp_path, small_config):
    _record(tmp_path, small_config, ["TS"])
    report = evaluate_policy(load_flight(tmp_path), "UCB")
    assert report.propensity_coverage == 0.0
    assert report.dm.value is not None  # the model-based path survives
    for estimate in (report.ips, report.snips, report.dr):
        assert estimate.value is None
        assert "propensities logged" in estimate.note
    rendered = "\n".join(render_ope_report(report))
    assert "unavailable" in rendered and "DM" in rendered


def test_egreedy_propensities_enable_all_estimators(tmp_path, small_config):
    _record(tmp_path, small_config, ["eGreedy"])
    report = evaluate_policy(load_flight(tmp_path), "eGreedy")
    assert report.propensity_coverage == 1.0
    for estimate in (report.dm, report.ips, report.snips, report.dr):
        assert estimate.value is not None


# ----------------------------------------------------------------------
# Stream selection and log-mode guards
# ----------------------------------------------------------------------
def test_multi_stream_log_requires_behavior(tmp_path, small_config):
    _record(tmp_path, small_config, ["UCB", "eGreedy"])
    log = load_flight(tmp_path)
    with pytest.raises(ConfigurationError, match="--behavior"):
        evaluate_policy(log, "UCB")
    with pytest.raises(ConfigurationError, match="no logged stream"):
        evaluate_policy(log, "UCB", behavior="Exploit")
    assert evaluate_policy(log, "UCB", behavior="UCB").match_rate == 1.0


def test_replication_logs_are_replay_only(tmp_path, small_config):
    from repro.obs.flight import FlightLog, header_record

    header = make_replication_header(small_config, 10, [0, 1], ["UCB"], 1)
    log = FlightLog(path=None, records=[header_record(header)])
    with pytest.raises(ConfigurationError, match="replay-only"):
        evaluate_policy(log, "UCB")


def test_gap_in_the_behavior_stream_is_refused(tmp_path, small_config):
    from repro.exceptions import SchemaError

    _record(tmp_path, small_config, ["UCB"], horizon=10)
    log = load_flight(tmp_path)
    log.records[:] = [
        r for r in log.records if r.get("t") != 5
    ]
    with pytest.raises(SchemaError, match="gap"):
        evaluate_policy(log, "UCB")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_ope_text_and_json(tmp_path, small_config, capsys):
    _record(tmp_path, small_config, ["eGreedy"])
    assert cli_main(
        ["obs", "ope", str(tmp_path), "--policy", "UCB", "--bootstrap", "200"]
    ) == 0
    out = capsys.readouterr().out
    assert "target policy : UCB" in out and "SNIPS" in out
    assert cli_main(
        [
            "obs", "ope", str(tmp_path), "--policy", "UCB",
            "--bootstrap", "200", "--format", "json",
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == "UCB"
    assert set(payload["estimates"]) == {"dm", "ips", "snips", "dr"}
    assert 0.0 <= payload["match_rate"] <= 1.0
