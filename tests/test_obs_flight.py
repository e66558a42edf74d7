"""Decision flight recorder guarantees.

The tentpole promises, tested directly: recording changes no result
bit, ``--jobs N`` produces byte-identical logs, a SIGKILL'd run leaves
a longest-valid-prefix log, replay reproduces rewards bit-for-bit (and
pinpoints tampering), and ``fasea obs diff`` flags choice drift.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.datasets.synthetic import build_world
from repro.exceptions import ConfigurationError, SchemaError
from repro.obs.core import NULL_OBS, Instrumentation, NullInstrumentation, current, use
from repro.obs.flight import (
    DECISIONS_FILENAME,
    FLIGHT_SCHEMA_VERSION,
    FlightBuffer,
    FlightRecorder,
    cell_record,
    decision_record,
    flight_digest,
    load_flight,
    make_run_header,
    policy_digests,
    record_line,
    rng_fingerprint,
)
from repro.obs.replay import build_policy_from_spec, replay_flight, render_replay_report
from repro.obs.trace import write_trace_jsonl
from repro.parallel import PolicyRunCell, run_policy_run_cell, run_work_units
from repro.simulation.runner import run_policy

REPO_ROOT = Path(__file__).resolve().parents[1]

HORIZON = 40
RUN_SEED = 0
POLICY_SEED = 3


def _specs(*names):
    return [{"name": name, "seed": POLICY_SEED} for name in names]


def _record_log(directory, config, specs, horizon=HORIZON, run_seed=RUN_SEED):
    """Record one mode='policies' log the way quickstart --flight does."""
    world = build_world(config)
    recorder = FlightRecorder(
        directory, run=make_run_header(config, horizon, run_seed, specs)
    )
    obs = NullInstrumentation()
    obs.flight_recorder = recorder
    histories = {}
    for spec in specs:
        policy = build_policy_from_spec(spec, world)
        histories[spec["name"]] = run_policy(
            policy, world, horizon=horizon, run_seed=run_seed, obs=obs
        )
    recorder.close()
    return histories


# ----------------------------------------------------------------------
# Recorder basics
# ----------------------------------------------------------------------
def test_recorder_writes_header_then_one_record_per_round(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("UCB"))
    log = load_flight(tmp_path)
    assert log.records[0]["kind"] == "header"
    assert log.records[0]["schema_version"] == FLIGHT_SCHEMA_VERSION
    header = log.header
    assert header["mode"] == "policies"
    assert header["horizon"] == HORIZON
    decisions = log.decisions
    assert [r["t"] for r in decisions] == list(range(1, HORIZON + 1))
    first = decisions[0]
    # UCB logs its candidate scores, bound widths and a sure propensity.
    assert len(first["scores"]) == small_config.num_events
    assert len(first["widths"]) == small_config.num_events
    assert first["propensity"] == 1.0
    assert set(first["oracle"]) == {
        "candidates", "visited", "conflict_rejections",
        "capacity_rejections", "arranged",
    }
    assert first["reward"] == pytest.approx(sum(first["rewards"]))


def test_egreedy_records_coin_propensity_and_rng(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("eGreedy"))
    decisions = load_flight(tmp_path).decisions
    assert all(isinstance(r["explore"], bool) for r in decisions)
    assert {r["propensity"] for r in decisions} <= {0.1, 0.9}
    assert all(len(r["rng"]) == 16 for r in decisions)
    explores = {r["explore"] for r in decisions}
    assert explores == {True, False}  # the coin fired both ways in 40 rounds


def test_ts_records_theta_sample_but_no_propensity(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("TS"))
    first = load_flight(tmp_path).decisions[0]
    assert len(first["theta_sample"]) == small_config.dim
    assert first["propensity"] is None  # continuous density is not logged
    assert "rng" in first


def test_recording_does_not_change_results(small_config):
    world = build_world(small_config)
    plain = run_policy(
        build_policy_from_spec({"name": "eGreedy", "seed": POLICY_SEED}, world),
        world, horizon=HORIZON, run_seed=RUN_SEED,
    )
    obs = NullInstrumentation()
    obs.flight_recorder = FlightBuffer()
    recorded = run_policy(
        build_policy_from_spec({"name": "eGreedy", "seed": POLICY_SEED}, world),
        world, horizon=HORIZON, run_seed=RUN_SEED, obs=obs,
    )
    assert np.array_equal(plain.rewards, recorded.rewards)
    assert np.array_equal(plain.arranged, recorded.arranged)


def test_rng_fingerprint_reads_without_advancing():
    rng = np.random.default_rng(5)
    before = rng_fingerprint(rng)
    assert rng_fingerprint(rng) == before  # fingerprinting is passive
    rng.random()
    assert rng_fingerprint(rng) != before


def test_recorder_refuses_use_after_close(tmp_path):
    recorder = FlightRecorder(tmp_path)
    recorder.record(cell_record(0))
    recorder.close()
    recorder.close()  # idempotent
    with pytest.raises(ConfigurationError):
        recorder.record(cell_record(1))


def test_recorder_truncates_stale_logs(tmp_path):
    (tmp_path / DECISIONS_FILENAME).write_text('{"kind": "stale"}\n')
    with FlightRecorder(tmp_path) as recorder:
        recorder.record(cell_record(7))
    records = load_flight(tmp_path).records
    assert records == [{"kind": "cell", "seed": 7}]


# ----------------------------------------------------------------------
# Parallel byte-identity
# ----------------------------------------------------------------------
def _record_via_cells(directory, config, jobs):
    specs = _specs("UCB", "eGreedy")
    obs = Instrumentation()
    recorder = FlightRecorder(
        directory, run=make_run_header(config, HORIZON, RUN_SEED, specs)
    )
    obs.flight_recorder = recorder
    cells = [
        PolicyRunCell(
            config=config,
            policy_name=spec["name"],
            horizon=HORIZON,
            run_seed=RUN_SEED,
            policy_seed=POLICY_SEED,
        )
        for spec in specs
    ]
    try:
        with use(obs):
            run_work_units(run_policy_run_cell, cells, jobs=jobs)
    finally:
        recorder.close()


def test_parallel_log_is_byte_identical_to_serial(tmp_path, small_config):
    _record_via_cells(tmp_path / "serial", small_config, jobs=1)
    _record_via_cells(tmp_path / "pool", small_config, jobs=2)
    serial = (tmp_path / "serial" / DECISIONS_FILENAME).read_bytes()
    pooled = (tmp_path / "pool" / DECISIONS_FILENAME).read_bytes()
    assert serial == pooled


# ----------------------------------------------------------------------
# Crash safety
# ----------------------------------------------------------------------
def test_sigkill_leaves_longest_valid_prefix(tmp_path):
    """A real SIGKILL mid-record: strict load refuses, recovery parses."""
    script = """
import os, signal, sys
from repro.obs.flight import FlightRecorder, cell_record

recorder = FlightRecorder(sys.argv[1])
for seed in range(9):
    recorder.record(cell_record(seed))
# Leave a half-written line in flight, then die without cleanup.
recorder._handle.write('{"kind": "decision", "t": 10, "chosen": [1')
recorder._handle.flush()
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
    with pytest.raises(ConfigurationError):
        load_flight(run_dir)  # strict readers refuse the torn tail
    recovered = load_flight(run_dir, strict=False)
    assert [r["seed"] for r in recovered.records] == list(range(9))


# ----------------------------------------------------------------------
# Log model: header validation, grouping
# ----------------------------------------------------------------------
def test_header_schema_version_mismatch_raises(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("UCB"), horizon=2)
    log = load_flight(tmp_path)
    log.records[0]["schema_version"] = FLIGHT_SCHEMA_VERSION + 1
    with pytest.raises(SchemaError, match="schema version"):
        log.header
    headless = tmp_path / "headless.jsonl"
    write_trace_jsonl([cell_record(0)], headless)
    with pytest.raises(SchemaError, match="no header"):
        load_flight(headless).header


def test_cells_group_by_marker_and_reject_orphans():
    buffer = FlightBuffer()
    buffer.record(cell_record(0))
    buffer.record({"kind": "decision", "t": 1, "policy": "UCB"})
    buffer.record(cell_record(1))
    buffer.record({"kind": "decision", "t": 1, "policy": "UCB"})
    from repro.obs.flight import FlightLog

    log = FlightLog(path=None, records=buffer.records)
    assert [seed for seed, _ in log.cells()] == [0, 1]
    assert all(len(group) == 1 for _, group in log.cells())
    orphan = FlightLog(
        path=None, records=[{"kind": "decision", "t": 1, "policy": "UCB"}]
    )
    with pytest.raises(SchemaError, match="before first cell"):
        orphan.cells()


def test_digest_is_order_and_content_sensitive():
    a = {"kind": "decision", "t": 1, "policy": "UCB", "chosen": [1]}
    b = {"kind": "decision", "t": 2, "policy": "UCB", "chosen": [2]}
    assert flight_digest([a, b]) != flight_digest([b, a])
    assert policy_digests([a, b])["UCB"][0] == 2


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def test_replay_reproduces_rewards_bit_for_bit(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("UCB", "TS", "eGreedy"))
    report = replay_flight(load_flight(tmp_path))
    assert report.ok
    assert {g.label for g in report.groups} == {"UCB", "TS", "eGreedy"}
    assert all(g.logged_reward == g.replayed_reward for g in report.groups)
    assert "replay OK" in render_replay_report(report)[-1]


def test_replay_and_flight_only_runs_leave_null_obs_bare(
    tmp_path, small_config, monkeypatch, capsys
):
    # Replay and flight-only runs record on a NullInstrumentation of
    # their own; the shared NULL_OBS never carries a recorder.
    from repro import cli

    monkeypatch.setattr(cli, "_QUICKSTART_HORIZON", 60)
    assert cli_main(["quickstart", "--quiet", "--flight", "--out", str(tmp_path)]) == 0
    assert cli_main(["obs", "replay", str(tmp_path)]) == 0
    capsys.readouterr()
    assert NULL_OBS.flight_recorder is None
    report = replay_flight(load_flight(tmp_path))
    assert report.ok and len(report.groups) == 6
    assert all(g.rounds == 60 and g.first_divergence is None for g in report.groups)
    assert NULL_OBS.flight_recorder is None

    _record_log(tmp_path / "policies", small_config, _specs("UCB"))
    assert current() is NULL_OBS
    assert vars(NULL_OBS) == vars(NullInstrumentation())


def test_replay_until_truncates_both_sides(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("eGreedy"))
    report = replay_flight(load_flight(tmp_path), until=10)
    assert report.ok and report.groups[0].rounds == 10
    with pytest.raises(ConfigurationError, match="--until"):
        replay_flight(load_flight(tmp_path), until=0)


def test_replay_pinpoints_a_tampered_round(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("UCB"))
    path = tmp_path / DECISIONS_FILENAME
    lines = path.read_text().splitlines()
    tampered = json.loads(lines[20])
    assert tampered["t"] == 20
    tampered["chosen"] = list(reversed(tampered["chosen"])) or [0]
    tampered["reward"] += 1.0
    lines[20] = record_line(tampered)
    path.write_text("\n".join(lines) + "\n")
    report = replay_flight(load_flight(tmp_path))
    assert not report.ok
    assert report.groups[0].first_divergence == 20
    rendered = render_replay_report(report, diff=True)
    assert any("DIVERGED" in line for line in rendered)
    assert any(line.startswith("  *") for line in rendered)  # field diff


def test_replay_detects_truncated_logs(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("UCB"))
    path = tmp_path / DECISIONS_FILENAME
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-5]) + "\n")
    report = replay_flight(load_flight(tmp_path))
    assert not report.ok
    assert report.groups[0].first_divergence == HORIZON - 4


def test_replay_rejects_unknown_modes():
    from repro.obs.flight import FlightLog, header_record

    log = FlightLog(path=None, records=[header_record({"mode": "mystery"})])
    with pytest.raises(SchemaError, match="mode"):
        replay_flight(log)


# ----------------------------------------------------------------------
# CLI: replay exit codes, summary section, diff drift detection
# ----------------------------------------------------------------------
def test_cli_replay_exit_codes(tmp_path, small_config, capsys):
    _record_log(tmp_path, small_config, _specs("UCB"))
    assert cli_main(["obs", "replay", str(tmp_path)]) == 0
    assert "replay OK" in capsys.readouterr().out
    path = tmp_path / DECISIONS_FILENAME
    lines = path.read_text().splitlines()
    record = json.loads(lines[5])
    record["reward"] += 1.0
    lines[5] = record_line(record)
    path.write_text("\n".join(lines) + "\n")
    assert cli_main(["obs", "replay", str(tmp_path), "--diff"]) == 1
    assert "first divergence" in capsys.readouterr().out


def test_cli_summary_renders_flight_section(tmp_path, small_config, capsys):
    from repro.io.runstore import persist_run_telemetry

    _record_log(tmp_path, small_config, _specs("UCB", "eGreedy"))
    persist_run_telemetry(tmp_path, Instrumentation())
    assert cli_main(["obs", "summary", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "decision flight log" in out
    assert "eGreedy" in out and "propensity" in out


def test_cli_diff_flags_choice_drift(tmp_path, small_config, capsys):
    from repro.io.runstore import persist_run_telemetry

    base, cand = tmp_path / "base", tmp_path / "cand"
    _record_log(base, small_config, _specs("UCB"))
    _record_log(cand, small_config, _specs("UCB"))
    for directory in (base, cand):
        persist_run_telemetry(directory, Instrumentation())
    assert cli_main(["obs", "diff", str(base), str(cand)]) == 0
    capsys.readouterr()
    # Flip one choice in the candidate: same metrics, drifted decisions.
    path = cand / DECISIONS_FILENAME
    lines = path.read_text().splitlines()
    record = json.loads(lines[3])
    record["chosen"] = list(reversed(record["chosen"])) or [0]
    lines[3] = record_line(record)
    path.write_text("\n".join(lines) + "\n")
    assert cli_main(["obs", "diff", str(base), str(cand)]) == 1
    assert "choices drifted" in capsys.readouterr().out


def test_cli_diff_flags_one_sided_logs(tmp_path, small_config, capsys):
    from repro.io.runstore import persist_run_telemetry

    base, cand = tmp_path / "base", tmp_path / "cand"
    _record_log(base, small_config, _specs("UCB"), horizon=3)
    for directory in (base, cand):
        directory.mkdir(exist_ok=True)
        persist_run_telemetry(directory, Instrumentation())
    assert cli_main(["obs", "diff", str(base), str(cand)]) == 1
    assert "only in baseline" in capsys.readouterr().out
