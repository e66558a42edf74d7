"""Telemetry-on-the-hot-path guarantees (DESIGN.md §5.8).

Three promises of the instrumented runtime, tested end to end:

1. **Common random numbers.**  Instrumentation never touches an RNG
   stream, so every policy's rewards are bit-identical with telemetry
   enabled or disabled (and under the fleet runner's shared stream).
2. **Complete coverage.**  An instrumented run records the documented
   per-policy metrics: select/observe timers, reward and theta-drift
   series, oracle counters, and the ``run_policy`` span.
3. **Deterministic worker merge.**  ``run_work_units`` merges worker
   snapshots in submission order, so the aggregate registry is the
   same for every ``jobs`` value.

Plus the ``fasea obs`` CLI verbs over artefacts written by a real run.
"""

import json

import numpy as np
import pytest

from repro.bandits import (
    EpsilonGreedyPolicy,
    ExploitPolicy,
    OptPolicy,
    RandomPolicy,
    ThompsonSamplingPolicy,
    UcbPolicy,
)
from repro.cli import main as cli_main
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.io.runstore import persist_run_telemetry
from repro.obs.cli import diff_snapshots, load_snapshot
from repro.obs.core import Instrumentation, current, use
from repro.parallel.executor import run_work_units
from repro.simulation.fleet import run_policy_fleet
from repro.simulation.runner import run_policy

HORIZON = 40


@pytest.fixture(scope="module")
def world():
    return build_world(
        SyntheticConfig(
            num_events=8,
            horizon=HORIZON,
            dim=4,
            capacity_mean=6.0,
            capacity_std=2.0,
            seed=3,
        )
    )


def _fresh_policies(world):
    dim = world.config.dim
    return {
        "UCB": UcbPolicy(dim=dim),
        "TS": ThompsonSamplingPolicy(dim=dim, seed=0),
        "eGreedy": EpsilonGreedyPolicy(dim=dim, seed=0),
        "Exploit": ExploitPolicy(dim=dim),
        "Random": RandomPolicy(seed=0),
        "OPT": OptPolicy(world.theta),
    }


# ----------------------------------------------------------------------
# 1. Instrumentation changes nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["UCB", "TS", "eGreedy", "Exploit", "Random", "OPT"])
def test_rewards_are_bit_identical_with_obs_on_and_off(world, name):
    plain = run_policy(_fresh_policies(world)[name], world, run_seed=1)
    instrumented = run_policy(
        _fresh_policies(world)[name], world, run_seed=1, obs=Instrumentation()
    )
    np.testing.assert_array_equal(plain.rewards, instrumented.rewards)
    np.testing.assert_array_equal(plain.arranged, instrumented.arranged)


def test_fleet_rewards_are_bit_identical_with_obs_on_and_off(world):
    plain = run_policy_fleet(_fresh_policies(world), world, run_seed=2)
    instrumented = run_policy_fleet(
        _fresh_policies(world), world, run_seed=2, obs=Instrumentation()
    )
    assert plain.keys() == instrumented.keys()
    for name in plain:
        np.testing.assert_array_equal(
            plain[name].rewards, instrumented[name].rewards
        )


# ----------------------------------------------------------------------
# 2. An instrumented run records the documented telemetry
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ucb_obs(world):
    obs = Instrumentation()
    run_policy(UcbPolicy(dim=world.config.dim), world, run_seed=1, obs=obs)
    return obs


def test_run_records_timers_series_and_counters(ucb_obs):
    snap = ucb_obs.snapshot()
    assert snap.counters["policy.UCB.rounds"] == HORIZON
    assert snap.counters["policy.UCB.oracle.calls"] == HORIZON
    assert snap.counters["env.rounds"] == HORIZON
    for timer in ("select_seconds", "observe_seconds"):
        assert snap.histograms[f"policy.UCB.{timer}"]["count"] == HORIZON
    for series in ("reward", "theta_drift", "ucb_width", "oracle.fill_rate_series"):
        assert len(snap.series[f"policy.UCB.{series}"]) == HORIZON


def test_theta_drift_shrinks_as_the_model_learns(ucb_obs):
    points = ucb_obs.snapshot().series["policy.UCB.theta_drift"]
    assert points[-1][1] < points[0][1]


def test_run_emits_a_run_policy_span(ucb_obs):
    spans = [r for r in ucb_obs.trace_records() if r.get("kind") == "span"]
    run_span = next(s for s in spans if s["name"] == "run_policy")
    assert run_span["attrs"]["policy"] == "UCB"
    assert run_span["attrs"]["horizon"] == HORIZON


def test_disabled_run_registers_nothing():
    # The module default stays NULL_OBS; nothing leaks between tests.
    assert current().enabled is False
    assert current().trace_records() == []


# ----------------------------------------------------------------------
# 3. Parallel merge determinism
# ----------------------------------------------------------------------
def _observed_square(value):
    obs = current()
    obs.counter("worker.calls").inc()
    obs.series("worker.values").append(int(value), float(value * value))
    return value * value


def _merged_run(jobs):
    obs = Instrumentation()
    with use(obs):
        results = run_work_units(_observed_square, [3, 1, 2], jobs=jobs)
    return results, obs.snapshot()


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_metrics_merge_identically_for_every_jobs_value(jobs):
    results, snap = _merged_run(jobs)
    assert results == [9, 1, 4]
    assert snap.counters["worker.calls"] == 3
    assert snap.counters["parallel.units"] == 3
    # Submission-order merge: series order matches unit order either way.
    assert snap.series["worker.values"] == [[3, 9.0], [1, 1.0], [2, 4.0]]
    assert snap.histograms["parallel.cell_seconds"]["count"] == 3
    assert len(snap.series["parallel.cell_wall_seconds"]) == 3


def test_serial_and_pool_runs_agree_up_to_timings():
    _, serial = _merged_run(jobs=1)
    _, pooled = _merged_run(jobs=2)
    drift = diff_snapshots(serial, pooled, ignore_timings=True)
    # Only the worker-count gauge may legitimately differ.
    assert all("parallel:workers" in line or "parallel.workers" in line for line in drift)


# ----------------------------------------------------------------------
# fasea obs CLI over real artefacts
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def run_dir(world, tmp_path_factory):
    directory = tmp_path_factory.mktemp("obs_run")
    obs = Instrumentation()
    run_policy(UcbPolicy(dim=world.config.dim), world, run_seed=1, obs=obs)
    persist_run_telemetry(directory, obs)
    return directory


def test_cli_summary_text(run_dir, capsys):
    assert cli_main(["obs", "summary", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "counters" in out and "policy.UCB.rounds" in out


def test_cli_summary_json(run_dir, capsys):
    assert cli_main(["obs", "summary", "--format", "json", str(run_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1


def test_cli_summary_json_key_order_is_stable(run_dir, capsys):
    # The JSON document is a diffable artefact: section order is fixed
    # by the schema and every section's keys are sorted, so re-emitting
    # the same snapshot yields byte-identical output.
    assert cli_main(["obs", "summary", "--format", "json", str(run_dir)]) == 0
    first = capsys.readouterr().out
    assert cli_main(["obs", "summary", "--format", "json", str(run_dir)]) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert list(payload) == [
        "counters",
        "gauges",
        "histograms",
        "meta",
        "series",
        "version",
    ]  # sort_keys=True at the serialiser: alphabetical, always
    for section in ("counters", "gauges", "histograms", "series"):
        keys = list(payload[section])
        assert keys == sorted(keys)


def test_cli_summary_quiet_still_emits_machine_formats(run_dir, capsys):
    assert (
        cli_main(["obs", "summary", "--quiet", "--format", "json", str(run_dir)]) == 0
    )
    assert json.loads(capsys.readouterr().out)["version"] == 1


def test_cli_trace_renders_the_span_tree(run_dir, capsys):
    assert cli_main(["obs", "trace", str(run_dir)]) == 0
    assert "run_policy" in capsys.readouterr().out


def test_cli_missing_artifacts_exit_2(tmp_path, capsys):
    assert cli_main(["obs", "summary", str(tmp_path)]) == 2
    assert "no metrics snapshot" in capsys.readouterr().err
    assert cli_main(["obs", "trace", str(tmp_path)]) == 2
    assert "no trace file" in capsys.readouterr().err


def test_cli_diff_agrees_with_itself(run_dir, capsys):
    assert cli_main(["obs", "diff", str(run_dir), str(run_dir)]) == 0
    assert "agree" in capsys.readouterr().err


def test_cli_diff_flags_drift(run_dir, tmp_path, capsys):
    snapshot = load_snapshot(run_dir)
    snapshot.counters["policy.UCB.rounds"] += 1
    snapshot.counters["brand.new"] = 1.0
    drifted = tmp_path / "metrics.json"
    from repro.obs.export import snapshot_to_json

    drifted.write_text(snapshot_to_json(snapshot))
    assert cli_main(["obs", "diff", str(run_dir), str(drifted)]) == 1
    captured = capsys.readouterr()
    assert "! counter:policy.UCB.rounds" in captured.out
    assert "+ counter:brand.new" in captured.out
    assert "drifted" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["trace", "{run}", "--limit", "-1"], "--limit must be >= 1"),
        (["profile", "{run}", "--limit", "-1"], "--limit must be >= 1"),
        (["diff", "{run}", "{run}", "--tolerance", "-1"], "--tolerance must be >= 0"),
        # The follow loop's poll interval, once also ``obs tail``'s: an
        # infinite interval is refused as well as a negative one.
        (["top", "{run}", "--interval", "inf", "--max-updates", "2"], "--interval"),
        (["top", "{run}", "--interval", "-1", "--max-updates", "2"], "--interval"),
    ],
    ids=["trace-limit", "profile-limit", "diff-tolerance", "tail-interval", "top-interval"],
)
def test_cli_nonsense_numbers_are_usage_errors(run_dir, capsys, argv, message):
    argv = [arg.format(run=run_dir) for arg in argv]
    assert cli_main(["obs", *argv]) == 2
    captured = capsys.readouterr()
    assert f"fasea obs: {message}" in captured.err
    assert "Traceback" not in captured.err
