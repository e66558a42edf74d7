"""Every runner plays through the one round loop, ``fleet.play_fleet``.

The trace replay, the real-data replay, the Remark 1 roster and the
Remark 2 dynamic runner are round sources (or a policy wrapper) of the
same loop as ``run_policy``.  These tests pin their exact per-round
outputs, check that they record ``run_policy``'s telemetry, and that
every runner applies the same horizon rule.
"""

import numpy as np
import pytest

from repro.bandits import ExploitPolicy, RandomPolicy, UcbPolicy
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.exceptions import ConfigurationError
from repro.experiments.extras import extensions_experiment
from repro.extensions import DynamicEventSchedule, run_dynamic_policy
from repro.obs.core import Instrumentation, use
from repro.simulation.fleet import run_policy_fleet
from repro.simulation.realdata import run_real_policy
from repro.simulation.runner import run_policy
from repro.simulation.trace import record_trace, replay_trace

HORIZON = 30


@pytest.fixture(scope="module")
def world():
    return build_world(
        SyntheticConfig(
            num_events=12,
            horizon=200,
            dim=4,
            capacity_mean=8.0,
            capacity_std=3.0,
            conflict_ratio=0.25,
            seed=0,
        )
    )


@pytest.fixture(scope="module")
def schedule():
    return DynamicEventSchedule.round_robin(num_events=12, num_phases=2, phase_length=5)


# ----------------------------------------------------------------------
# One horizon rule for every runner
# ----------------------------------------------------------------------
RUNNERS = {
    "run_policy": lambda world, damai, schedule, horizon: run_policy(
        RandomPolicy(seed=0), world, horizon=horizon
    ),
    "run_policy_fleet": lambda world, damai, schedule, horizon: run_policy_fleet(
        {"Random": RandomPolicy(seed=0)}, world, horizon=horizon
    ),
    "run_dynamic_policy": lambda world, damai, schedule, horizon: run_dynamic_policy(
        RandomPolicy(seed=0), world, schedule, horizon=horizon
    ),
    "record_trace": lambda world, damai, schedule, horizon: record_trace(
        world, horizon=horizon
    ),
    "run_real_policy": lambda world, damai, schedule, horizon: run_real_policy(
        RandomPolicy(seed=0), damai, damai.users[0], 5, horizon
    ),
}


@pytest.mark.parametrize("horizon", [0, -1])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_every_runner_rejects_a_horizon_below_one(runner, horizon, world, damai, schedule):
    with pytest.raises(ConfigurationError, match="horizon must be >= 1"):
        RUNNERS[runner](world, damai, schedule, horizon)


# ----------------------------------------------------------------------
# Exact outputs, pinned from the hand-written loops these replaced
# ----------------------------------------------------------------------
def _assert_history(history, name, rewards, arranged):
    assert history.policy_name == name
    np.testing.assert_array_equal(history.rewards, rewards)
    np.testing.assert_array_equal(history.arranged, arranged)


REAL_USER_1 = {
    (5, "UCB"): [1] * 4 + [2] * 4 + [3] * 9 + [2, 2, 3, 3, 4, 4] + [3] * 7,
    (5, "Exploit"): [2] * 15 + [3, 3, 3, 3, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3],
    ("full", "UCB"): [2, 3, 3, 3, 4, 4, 4, 4] + [5] * 22,
    ("full", "Exploit"): [3] + [4] * 13 + [5] * 16,
}


@pytest.mark.parametrize("mode, name", sorted(REAL_USER_1, key=str))
def test_real_replay_rewards_are_pinned(damai, mode, name):
    policy = UcbPolicy(dim=20) if name == "UCB" else ExploitPolicy(dim=20)
    history = run_real_policy(policy, damai, damai.users[1], mode, HORIZON)
    capacity = 5 if mode == 5 else 10
    _assert_history(history, name, REAL_USER_1[mode, name], [capacity] * HORIZON)


def test_dynamic_runner_outputs_are_pinned(world, schedule):
    ucb = run_dynamic_policy(UcbPolicy(dim=4), world, schedule, horizon=HORIZON, run_seed=1)
    _assert_history(
        ucb,
        "UCB+dynamic",
        [1, 1, 1, 2, 1, 1, 2, 0, 1, 2, 1, 0, 0, 1, 1, 0, 2, 0, 1, 1, 2, 1, 0, 0, 1, 0, 0, 1, 1, 1],
        [3, 3, 1, 4, 1, 2, 2, 2, 4, 4, 2, 3, 2, 2, 3, 4, 2, 2, 3, 3, 3, 3, 3, 3, 3, 4, 3, 4, 2, 3],
    )
    random_run = run_dynamic_policy(
        RandomPolicy(seed=0), world, schedule, horizon=HORIZON, run_seed=1
    )
    _assert_history(
        random_run,
        "Random+dynamic",
        [1, 1, 1, 2, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 1, 0, 0, 0, 0, 0, 1, 1, 1],
        [3, 4, 1, 4, 1, 2, 2, 2, 4, 4, 2, 3, 2, 2, 3, 4, 2, 2, 3, 3, 3, 3, 3, 3, 3, 4, 3, 4, 2, 3],
    )


def test_random_trace_replay_is_pinned(world):
    trace = record_trace(world, horizon=60, run_seed=3)
    _assert_history(
        replay_trace(RandomPolicy(seed=0), trace),
        "Random",
        [0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 0, 2, 0, 0, 1,
         1, 1, 2, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 1, 0,
         1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 2, 1, 0, 0, 0, 0],
        [3, 2, 1, 1, 4, 1, 4, 2, 4, 2, 3, 1, 3, 1, 4, 1, 4, 3, 1, 4,
         4, 5, 4, 1, 1, 3, 3, 4, 1, 3, 3, 2, 2, 1, 3, 3, 1, 2, 1, 4,
         1, 5, 4, 5, 3, 1, 4, 3, 1, 5, 2, 1, 2, 1, 4, 1, 1, 3, 4, 3],
    )


def test_remark_1_roster_ratios_are_pinned():
    roster = extensions_experiment(horizon=200).tables[0]
    assert roster.rows == [
        ["shared UCB", 0.24],
        ["per-user UCB pool", 0.5633333333333334],
    ]


# ----------------------------------------------------------------------
# The same telemetry on every path
# ----------------------------------------------------------------------
def _metric_names(run, key):
    """Every metric name ``run`` records, with its policy key masked."""
    obs = Instrumentation()
    with use(obs):
        run()
    snap = obs.snapshot()
    names = set(snap.counters) | set(snap.gauges) | set(snap.histograms) | set(snap.series)
    assert snap.counters["env.rounds"] == HORIZON
    assert snap.counters[f"policy.{key}.rounds"] == HORIZON
    for timer in ("select_seconds", "observe_seconds"):
        assert snap.histograms[f"policy.{key}.{timer}"]["count"] == HORIZON
    assert len(snap.series[f"policy.{key}.reward"]) == HORIZON
    return {name.replace(f"policy.{key}.", "policy.<key>.") for name in names}


def test_every_runner_records_run_policy_telemetry(world, damai, schedule):
    expected = _metric_names(
        lambda: run_policy(UcbPolicy(dim=4), world, horizon=HORIZON, run_seed=3), "UCB"
    )
    assert "policy.<key>.theta_drift" in expected
    trace = record_trace(world, horizon=HORIZON, run_seed=3)
    assert _metric_names(lambda: replay_trace(UcbPolicy(dim=4), trace), "UCB") == expected
    dynamic = _metric_names(
        lambda: run_dynamic_policy(UcbPolicy(dim=4), world, schedule, horizon=HORIZON),
        "UCB+dynamic",
    )
    assert dynamic == expected
    real = _metric_names(
        lambda: run_real_policy(UcbPolicy(dim=20), damai, damai.users[1], 5, HORIZON), "UCB"
    )
    # Real data has no true theta, and its seats never run out.
    assert real == expected - {"policy.<key>.theta_drift", "policy.<key>.capacity_exhausted"}
