"""The round runner."""

import numpy as np
import pytest

from repro.bandits import OptPolicy, RandomPolicy, RoundView, UcbPolicy, make_policy
from repro.obs.core import Instrumentation
from repro.simulation.environment import RoundStream
from repro.simulation.fleet import run_policy_fleet
from repro.simulation.runner import run_policy


def test_runner_produces_a_full_history(small_world):
    history = run_policy(RandomPolicy(seed=0), small_world, horizon=50)
    assert history.horizon == 50
    assert history.policy_name == "Random"
    assert np.all(history.rewards <= history.arranged)
    assert history.avg_round_time > 0


def test_runner_defaults_to_the_config_horizon(small_world):
    history = run_policy(RandomPolicy(seed=0), small_world)
    assert history.horizon == small_world.config.horizon


def test_runner_is_deterministic_given_all_seeds(small_world):
    a = run_policy(UcbPolicy(dim=4), small_world, horizon=40, run_seed=2)
    b = run_policy(UcbPolicy(dim=4), small_world, horizon=40, run_seed=2)
    assert np.allclose(a.rewards, b.rewards)
    assert np.allclose(a.arranged, b.arranged)


def test_kendall_tracking_records_taus(small_world):
    history = run_policy(
        UcbPolicy(dim=4),
        small_world,
        horizon=60,
        track_kendall=True,
        kendall_checkpoints=[10, 30, 60],
    )
    assert history.kendall_steps.tolist() == [10, 30, 60]
    assert history.kendall_taus.shape == (3,)
    assert np.all(np.abs(history.kendall_taus) <= 1.0)


def test_opt_kendall_is_perfect(small_world):
    history = run_policy(
        OptPolicy(small_world.theta),
        small_world,
        horizon=20,
        track_kendall=True,
        kendall_checkpoints=[10, 20],
    )
    assert np.allclose(history.kendall_taus, 1.0)


def test_no_kendall_by_default(small_world):
    history = run_policy(RandomPolicy(seed=0), small_world, horizon=10)
    assert history.kendall_steps is None
    assert history.kendall_taus is None


def test_arrangement_sizes_respect_user_capacity(small_world):
    history = run_policy(OptPolicy(small_world.theta), small_world, horizon=100)
    assert history.arranged.max() <= small_world.config.user_capacity_max


def _run_alone(policy, world, **kwargs):
    return run_policy(policy, world, **kwargs)


def _run_in_fleet(policy, world, **kwargs):
    return run_policy_fleet({policy.name: policy}, world, **kwargs)[policy.name]


@pytest.mark.parametrize("runner", [_run_alone, _run_in_fleet], ids=["run_policy", "fleet"])
@pytest.mark.parametrize(
    "checkpoints, reached",
    [([50, 10], [10, 50]), ([30, 10, 30], [10, 30]), ([10, 50, 100], [10, 50])],
    ids=["unsorted", "duplicate", "beyond-horizon"],
)
def test_kendall_steps_are_the_reached_checkpoints_in_round_order(
    small_world, runner, checkpoints, reached
):
    history = runner(
        UcbPolicy(dim=4),
        small_world,
        horizon=60,
        track_kendall=True,
        kendall_checkpoints=checkpoints,
    )
    assert history.kendall_steps.tolist() == reached
    # Each tau belongs to the step beside it: same as asking for
    # exactly the reached steps.
    exact = runner(
        UcbPolicy(dim=4),
        small_world,
        horizon=60,
        track_kendall=True,
        kendall_checkpoints=reached,
    )
    np.testing.assert_array_equal(history.kendall_taus, exact.kendall_taus)


def test_run_policy_and_the_fleet_record_the_same_telemetry(small_world):
    alone = Instrumentation()
    run_policy(UcbPolicy(dim=4), small_world, horizon=40, run_seed=3, obs=alone)
    fleet = Instrumentation()
    run_policy_fleet(
        {"UCB": UcbPolicy(dim=4)}, small_world, horizon=40, run_seed=3, obs=fleet
    )
    a, b = alone.snapshot(), fleet.snapshot()
    assert set(a.counters) == set(b.counters)
    assert set(a.series) == set(b.series)
    assert set(a.histograms) == set(b.histograms)


def test_env_rounds_count_every_policy_step(small_world):
    obs = Instrumentation()
    policies = {
        "UCB": UcbPolicy(dim=4),
        "Random": RandomPolicy(seed=0),
        "OPT": OptPolicy(small_world.theta),
    }
    run_policy_fleet(policies, small_world, horizon=30, obs=obs)
    counters = obs.snapshot().counters
    policy_rounds = [counters[f"policy.{name}.rounds"] for name in policies]
    assert policy_rounds == [30, 30, 30]
    assert counters["env.rounds"] == sum(policy_rounds)


def _environment_loop(policy, world, run_seed):
    """The reveal-select-commit-observe loop, straight on stream and platform."""
    stream = RoundStream(world, run_seed=run_seed)
    platform = stream.make_platform()
    horizon = world.config.horizon
    rewards, arranged = np.zeros(horizon), np.zeros(horizon)
    for t in range(1, horizon + 1):
        user, contexts, accepts = stream.reveal(t)
        view = RoundView(t, user, contexts, platform.store.remaining_capacities, platform.conflicts)
        arrangement = policy.select(view)
        round_rewards = [1.0 if accepts[event_id] else 0.0 for event_id in arrangement]
        platform.commit(user, arrangement, feedback=lambda v: bool(accepts[v]))
        policy.observe(view, arrangement, round_rewards)
        rewards[t - 1] = sum(round_rewards)
        arranged[t - 1] = len(arrangement)
    return rewards, arranged


@pytest.mark.parametrize("name", ["OPT", "UCB", "TS", "eGreedy", "Random"])
def test_run_policy_matches_an_environment_loop_bit_for_bit(small_world, name):
    def fresh():
        if name == "OPT":
            return OptPolicy(small_world.theta)
        return make_policy(name, dim=4, seed=11)

    history = run_policy(fresh(), small_world, run_seed=4)
    rewards, arranged = _environment_loop(fresh(), small_world, run_seed=4)
    assert history.rewards.tobytes() == rewards.tobytes()
    assert history.arranged.tobytes() == arranged.tobytes()
