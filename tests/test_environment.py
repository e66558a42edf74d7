"""The FASEA input stream on a platform: coupling, constraint enforcement."""

import numpy as np
import pytest

from repro.bandits import OptPolicy, RandomPolicy, RoundView
from repro.exceptions import ConflictError
from repro.simulation.environment import RoundStream


def _reveal(stream, platform, t):
    """Round ``t``'s view on ``platform`` and its accept mask."""
    user, contexts, accepts = stream.reveal(t)
    view = RoundView(
        time_step=t,
        user=user,
        contexts=contexts,
        remaining_capacities=platform.store.remaining_capacities,
        conflicts=platform.conflicts,
    )
    return view, accepts


def _commit(platform, view, accepts, arrangement):
    """Commit ``arrangement``; return its per-event rewards and ledger entry."""
    rewards = [1.0 if accepts[event_id] else 0.0 for event_id in arrangement]
    entry = platform.commit(view.user, arrangement, feedback=lambda v: bool(accepts[v]))
    return rewards, entry


def test_view_exposes_the_revealed_quantities(small_world, small_config):
    stream = RoundStream(small_world, run_seed=0)
    view, accepts = _reveal(stream, stream.make_platform(), 1)
    assert view.contexts.shape == (small_config.num_events, small_config.dim)
    assert np.allclose(np.linalg.norm(view.contexts, axis=1), 1.0)
    assert 1 <= view.user.capacity <= 5
    assert np.allclose(view.remaining_capacities, small_world.capacities)
    assert accepts.shape == (small_config.num_events,) and accepts.dtype == bool


def test_common_random_numbers_across_policies(small_world):
    """Two runs with the same run_seed see identical users/contexts/coins."""

    def run_and_capture(policy):
        stream = RoundStream(small_world, run_seed=7)
        platform = stream.make_platform()
        captured = []
        for t in range(1, 21):
            view, accepts = _reveal(stream, platform, t)
            _commit(platform, view, accepts, policy.select(view))
            captured.append((view.user.capacity, view.contexts.copy(), accepts.copy()))
        return captured

    first = run_and_capture(RandomPolicy(seed=0))
    second = run_and_capture(OptPolicy(small_world.theta))
    for (cap_a, ctx_a, acc_a), (cap_b, ctx_b, acc_b) in zip(first, second):
        assert cap_a == cap_b
        assert np.allclose(ctx_a, ctx_b)
        np.testing.assert_array_equal(acc_a, acc_b)


def test_feedback_coins_are_shared_across_policies(small_world):
    """If two policies arrange the same event at step t, the outcome agrees."""

    def outcomes(policy):
        stream = RoundStream(small_world, run_seed=3)
        platform = stream.make_platform()
        results = {}
        for t in range(1, 16):
            view, accepts = _reveal(stream, platform, t)
            arrangement = policy.select(view)
            rewards, _ = _commit(platform, view, accepts, arrangement)
            for event_id, reward in zip(arrangement, rewards):
                results[(t, event_id)] = reward
        return results

    opt = outcomes(OptPolicy(small_world.theta))
    rand = outcomes(RandomPolicy(seed=0))
    shared = opt.keys() & rand.keys()
    assert shared
    assert {key: opt[key] for key in shared} == {key: rand[key] for key in shared}


def test_accepted_events_consume_capacity(small_world):
    stream = RoundStream(small_world, run_seed=0)
    platform = stream.make_platform()
    view, accepts = _reveal(stream, platform, 1)
    arrangement = OptPolicy(small_world.theta).select(view)
    rewards, _ = _commit(platform, view, accepts, arrangement)
    after = platform.store.remaining_capacities
    for event_id, reward in zip(arrangement, rewards):
        expected = small_world.capacities[event_id] - (1 if reward else 0)
        assert after[event_id] == expected


def test_commit_validates_against_the_platform(small_world):
    stream = RoundStream(small_world, run_seed=0)
    platform = stream.make_platform()
    view, accepts = _reveal(stream, platform, 1)
    # Find a conflicting pair to submit deliberately.
    pair = next(iter(small_world.conflicts.pairs()), None)
    if pair is None:
        pytest.skip("no conflicts in this world")
    if view.user.capacity < 2:
        _commit(platform, view, accepts, [])  # consume the round
        view, accepts = _reveal(stream, platform, 2)
    with pytest.raises(ConflictError):
        _commit(platform, view, accepts, list(pair))


def test_rewards_follow_the_linear_payoff():
    """Empirical accept frequency tracks clip(x^T theta, 0, 1)."""
    from repro.datasets.synthetic import SyntheticConfig, build_world

    world = build_world(
        SyntheticConfig(
            num_events=12,
            horizon=1000,
            dim=4,
            capacity_mean=10_000.0,  # never exhausts -> plenty of trials
            capacity_std=1.0,
            conflict_ratio=0.0,
            seed=0,
        )
    )
    stream = RoundStream(world, run_seed=0)
    platform = stream.make_platform()
    opt = OptPolicy(world.theta)
    accepted = 0.0
    expected = 0.0
    variance = 0.0
    for t in range(1, 1001):
        view, accepts = _reveal(stream, platform, t)
        arrangement = opt.select(view)
        probs = world.accept_probabilities(view.contexts)
        rewards, _ = _commit(platform, view, accepts, arrangement)
        accepted += sum(rewards)
        expected += float(sum(probs[v] for v in arrangement))
        variance += float(sum(probs[v] * (1 - probs[v]) for v in arrangement))
    assert abs(accepted - expected) < 4.0 * np.sqrt(variance)
