"""Trace recording and replay."""

import numpy as np
import pytest

from repro.bandits import RandomPolicy, UcbPolicy
from repro.exceptions import ConfigurationError
from repro.simulation.runner import run_policy
from repro.simulation.trace import Trace, record_trace, replay_trace


@pytest.fixture(scope="module")
def trace(small_world_module):
    return record_trace(small_world_module, horizon=60, run_seed=3)


@pytest.fixture(scope="module")
def small_world_module():
    from repro.datasets.synthetic import SyntheticConfig, build_world

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


def test_trace_shapes(trace):
    assert trace.horizon == 60
    assert trace.num_events == 12
    assert trace.dim == 4
    assert trace.contexts.shape == (60, 12, 4)
    assert trace.thresholds.shape == (60, 12)
    assert np.all((trace.thresholds >= 0) & (trace.thresholds < 1))
    assert np.all(trace.user_capacities >= 1)


def test_replay_equals_live_run(trace, small_world_module):
    """The defining property: replay == run_policy on the same seed."""
    live = run_policy(UcbPolicy(dim=4), small_world_module, horizon=60, run_seed=3)
    replayed = replay_trace(UcbPolicy(dim=4), trace)
    assert np.array_equal(live.rewards, replayed.rewards)
    assert np.array_equal(live.arranged, replayed.arranged)


def test_replay_pairs_different_policies(trace):
    """Two policies on one trace face identical coin flips."""
    ucb = replay_trace(UcbPolicy(dim=4), trace)
    random_run = replay_trace(RandomPolicy(seed=0), trace)
    assert ucb.horizon == random_run.horizon == 60
    assert ucb.total_reward >= random_run.total_reward  # paired comparison


def test_trace_round_trips_through_disk(trace, tmp_path):
    path = trace.save(tmp_path / "run")
    assert path.suffix == ".npz"
    loaded = Trace.load(path)
    assert np.array_equal(loaded.contexts, trace.contexts)
    assert np.array_equal(loaded.thresholds, trace.thresholds)
    assert loaded.conflict_pairs == trace.conflict_pairs
    replayed = replay_trace(UcbPolicy(dim=4), loaded)
    original = replay_trace(UcbPolicy(dim=4), trace)
    assert np.array_equal(replayed.rewards, original.rewards)


def test_trace_load_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        Trace.load(tmp_path / "missing.npz")
    bad = tmp_path / "bad.npz"
    np.savez(bad, stuff=np.ones(3))
    with pytest.raises(ConfigurationError):
        Trace.load(bad)


def test_trace_constructor_validation(trace):
    with pytest.raises(ConfigurationError):
        Trace(
            user_capacities=trace.user_capacities[:-1],
            contexts=trace.contexts,
            thresholds=trace.thresholds,
            theta=trace.theta,
            event_capacities=trace.event_capacities,
            conflict_pairs=trace.conflict_pairs,
        )
    with pytest.raises(ConfigurationError):
        Trace(
            user_capacities=trace.user_capacities,
            contexts=trace.contexts,
            thresholds=trace.thresholds,
            theta=trace.theta[:-1],
            event_capacities=trace.event_capacities,
            conflict_pairs=trace.conflict_pairs,
        )
    with pytest.raises(ConfigurationError, match="contexts must be"):
        Trace(
            user_capacities=trace.user_capacities,
            contexts=trace.contexts[0],
            thresholds=trace.thresholds,
            theta=trace.theta,
            event_capacities=trace.event_capacities,
            conflict_pairs=trace.conflict_pairs,
        )


def test_trace_load_rejects_corrupt_contexts(trace, tmp_path):
    path = trace.save(tmp_path / "run")
    with np.load(path) as archive:
        arrays = dict(archive)
    arrays["contexts"] = arrays["contexts"].reshape(-1)
    np.savez(path, **arrays)
    with pytest.raises(ConfigurationError, match="contexts must be"):
        Trace.load(path)
