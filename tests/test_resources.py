"""Time/memory measurement utilities behind Tables 5-6."""

import numpy as np
import pytest

from repro.bandits import RandomPolicy, UcbPolicy
from repro.exceptions import ConfigurationError
from repro.metrics.resources import (
    measure_memory,
    measure_policy_memory,
    time_policies_rounds,
    time_policy_rounds,
)


def test_time_policy_rounds_returns_positive_average(small_world):
    avg = time_policy_rounds(RandomPolicy(seed=0), small_world, rounds=5)
    assert avg > 0


def test_time_policy_rounds_validates_rounds(small_world):
    with pytest.raises(ConfigurationError):
        time_policy_rounds(RandomPolicy(seed=0), small_world, rounds=0)


def test_random_is_faster_than_ucb(small_world):
    """The paper's Table 5 ordering at its cheapest end."""
    random_time = time_policy_rounds(RandomPolicy(seed=0), small_world, rounds=30)
    ucb_time = time_policy_rounds(UcbPolicy(dim=4), small_world, rounds=30)
    assert random_time < ucb_time


def test_lockstep_timing_plays_each_policy_as_if_alone(small_world):
    """Each policy in the lockstep loop sees its own fresh streams."""
    alone = UcbPolicy(dim=4)
    time_policy_rounds(alone, small_world, rounds=20)
    together = UcbPolicy(dim=4)
    times = time_policies_rounds(
        [RandomPolicy(seed=0), together], small_world, rounds=20
    )
    assert len(times) == 2 and all(t > 0 for t in times)
    np.testing.assert_array_equal(together.model.theta_hat(), alone.model.theta_hat())
    with pytest.raises(ConfigurationError):
        time_policies_rounds([alone], small_world, rounds=0)


def test_measure_memory_returns_result_and_peak():
    result, peak = measure_memory(lambda: [0] * 100_000)
    assert len(result) == 100_000
    assert peak > 100_000  # a list of 100k ints dwarfs anything else


def test_measure_policy_memory(small_world):
    avg_time, peak = measure_policy_memory(
        lambda: UcbPolicy(dim=4), small_world, rounds=5
    )
    assert avg_time > 0
    assert peak > 0
