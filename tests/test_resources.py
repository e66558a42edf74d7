"""Time/memory measurement utilities behind Tables 5-6."""

import tracemalloc

import pytest

from repro.bandits import RandomPolicy, UcbPolicy
from repro.exceptions import ConfigurationError
from repro.metrics.resources import measure_memory, measure_policy_memory
from repro.obs.core import Instrumentation, use


def test_random_is_faster_than_ucb(small_world):
    """The paper's Table 5 ordering at its cheapest end."""
    random_time, _ = measure_policy_memory(
        lambda: RandomPolicy(seed=0), small_world, rounds=30
    )
    ucb_time, _ = measure_policy_memory(lambda: UcbPolicy(dim=4), small_world, rounds=30)
    assert random_time < ucb_time


def test_measure_memory_returns_result_and_peak():
    result, peak = measure_memory(lambda: [0] * 100_000)
    assert len(result) == 100_000
    assert peak > 100_000  # a list of 100k ints dwarfs anything else
    assert not tracemalloc.is_tracing()


def test_measure_memory_under_an_outer_trace_measures_only_its_call():
    """A nested call neither reports the outer trace nor stops it."""
    tracemalloc.start()
    try:
        held = [0] * 2_000_000  # 16 MB traced before the call
        _, peak = measure_memory(lambda: [0] * 10)
        assert tracemalloc.is_tracing()
        assert 0 <= peak < 100_000
        del held
    finally:
        tracemalloc.stop()


def test_measure_policy_memory(small_world):
    avg_time, peak = measure_policy_memory(
        lambda: UcbPolicy(dim=4), small_world, rounds=5
    )
    assert avg_time > 0
    assert peak > 0


def test_measure_policy_memory_adds_no_policy_metrics_under_obs(small_world):
    """The Table 5/6 runs are uninstrumented whatever the ambient scope."""
    obs = Instrumentation()
    with use(obs):
        measure_policy_memory(lambda: UcbPolicy(dim=4), small_world, rounds=5)
    snapshot = obs.snapshot()
    names = [*snapshot.counters, *snapshot.gauges, *snapshot.series, *snapshot.histograms]
    assert not [name for name in names if name.startswith("policy.")]


def test_measure_policy_memory_rejects_zero_rounds(small_world):
    with pytest.raises(ConfigurationError):
        measure_policy_memory(lambda: RandomPolicy(seed=0), small_world, rounds=0)
