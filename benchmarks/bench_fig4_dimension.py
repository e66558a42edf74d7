"""Figure 4: effect of d — TS recovers only at very small dimension."""

import pytest

from benchmarks.conftest import bench_config, run_suite
from repro.bandits import ThompsonSamplingPolicy
from repro.datasets.synthetic import build_world
from repro.obs.core import NULL_OBS
from repro.simulation.runner import run_policy


@pytest.mark.parametrize("dim", [1, 5, 10, 15])
def test_ts_round_cost_vs_dimension(benchmark, dim):
    config = bench_config(dim=dim)
    world = build_world(config)

    def rounds():
        policy = ThompsonSamplingPolicy(dim=dim, seed=1)
        return run_policy(policy, world, horizon=50, obs=NULL_OBS).avg_round_time

    avg = benchmark.pedantic(rounds, rounds=2, iterations=1)
    assert avg > 0


def test_fig4_shape_ts_relative_regret_shrinks_at_d1(benchmark):
    def sweep():
        return {d: run_suite(bench_config(dim=d)) for d in (1, 10)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    def ts_fraction_of_opt(rewards):
        return rewards["TS"] / max(rewards["OPT"], 1.0)

    assert ts_fraction_of_opt(results[1]) > ts_fraction_of_opt(results[10])
