"""Figure 3: effect of |V| — per-round cost grows with the catalogue."""

import pytest

from benchmarks.conftest import bench_config, run_suite
from repro.bandits import UcbPolicy
from repro.datasets.synthetic import build_world
from repro.obs.core import NULL_OBS
from repro.simulation.runner import run_policy


@pytest.mark.parametrize("num_events", [20, 100, 200])
def test_ucb_round_cost_vs_num_events(benchmark, num_events):
    config = bench_config(num_events=num_events)
    world = build_world(config)

    def rounds():
        policy = UcbPolicy(dim=config.dim)
        return run_policy(policy, world, horizon=50, obs=NULL_OBS).avg_round_time

    avg = benchmark.pedantic(rounds, rounds=2, iterations=1)
    assert avg > 0


def test_fig3_shape_ordering_holds_at_both_sizes(benchmark):
    def sweep():
        return {
            v: run_suite(bench_config(num_events=v)) for v in (20, 100)
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for rewards in results.values():
        assert rewards["UCB"] > rewards["TS"]
        assert rewards["Exploit"] > rewards["TS"]
