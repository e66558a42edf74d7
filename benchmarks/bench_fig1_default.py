"""Figure 1: the default-setting comparison, as a benchmark.

Benchmarks one full policy run per algorithm on the reduced default
instance and asserts the paper's ordering (UCB/Exploit ahead of TS,
TS ahead of nothing but Random).
"""

import pytest

from benchmarks.conftest import BENCH_HORIZON, POLICY_NAMES, bench_config, run_suite
from repro.bandits import make_policy
from repro.datasets.synthetic import build_world
from repro.simulation.runner import run_policy


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_policy_full_run(benchmark, name):
    config = bench_config()
    world = build_world(config)

    def play():
        policy = make_policy(name, dim=config.dim, seed=1)
        return run_policy(policy, world, horizon=BENCH_HORIZON, run_seed=0)

    history = benchmark.pedantic(play, rounds=2, iterations=1)
    assert history.horizon == BENCH_HORIZON


def test_fig1_shape_ucb_beats_ts(benchmark):
    rewards = benchmark.pedantic(
        lambda: run_suite(bench_config()), rounds=1, iterations=1
    )
    assert rewards["UCB"] > rewards["TS"]
    assert rewards["Exploit"] > rewards["TS"]
    assert rewards["OPT"] >= rewards["UCB"] * 0.95
    assert rewards["TS"] >= rewards["Random"] * 0.8
