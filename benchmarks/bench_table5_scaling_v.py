"""Table 5: per-round time/memory of each algorithm as |V| grows.

The benchmark *is* the table: one (algorithm, |V|) cell per test id.
Each cell times a run of the round loop; the table's unit, the run's
select + observe seconds per round, is saved as the benchmark's
``avg_round_time`` extra info (``pytest
benchmarks/bench_table5_scaling_v.py --benchmark-only
--benchmark-json=out.json``).
"""

import pytest

from benchmarks.conftest import bench_config
from repro.bandits import make_policy
from repro.datasets.synthetic import build_world
from repro.obs.core import NULL_OBS
from repro.simulation.runner import run_policy

SIZES = (100, 500, 1000)
POLICIES = ("UCB", "TS", "eGreedy", "Exploit", "Random")
#: Rounds per timed run; the cell is its select + observe seconds per round.
ROUNDS = 35


@pytest.mark.parametrize("num_events", SIZES)
@pytest.mark.parametrize("name", POLICIES)
def test_round_cost(benchmark, name, num_events):
    config = bench_config(num_events=num_events, dim=20, capacity_mean=1000.0)
    world = build_world(config)

    def run():
        policy = make_policy(name, dim=config.dim, seed=1)
        return run_policy(policy, world, horizon=ROUNDS, obs=NULL_OBS).avg_round_time

    avg = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["avg_round_time"] = avg
    assert avg > 0
