"""Table 6: per-round time of each algorithm as d grows (|V| fixed).

Cells are timed as in ``bench_table5_scaling_v.py``: a run of the
round loop, with its select + observe seconds per round saved as the
``avg_round_time`` extra info.
"""

import pytest

from benchmarks.conftest import bench_config
from repro.bandits import make_policy
from repro.datasets.synthetic import build_world
from repro.obs.core import NULL_OBS
from repro.simulation.runner import run_policy

DIMS = (1, 5, 10, 15)
POLICIES = ("UCB", "TS", "eGreedy", "Exploit", "Random")
#: Rounds per timed run; the cell is its select + observe seconds per round.
ROUNDS = 35


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("name", POLICIES)
def test_round_cost(benchmark, name, dim):
    config = bench_config(num_events=500, dim=dim, capacity_mean=1000.0)
    world = build_world(config)

    def run():
        policy = make_policy(name, dim=dim, seed=1)
        return run_policy(policy, world, horizon=ROUNDS, obs=NULL_OBS).avg_round_time

    avg = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["avg_round_time"] = avg
    assert avg > 0
