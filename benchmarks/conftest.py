"""Shared fixtures and helpers for the benchmark suite.

Each ``bench_*`` file regenerates one paper table/figure at a reduced
size (so ``pytest benchmarks/ --benchmark-only`` finishes in minutes)
and benchmarks its dominant computational kernel.  The full-size runs
live behind the ``fasea run`` CLI; EXPERIMENTS.md records their output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import OptPolicy, make_policy
from repro.datasets.damai import load_damai
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.simulation.runner import run_policy

#: Horizon used by the per-figure "regenerate the series" benchmarks.
BENCH_HORIZON = 400

POLICY_NAMES = ("UCB", "TS", "eGreedy", "Exploit", "Random")


def bench_config(**overrides) -> SyntheticConfig:
    """A small default-setting instance for benchmarks."""
    base = dict(
        num_events=50,
        horizon=BENCH_HORIZON,
        dim=10,
        capacity_mean=20.0,
        capacity_std=8.0,
        conflict_ratio=0.25,
        seed=0,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


def run_suite(config: SyntheticConfig, horizon: int = BENCH_HORIZON):
    """Play OPT + the five policies; return total rewards by name."""
    world = build_world(config)
    rewards = {}
    opt = run_policy(OptPolicy(world.theta), world, horizon=horizon, run_seed=0)
    rewards["OPT"] = opt.total_reward
    for name in POLICY_NAMES:
        policy = make_policy(name, dim=config.dim, seed=1)
        history = run_policy(policy, world, horizon=horizon, run_seed=0)
        rewards[name] = history.total_reward
    return rewards


@pytest.fixture(scope="session")
def damai():
    return load_damai()


@pytest.fixture(scope="session")
def default_world():
    return build_world(bench_config())
