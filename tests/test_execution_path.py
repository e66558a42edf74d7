"""One execution path: every multi-policy sweep runs its suite as a fleet.

``replicate_policies`` and ``sweep`` build cells and hand them to the
executor whatever ``jobs`` says, so each round's contexts are drawn once
for the whole suite, and what they report cannot depend on ``jobs``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.replication import replicate_policies
from repro.datasets.synthetic import ContextSampler, SyntheticConfig
from repro.experiments.grid import expand_grid, sweep
from repro.io.runstore import RunStore

POLICIES = ("UCB", "TS", "eGreedy", "Exploit", "Random")


def tiny_config() -> SyntheticConfig:
    return SyntheticConfig(
        num_events=15,
        horizon=40,
        dim=4,
        capacity_mean=8.0,
        capacity_std=3.0,
        conflict_ratio=0.25,
        seed=0,
    )


@pytest.fixture
def context_draws(monkeypatch):
    """Count every ``ContextSampler.sample`` call."""
    calls = []
    original = ContextSampler.sample

    def counting(self, rng):
        calls.append(1)
        return original(self, rng)

    monkeypatch.setattr(ContextSampler, "sample", counting)
    return calls


def test_serial_replication_draws_each_round_once(context_draws):
    seeds, horizon = (0, 1, 2), 25
    replicate_policies(tiny_config(), seeds, horizon=horizon, policy_names=POLICIES)
    assert len(context_draws) == len(seeds) * horizon


def test_serial_sweep_draws_each_round_once(context_draws):
    axes = {"dim": [3, 5], "conflict_ratio": [0.0, 0.5]}
    horizon = 20
    sweep(tiny_config(), axes, horizon=horizon, policy_names=POLICIES)
    assert len(context_draws) == len(expand_grid(axes)) * horizon


def _stored_runs(jobs: int):
    with RunStore() as store:
        replicate_policies(
            tiny_config(), (0, 1), policy_names=POLICIES, store=store, jobs=jobs
        )
        return store.list_runs()


def test_replication_store_rows_time_every_run_for_every_jobs():
    """avg_round_time is measured on every row; nothing else moves with jobs."""
    serial, pooled = _stored_runs(jobs=1), _stored_runs(jobs=2)
    assert len(serial) == 2 * (1 + len(POLICIES))
    for rows in (serial, pooled):
        assert all(row.avg_round_time > 0 for row in rows)

    def untimed(row):
        return dataclasses.replace(row, avg_round_time=0.0)

    assert [untimed(row) for row in serial] == [untimed(row) for row in pooled]
