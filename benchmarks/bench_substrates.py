"""Micro-benchmarks of the EBSN/database substrates.

Not tied to a paper artefact — these pin the costs of the building
blocks every experiment leans on: the synthetic world build (dominated
by its dense conflict matrix), conflict-graph queries, event-store
registration, catalogue index lookups, and run-store inserts.
"""

import numpy as np
import pytest

from repro.datasets.damai import load_damai
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.ebsn.catalog import EventCatalog
from repro.ebsn.conflicts import DenseConflictGraph, SparseConflictGraph, random_conflicts
from repro.ebsn.events import EventStore
from repro.io.runstore import RunStore
from repro.simulation.history import History


def test_build_world(benchmark):
    """World setup at |V| = 2000, cr = 0.25: ~1M sampled conflict pairs."""
    config = SyntheticConfig(num_events=2000, conflict_ratio=0.25, seed=0)
    world = benchmark.pedantic(build_world, args=(config,), rounds=5, iterations=1)
    assert world.conflicts.num_pairs() == round(0.25 * 2000 * 1999 / 2)


@pytest.mark.parametrize("backend", [DenseConflictGraph, SparseConflictGraph])
def test_conflict_mask_query(benchmark, backend):
    pairs = random_conflicts(500, 0.25, seed=0)
    graph = backend(500, pairs)
    events = list(range(0, 500, 100))
    mask = benchmark(graph.conflict_mask, events)
    assert mask.shape == (500,)


def test_event_store_register_release(benchmark):
    store = EventStore.from_capacities([1000] * 500)

    def cycle():
        for event_id in range(0, 500, 7):
            store.register(event_id)
        for event_id in range(0, 500, 7):
            store.release(event_id)
        return store.num_available()

    available = benchmark(cycle)
    assert available == 500


def test_catalog_tag_lookup(benchmark):
    catalog = EventCatalog(load_damai().platform_events())
    tags = list(catalog.tags())[:5]
    result = benchmark(catalog.matching_any_tag, tags)
    assert result


def test_runstore_insert_throughput(benchmark):
    history = History(
        policy_name="UCB",
        rewards=np.ones(100),
        arranged=np.ones(100) * 2,
    )

    def insert_batch():
        with RunStore() as store:
            for seed in range(25):
                store.record_history(
                    "bench", history, seed=seed, curve_checkpoints=[50, 100]
                )
            return store.count_runs()

    count = benchmark.pedantic(insert_batch, rounds=3, iterations=1)
    assert count == 25
