"""Micro-benchmarks of the EBSN/database substrates.

Not tied to a paper artefact — these pin the costs of the building
blocks every experiment leans on: the synthetic world build (dominated
by its packed conflict graph), conflict-graph queries, event-store
registration, catalogue index lookups, run-store inserts, and the
Oracle-Greedy call every policy makes once per round.
"""

import numpy as np
import pytest

from repro.datasets.damai import load_damai
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.ebsn.catalog import EventCatalog
from repro.ebsn.conflicts import ConflictGraph, random_conflict_graph, random_conflicts
from repro.ebsn.events import EventStore
from repro.io.runstore import RunStore
from repro.oracle.greedy import oracle_greedy
from repro.simulation.history import History


def test_build_world(benchmark):
    """World setup at |V| = 2000, cr = 0.25: ~1M sampled conflict pairs."""
    config = SyntheticConfig(num_events=2000, conflict_ratio=0.25, seed=0)
    world = benchmark.pedantic(build_world, args=(config,), rounds=5, iterations=1)
    assert world.conflicts.num_pairs() == round(0.25 * 2000 * 1999 / 2)


def test_conflict_mask_query(benchmark):
    pairs = random_conflicts(500, 0.25, seed=0)
    graph = ConflictGraph(500, pairs)
    events = list(range(0, 500, 100))
    mask = benchmark(graph.conflict_mask, events)
    assert mask.shape == (500,)


@pytest.fixture(scope="module")
def wide_conflicts():
    """|V| = 10^4 at the Table 4 conflict ratio (11.9 MiB of packed rows)."""
    return random_conflict_graph(10_000, 0.25, seed=0)


def _oracle_inputs(conflicts, drained, seed=0):
    """Normal scores, capacity 10 with ``drained`` of the events at 0,
    and a random visiting order."""
    num_events = conflicts.num_events
    rng = np.random.default_rng(seed)
    capacities = np.full(num_events, 10.0)
    capacities[rng.permutation(num_events)[: round(drained * num_events)]] = 0.0
    return rng.normal(size=num_events), capacities, rng.permutation(num_events)


def _check_arrangement(arrangement, conflicts, capacities, user_capacity):
    assert len(arrangement) == user_capacity
    assert all(capacities[event] > 0 for event in arrangement)
    assert conflicts.is_independent(arrangement)


def test_oracle_greedy_drained(benchmark):
    """|V| = 500 with two thirds of the events drained (the pool
    benchmark late in its horizon): only the live third is ordered."""
    conflicts = random_conflict_graph(500, 0.25, seed=0)
    scores, capacities, _ = _oracle_inputs(conflicts, drained=2 / 3)
    arrangement = benchmark(oracle_greedy, scores, conflicts, capacities, 5)
    _check_arrangement(arrangement, conflicts, capacities, 5)


@pytest.mark.parametrize("num_events", [500, 1000, 10_000])
def test_oracle_greedy_per_call(benchmark, wide_conflicts, num_events):
    """One call per round, nothing drained: the top-m prefix over every
    event, each pick ORing a packed row into the packed blocked mask."""
    conflicts = (
        wide_conflicts if num_events == 10_000
        else random_conflict_graph(num_events, 0.25, seed=0)
    )
    scores, capacities, _ = _oracle_inputs(conflicts, drained=0.0)
    arrangement = benchmark(oracle_greedy, scores, conflicts, capacities, 5)
    _check_arrangement(arrangement, conflicts, capacities, 5)


def test_oracle_greedy_random_order(benchmark, wide_conflicts):
    """|V| = 10^4 on the ``order=`` path the Random baseline and
    eGreedy's explore branch take: permutation check plus a lazy scan."""
    scores, capacities, order = _oracle_inputs(wide_conflicts, drained=0.0)
    arrangement = benchmark(
        oracle_greedy, np.zeros_like(scores), wide_conflicts, capacities, 5,
        order=order,
    )
    _check_arrangement(arrangement, wide_conflicts, capacities, 5)


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
