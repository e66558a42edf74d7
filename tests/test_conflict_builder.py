"""random_conflict_graph ≡ ConflictGraph(random_conflict_array(...)).

The graph builder fills the dense matrix straight from the sampled
ranks; these tests pin it to the pair path it replaces: same backend,
same pairs, same generator position afterwards, same synthetic world.
"""

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.ebsn.conflicts import (
    ConflictGraph,
    SparseConflictGraph,
    random_conflict_array,
    random_conflict_graph,
    random_conflicts,
)
from repro.exceptions import ConfigurationError

SIZES = [1, 2, 3, 50, 2049]
RATIOS = [0.0, 0.01, 0.05, 0.25, 1.0]
SEEDS = [0, 1, 7]


def all_masks(graph):
    return np.stack([graph.neighbor_mask(i) for i in range(graph.num_events)])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("num_events", SIZES)
def test_graph_builder_matches_pair_path(num_events, ratio, seed):
    built = random_conflict_graph(num_events, ratio, seed)
    reference = ConflictGraph(num_events, random_conflict_array(num_events, ratio, seed))
    assert type(built) is type(reference)
    assert built.num_events == reference.num_events == num_events
    assert built.num_pairs() == reference.num_pairs()
    np.testing.assert_array_equal(all_masks(built), all_masks(reference))


@pytest.mark.parametrize("ratio", [0.0, 0.01])
def test_large_sparse_instances_take_the_sparse_path(ratio):
    """|V| > 2048 at density <= 5% must not allocate the |V|^2 matrix.

    (cr = 0.05 at |V| = 2049 rounds to a density just above 0.05 and
    goes dense on both paths, which the equivalence test covers.)
    """
    assert isinstance(random_conflict_graph(2049, ratio, 0), SparseConflictGraph)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("num_events", [1, 50, 2049])
def test_shared_generator_ends_in_the_same_state(num_events, ratio):
    """Meetup shares one generator across its draws, so the graph
    builder must consume exactly what the pair path consumes."""
    via_graph = np.random.default_rng(3)
    via_pairs = np.random.default_rng(3)
    random_conflict_graph(num_events, ratio, via_graph)
    random_conflict_array(num_events, ratio, via_pairs)
    assert via_graph.bit_generator.state == via_pairs.bit_generator.state
    assert via_graph.random() == via_pairs.random()


def test_graph_builder_validates_like_the_pair_path():
    for args in [(0, 0.25), (5, -0.1), (5, 1.5)]:
        with pytest.raises(ConfigurationError):
            random_conflict_array(*args, seed=0)
        with pytest.raises(ConfigurationError):
            random_conflict_graph(*args, seed=0)


def test_world_graph_matches_the_pair_path_at_scale():
    config = SyntheticConfig(num_events=3000, conflict_ratio=0.25, seed=4)
    world = build_world(config)
    conflict_seed = np.random.SeedSequence(config.seed).spawn(3)[2]
    pairs = random_conflict_array(3000, 0.25, np.random.default_rng(conflict_seed))
    reference = ConflictGraph(3000, pairs)
    assert type(world.conflicts) is type(reference)
    np.testing.assert_array_equal(all_masks(world.conflicts), all_masks(reference))
    expected = sorted(random_conflicts(3000, 0.25, np.random.default_rng(conflict_seed)))
    assert world.conflict_pairs == expected
