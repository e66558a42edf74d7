"""random_conflict_graph ≡ ConflictGraph(random_conflict_array(...)).

The graph builder fills the dense matrix straight from the sampled
ranks; these tests pin it to the pair path it replaces: same backend,
same pairs, same generator position afterwards, same synthetic world.
Above ``_TAIL_SET_MIN_PAIRS`` candidate pairs the dense builder does
not call ``Generator.choice`` but rebuilds the set its tail shuffle
returns; the tail-set tests pin that to ``choice`` itself, numpy's
branch condition included.
"""

import tracemalloc

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.ebsn import conflicts
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
@pytest.mark.parametrize("num_events", [1, 50, 2049, 3000])
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


def choice_mask(total, size, rng):
    upper = np.zeros(total, dtype=bool)
    upper[rng.choice(total, size=size, replace=False)] = True
    return upper


@pytest.mark.parametrize(
    "total, size, tail_set",
    [
        (10001, 10001 // 50, False),  # numpy draws with Floyd's algorithm
        (10001, 10001 // 50 + 1, True),  # numpy's tail shuffle from here on
        (10001, 7500, True),
        (10001, 10000, True),
        (10001, 10001, True),  # size == total: the shuffle stops at step 1
        (10000, 10000, False),  # numpy needs total > 10000
    ],
)
def test_tail_set_builder_runs_where_numpy_tail_shuffles(monkeypatch, total, size, tail_set):
    """With the pair-count switch lowered to 0, the builder is chosen
    exactly where numpy takes its tail shuffle, and there its mask and
    the generator state afterwards equal ``choice``'s."""
    monkeypatch.setattr(conflicts, "_TAIL_SET_MIN_PAIRS", 0)
    assert conflicts._takes_tail_set(total, size) is tail_set
    if not tail_set:
        return
    for seed in SEEDS:
        via_set, via_choice = np.random.default_rng(seed), np.random.default_rng(seed)
        upper = np.zeros(total, dtype=bool)
        conflicts._mark_tail_shuffle_set(upper, size, via_set)
        np.testing.assert_array_equal(upper, choice_mask(total, size, via_choice))
        assert via_set.bit_generator.state == via_choice.bit_generator.state


def test_tail_shuffle_set_matches_choice_on_random_sizes():
    sizes = np.random.default_rng(123)
    for case in range(100):
        total = int(sizes.integers(10001, 40000))
        size = int(sizes.integers(total // 50 + 1, total + 1))
        via_set, via_choice = np.random.default_rng(case), np.random.default_rng(case)
        upper = np.zeros(total, dtype=bool)
        conflicts._mark_tail_shuffle_set(upper, size, via_set)
        np.testing.assert_array_equal(upper, choice_mask(total, size, via_choice))
        assert via_set.bit_generator.state == via_choice.bit_generator.state


@pytest.mark.parametrize("ratio", [0.25, 1.0])
def test_graph_builder_matches_pair_path_above_the_switch(ratio):
    """|V| = 3000 has 4.5M candidate pairs, past ``_TAIL_SET_MIN_PAIRS``."""
    assert 3000 * 2999 // 2 >= conflicts._TAIL_SET_MIN_PAIRS
    built = random_conflict_graph(3000, ratio, 5)
    reference = ConflictGraph(3000, random_conflict_array(3000, ratio, 5))
    assert type(built) is type(reference)
    np.testing.assert_array_equal(built._matrix, reference._matrix)


def test_dense_build_peaks_under_four_bytes_a_candidate_pair():
    """``choice``'s tail shuffle alone takes 10 bytes a candidate pair
    (an int64 arange over all of them, then a copy of its tail).  The
    matrix takes 2, the flat mask 1, and the tail-set keys 8 a drawn
    rank, which is 2 a candidate at cr = 0.25."""
    total = 3000 * 2999 // 2
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        random_conflict_graph(3000, 0.25, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4 * total, f"{peak / total:.2f} bytes a candidate pair"


@pytest.mark.slow
def test_wide_catalogue_graph_matches_the_pair_path():
    """perfbench's wide_catalogue world size: |V| = 10^4, cr = 0.25."""
    num_events = 10_000
    via_graph, via_pairs = np.random.default_rng(11), np.random.default_rng(11)
    matrix = random_conflict_graph(num_events, 0.25, via_graph)._matrix
    ranks = conflicts._sample_conflict_ranks(num_events, 0.25, via_pairs)
    assert via_graph.bit_generator.state == via_pairs.bit_generator.state
    upper = np.zeros(num_events * (num_events - 1) // 2, dtype=bool)
    upper[ranks] = True
    del ranks
    offset = 0
    for i in range(num_events - 1):
        length = num_events - 1 - i
        assert np.array_equal(matrix[i, i + 1 :], upper[offset : offset + length]), i
        offset += length
    assert not matrix.diagonal().any()
    assert np.array_equal(matrix, matrix.T)
