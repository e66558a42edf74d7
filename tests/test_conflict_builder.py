"""random_conflict_graph ≡ ConflictGraph(random_conflict_array(...)).

The graph builder packs the graph's bits straight from the sampled
rank set; these tests pin it to the pair path it replaces: same pairs,
same generator position afterwards, same synthetic world.  Above
``_TAIL_SET_MIN_PAIRS`` candidate pairs the builder does not call
``Generator.choice`` but rebuilds the set its tail shuffle returns; the
tail-set tests pin that to ``choice`` itself, numpy's branch condition
included.
"""

import tracemalloc

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.ebsn import conflicts
from repro.ebsn.conflicts import (
    ConflictGraph,
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


def traced_peak(build):
    """Peak bytes traced while ``build()`` runs, above what was live."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


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


def test_large_sparse_instance_builds_in_packed_space():
    """|V| = 2049 at cr = 0.01 (below numpy's tail-shuffle branch, so
    ``choice`` draws) peaks at 1.1 bytes a candidate pair: the packed
    graph (1/4), the rank bitset (1/8) and the build's blocks.  A bool
    |V|^2 matrix alone would be 2."""
    total = 2049 * 2048 // 2
    peak = traced_peak(lambda: random_conflict_graph(2049, 0.01, 0))
    assert peak <= 1.5 * total, f"{peak / total:.2f} bytes a candidate pair"


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


def tail_set_mask(total, size, rng):
    packed = conflicts._tail_shuffle_set(total, size, rng)
    assert packed.shape == ((total + 7) // 8,)
    return np.unpackbits(packed, bitorder="little")[:total].view(bool)


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
        upper = tail_set_mask(total, size, via_set)
        np.testing.assert_array_equal(upper, choice_mask(total, size, via_choice))
        assert via_set.bit_generator.state == via_choice.bit_generator.state


def test_tail_shuffle_set_matches_choice_on_random_sizes():
    sizes = np.random.default_rng(123)
    for case in range(100):
        total = int(sizes.integers(10001, 40000))
        size = int(sizes.integers(total // 50 + 1, total + 1))
        via_set, via_choice = np.random.default_rng(case), np.random.default_rng(case)
        upper = tail_set_mask(total, size, via_set)
        np.testing.assert_array_equal(upper, choice_mask(total, size, via_choice))
        assert via_set.bit_generator.state == via_choice.bit_generator.state


@pytest.mark.parametrize("ratio", [0.25, 1.0])
def test_graph_builder_matches_pair_path_above_the_switch(ratio):
    """|V| = 3000 has 4.5M candidate pairs, past ``_TAIL_SET_MIN_PAIRS``."""
    assert 3000 * 2999 // 2 >= conflicts._TAIL_SET_MIN_PAIRS
    built = random_conflict_graph(3000, ratio, 5)
    reference = ConflictGraph(3000, random_conflict_array(3000, ratio, 5))
    assert type(built) is type(reference)
    np.testing.assert_array_equal(built.bits, reference.bits)


def test_build_peaks_under_two_and_a_half_bytes_a_candidate_pair():
    """``choice``'s tail shuffle alone takes 10 bytes a candidate pair
    (an int64 arange over all of them, then a copy of its tail).  The
    builder keeps 4 bytes a drawn rank (1 a candidate at cr = 0.25), the
    rank bitset (1/8), the packed graph (1/4) and its chunk buffers."""
    total = 3000 * 2999 // 2
    peak = traced_peak(lambda: random_conflict_graph(3000, 0.25, 0))
    assert peak <= 2.5 * total, f"{peak / total:.2f} bytes a candidate pair"


@pytest.mark.slow
def test_wide_catalogue_graph_matches_the_pair_path():
    """perfbench's wide_catalogue world size: |V| = 10^4, cr = 0.25."""
    num_events, step = 10_000, 1000
    total = num_events * (num_events - 1) // 2
    via_graph, via_pairs = np.random.default_rng(11), np.random.default_rng(11)
    built = []
    peak = traced_peak(lambda: built.append(random_conflict_graph(num_events, 0.25, via_graph)))
    assert peak <= 1.75 * total, f"{peak / total:.2f} bytes a candidate pair"
    graph = built.pop()
    ranks = conflicts._sample_conflict_ranks(num_events, 0.25, via_pairs)
    assert via_graph.bit_generator.state == via_pairs.bit_generator.state
    upper = np.zeros(total, dtype=bool)
    upper[ranks] = True
    del ranks

    def rows(start):
        packed = graph.bits[start : start + step]
        return np.unpackbits(packed, axis=1, count=num_events, bitorder="little").view(bool)

    offset = 0
    for r0 in range(0, num_events, step):
        block = rows(r0)
        for i in range(r0, r0 + step):
            length = num_events - 1 - i
            assert np.array_equal(block[i - r0, i + 1 :], upper[offset : offset + length]), i
            offset += length
        assert not block[np.arange(step), np.arange(r0, r0 + step)].any()
        for c0 in range(0, r0, step):  # the lower triangle mirrors the upper
            assert np.array_equal(block[:, c0 : c0 + step], rows(c0)[:, r0 : r0 + step].T)
    assert graph.num_pairs() == int(upper.sum())
