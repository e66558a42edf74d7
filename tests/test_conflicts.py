"""Conflict graphs: the packed backend, the ratio generator, equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebsn.conflicts import ConflictGraph, random_conflicts
from repro.exceptions import ConfigurationError
from repro.oracle.greedy import oracle_greedy


def test_basic_pair_queries():
    graph = ConflictGraph(4, [(0, 1), (2, 3)])
    assert graph.conflicts(0, 1)
    assert graph.conflicts(1, 0)
    assert not graph.conflicts(0, 2)
    assert graph.num_pairs() == 2


def test_self_conflicts_and_bad_ids_rejected():
    graph = ConflictGraph(3)
    with pytest.raises(ConfigurationError):
        graph.add(1, 1)
    with pytest.raises(ConfigurationError):
        graph.add(0, 5)
    with pytest.raises(ConfigurationError):
        graph.conflicts(0, 9)
    with pytest.raises(ConfigurationError):
        ConflictGraph(3, [(1, 1)])
    with pytest.raises(ConfigurationError):
        ConflictGraph(3, np.array([[0, 3]]))


def test_duplicate_pairs_counted_once():
    graph = ConflictGraph(3, [(0, 1), (1, 0), (0, 1)])
    assert graph.num_pairs() == 1


def test_neighbors_and_masks():
    graph = ConflictGraph(4, [(0, 1), (0, 2)])
    assert graph.neighbors(0) == frozenset({1, 2})
    assert graph.neighbor_mask(0).tolist() == [False, True, True, False]
    assert graph.conflict_mask([0]).tolist() == [False, True, True, False]
    assert graph.conflict_mask([]).tolist() == [False] * 4


def test_is_independent():
    graph = ConflictGraph(4, [(0, 1)])
    assert graph.is_independent([0, 2, 3])
    assert not graph.is_independent([0, 1])
    assert graph.is_independent([])


def test_pairs_iteration_is_canonical():
    graph = ConflictGraph(4, [(2, 3), (1, 0)])
    assert list(graph.pairs()) == [(0, 1), (2, 3)]


def test_conflict_ratio_matches_definition():
    graph = ConflictGraph(4, [(0, 1), (2, 3), (0, 3)])
    assert graph.conflict_ratio() == pytest.approx(3 / 6)


def test_rows_are_packed_little_endian():
    graph = ConflictGraph(10, [(0, 1), (0, 9)])
    assert graph.bits.shape == (10, 2) and graph.bits.dtype == np.uint8
    assert graph.bits[0].tolist() == [0b10, 0b10]
    assert graph.bits[9].tolist() == [0b1, 0]


def plain_scan(order, matrix, remaining, user_capacity):
    """Algorithm 2 over a bool matrix: the oracle's reference."""
    arrangement = []
    blocked = np.zeros(matrix.shape[0], dtype=bool)
    for event_id in order:
        if len(arrangement) == user_capacity:
            break
        if remaining[event_id] > 0 and not blocked[event_id]:
            arrangement.append(int(event_id))
            blocked |= matrix[event_id]
    return arrangement


#: Sizes on both sides of a byte (8), a uint64 lane (64) and a
#: 256-row block of the builder and the readers.
SIZES = [1, 7, 8, 9, 63, 64, 65, 257]


@settings(max_examples=60, deadline=None)
@given(
    num_events=st.sampled_from(SIZES),
    ratio=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
    as_array=st.booleans(),
    user_capacity=st.integers(1, 6),
)
def test_packed_graph_answers_like_a_pair_set(num_events, ratio, seed, as_array, user_capacity):
    rng = np.random.default_rng(seed)
    pairs = random_conflicts(num_events, ratio, rng)
    reference = frozenset(pairs)
    matrix = np.zeros((num_events, num_events), dtype=bool)
    for i, j in pairs:
        matrix[i, j] = matrix[j, i] = True
    # Either order and repeats are accepted.
    given_pairs = [(j, i) for i, j in pairs] + pairs[: len(pairs) // 3]
    graph = ConflictGraph(num_events, np.array(given_pairs).reshape(-1, 2) if as_array else given_pairs)

    assert graph.num_pairs() == len(reference)
    assert list(graph.pairs()) == sorted(reference)
    total = num_events * (num_events - 1) // 2
    assert graph.conflict_ratio() == (len(reference) / total if total else 0.0)
    for i in range(num_events):
        np.testing.assert_array_equal(graph.neighbor_mask(i), matrix[i])
        assert graph.neighbors(i) == frozenset(np.flatnonzero(matrix[i]).tolist())
    for _ in range(20):
        i, j = (int(v) for v in rng.integers(0, num_events, size=2))
        assert graph.conflicts(i, j) == ((min(i, j), max(i, j)) in reference)
        events = rng.choice(num_events, size=min(num_events, 4), replace=False).tolist()
        np.testing.assert_array_equal(graph.conflict_mask(events), matrix[events].any(axis=0))
        assert graph.conflicts_with_any(i, events) == bool(matrix[i, events].any())
        assert graph.is_independent(events) == (not matrix[np.ix_(events, events)].any())

    scores = rng.normal(size=num_events)
    remaining = rng.integers(0, 3, size=num_events).astype(float)
    by_score = np.argsort(-scores, kind="stable")
    assert oracle_greedy(scores, graph, remaining, user_capacity) == plain_scan(
        by_score, matrix, remaining, user_capacity
    )
    order = rng.permutation(num_events)
    assert oracle_greedy(scores, graph, remaining, user_capacity, order=order) == plain_scan(
        order, matrix, remaining, user_capacity
    )


@pytest.mark.parametrize("ratio", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_random_conflicts_hits_target_ratio_exactly(ratio):
    num_events = 20
    pairs = random_conflicts(num_events, ratio, seed=1)
    total = num_events * (num_events - 1) // 2
    assert len(pairs) == round(ratio * total)
    assert len(set(pairs)) == len(pairs)  # distinct
    for i, j in pairs:
        assert 0 <= i < j < num_events


def test_random_conflicts_full_ratio_is_all_pairs():
    pairs = random_conflicts(6, 1.0, seed=0)
    assert sorted(pairs) == [(i, j) for i in range(6) for j in range(i + 1, 6)]


def test_random_conflicts_validation():
    with pytest.raises(ConfigurationError):
        random_conflicts(5, 1.5)
    with pytest.raises(ConfigurationError):
        random_conflicts(0, 0.5)


def test_random_conflicts_deterministic_in_seed():
    assert random_conflicts(15, 0.3, seed=4) == random_conflicts(15, 0.3, seed=4)
