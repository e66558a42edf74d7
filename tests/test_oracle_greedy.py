"""Oracle-Greedy (Algorithm 2): feasibility, ordering, edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebsn.conflicts import (
    ConflictGraph,
    DenseConflictGraph,
    SparseConflictGraph,
    random_conflict_array,
)
from repro.exceptions import ConfigurationError
from repro.oracle.greedy import OracleStats, oracle_greedy


def graph(num_events, pairs=()):
    return ConflictGraph(num_events, pairs)


def test_picks_highest_scores_first():
    scores = np.array([0.1, 0.9, 0.5, 0.3])
    result = oracle_greedy(scores, graph(4), np.ones(4), user_capacity=2)
    assert result == [1, 2]


def test_respects_user_capacity():
    scores = np.array([3.0, 2.0, 1.0])
    result = oracle_greedy(scores, graph(3), np.ones(3), user_capacity=1)
    assert result == [0]


def test_skips_full_events():
    scores = np.array([3.0, 2.0, 1.0])
    capacities = np.array([0.0, 1.0, 1.0])
    result = oracle_greedy(scores, graph(3), capacities, user_capacity=2)
    assert result == [1, 2]


def test_skips_conflicting_events():
    scores = np.array([3.0, 2.0, 1.0])
    result = oracle_greedy(scores, graph(3, [(0, 1)]), np.ones(3), user_capacity=3)
    assert result == [0, 2]


def test_includes_non_positive_scores_when_room_remains():
    """The paper keeps hat-r <= 0 events: their true reward may be positive."""
    scores = np.array([-0.5, -1.0])
    result = oracle_greedy(scores, graph(2), np.ones(2), user_capacity=2)
    assert result == [0, 1]


def test_deterministic_tie_break_by_event_id():
    scores = np.array([0.5, 0.5, 0.5])
    result = oracle_greedy(scores, graph(3), np.ones(3), user_capacity=2)
    assert result == [0, 1]


def test_explicit_order_overrides_scores():
    scores = np.array([9.0, 1.0, 5.0])
    result = oracle_greedy(
        scores, graph(3), np.ones(3), user_capacity=2, order=[2, 1, 0]
    )
    assert result == [2, 1]


def test_explicit_order_must_be_a_permutation():
    for order in (
        [0, 0, 1],  # a repeat
        [0, 1, 3],  # an id past |V|
        [0, -1, 1],  # a negative id
        [0, 1],  # too short
        [0, 1, 2, 0],  # too long
        [10**12],  # wrong length and a huge id: no terabyte bincount
    ):
        with pytest.raises(ConfigurationError):
            oracle_greedy(np.ones(3), graph(3), np.ones(3), 1, order=order)


def test_input_validation():
    with pytest.raises(ConfigurationError):
        oracle_greedy(np.ones(3), graph(3), np.ones(2), 1)
    with pytest.raises(ConfigurationError):
        oracle_greedy(np.ones((2, 2)), graph(4), np.ones((2, 2)), 1)
    with pytest.raises(ConfigurationError):
        oracle_greedy(np.ones(2), graph(3), np.ones(2), 1)
    with pytest.raises(ConfigurationError):
        oracle_greedy(np.ones(3), graph(3), np.ones(3), 0)


def test_all_conflicting_yields_single_event():
    """cr = 1: only one event can ever be arranged per round."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    scores = np.array([1.0, 5.0, 3.0, 2.0, 4.0])
    result = oracle_greedy(scores, graph(5, pairs), np.ones(5), user_capacity=5)
    assert result == [1]


def test_no_available_events_yields_empty():
    result = oracle_greedy(np.ones(3), graph(3), np.zeros(3), user_capacity=2)
    assert result == []


# ----------------------------------------------------------------------
# Live-event top-k prefix scan ≡ Algorithm 2's full stable sort
# ----------------------------------------------------------------------
def reference_oracle_greedy(scores, conflicts, remaining, user_capacity):
    """The pre-optimisation implementation: full stable sort + scan."""
    visit_order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    arrangement = []
    blocked = np.zeros(len(scores), dtype=bool)
    for event_id in visit_order.tolist():
        if len(arrangement) >= user_capacity:
            break
        if remaining[event_id] <= 0 or blocked[event_id]:
            continue
        arrangement.append(int(event_id))
        blocked |= conflicts.neighbor_mask(event_id)
    return arrangement


def reference_oracle_stats(scores, conflicts, remaining, user_capacity, order=None):
    """Algorithm 2 over every event (``order``, else the full stable
    sort) with per-skip accounting: the arrangement and the
    :class:`OracleStats` the oracle must report."""
    if order is None:
        order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    stats = OracleStats(
        candidates=int((remaining > 0).sum()), user_capacity=user_capacity
    )
    arrangement = []
    blocked = np.zeros(len(scores), dtype=bool)
    for event_id in np.asarray(order).tolist():
        if len(arrangement) >= user_capacity:
            break
        stats.visited += 1
        if remaining[event_id] <= 0:
            stats.capacity_rejections += 1
        elif blocked[event_id]:
            stats.conflict_rejections += 1
        else:
            arrangement.append(int(event_id))
            blocked |= conflicts.neighbor_mask(event_id)
    stats.arranged = len(arrangement)
    return arrangement, stats


def test_topk_matches_full_sort_with_ties_at_the_cutoff():
    """Many events tied exactly at the top-m prefix cutoff value."""
    n = 100
    scores = np.zeros(n)
    scores[:5] = 2.0       # clear winners
    scores[5:60] = 1.0     # a huge tied band straddling any prefix cutoff
    result = oracle_greedy(scores, graph(n), np.ones(n), user_capacity=3)
    assert result == reference_oracle_greedy(scores, graph(n), np.ones(n), 3)
    assert result == [0, 1, 2]


def test_topk_falls_back_when_conflicts_exhaust_the_prefix():
    """A clique over the whole prefix forces the full-sort continuation."""
    n = 80
    user_capacity = 2
    prefix = max(4 * user_capacity, 16)
    scores = np.linspace(1.0, 2.0, n)  # descending order = ids n-1, n-2, ...
    top_ids = list(range(n - prefix, n))
    pairs = [(i, j) for i in top_ids for j in top_ids if i < j]
    g = graph(n, pairs)
    result = oracle_greedy(scores, g, np.ones(n), user_capacity=user_capacity)
    expected = reference_oracle_greedy(scores, g, np.ones(n), user_capacity)
    assert result == expected
    # One event from the clique, then the best event outside it.
    assert result == [n - 1, n - prefix - 1]


def test_topk_falls_back_when_capacities_exhaust_the_prefix():
    n = 60
    scores = np.arange(n, dtype=float)
    remaining = np.ones(n)
    remaining[-30:] = 0.0  # the whole top half is full
    result = oracle_greedy(scores, graph(n), remaining, user_capacity=4)
    expected = reference_oracle_greedy(scores, graph(n), remaining, 4)
    assert result == expected == [29, 28, 27, 26]


@pytest.mark.parametrize("trial", range(25))
def test_topk_matches_full_sort_on_adversarial_random_instances(trial):
    """Randomised duels: discretised scores (heavy ties), dense conflicts,
    random zero capacities, capacities occasionally exceeding |V|."""
    rng = np.random.default_rng(trial)
    n = int(rng.integers(2, 120))
    # Coarse discretisation forces ties everywhere, including at the cutoff.
    scores = rng.integers(0, 4, size=n).astype(float) / 2.0
    remaining = rng.integers(0, 2, size=n).astype(float) * rng.integers(
        1, 4, size=n
    )
    density = float(rng.uniform(0.0, 0.6))
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.uniform() < density
    ]
    g = graph(n, pairs)
    user_capacity = int(rng.integers(1, n + 2))
    result = oracle_greedy(scores, g, remaining, user_capacity)
    assert result == reference_oracle_greedy(scores, g, remaining, user_capacity)


def make_scores(kind, rng, num_events):
    if kind == "tied":
        return rng.integers(0, 4, size=num_events) / 2.0
    if kind == "zero":
        return np.zeros(num_events)
    if kind == "inf":
        scores = rng.choice([-np.inf, -1.0, 0.0, 1.0, np.inf], size=num_events)
        scores[rng.uniform(size=num_events) < 0.1] = np.nan
        return scores
    scores = rng.normal(size=num_events)
    if kind == "nan":
        # Mostly-NaN catalogues make arrangements end on NaN-scored picks.
        scores[rng.uniform(size=num_events) < rng.choice([0.3, 0.9])] = np.nan
    return scores


@settings(max_examples=150, deadline=None)
@given(
    num_events=st.integers(1, 60) | st.integers(500, 640),
    user_capacity=st.integers(1, 25),
    score_kind=st.sampled_from(["random", "tied", "nan", "inf", "zero"]),
    drained=st.sampled_from([0.0, 2 / 3, 1.0]),
    nan_capacities=st.booleans(),
    backend=st.sampled_from([DenseConflictGraph, SparseConflictGraph]),
    ratio=st.sampled_from([0.0, 0.02, 0.25, 0.6]),
    random_order=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_oracle_matches_algorithm2_reference_with_stats(
    num_events, user_capacity, score_kind, drained, nan_capacities,
    backend, ratio, random_order, seed,
):
    """Same arrangement and all six OracleStats fields as the literal
    Algorithm 2 scan, on both the score path and the ``order=`` path."""
    rng = np.random.default_rng(seed)
    scores = make_scores(score_kind, rng, num_events)
    remaining = rng.integers(1, 4, size=num_events).astype(float)
    remaining[rng.permutation(num_events)[: round(drained * num_events)]] = 0.0
    if nan_capacities:
        remaining[rng.uniform(size=num_events) < 0.2] = np.nan
    conflicts = backend(num_events, random_conflict_array(num_events, ratio, seed))
    order = rng.permutation(num_events) if random_order else None

    stats = OracleStats()
    result = oracle_greedy(
        scores, conflicts, remaining, user_capacity, order=order, stats=stats
    )
    expected, expected_stats = reference_oracle_stats(
        scores, conflicts, remaining, user_capacity, order
    )
    assert result == expected
    assert stats == expected_stats
    assert oracle_greedy(scores, conflicts, remaining, user_capacity, order=order) == (
        expected
    )


def test_stats_count_nan_scored_events_ahead_by_id():
    """A NaN-scored last pick: every number and the lower-id NaNs were
    visited before it (here the drained event 0)."""
    scores = np.array([np.nan, np.nan, np.nan, 1.0])
    remaining = np.array([0.0, 1.0, 1.0, 1.0])
    stats = OracleStats()
    result = oracle_greedy(scores, graph(4), remaining, 2, stats=stats)
    expected, expected_stats = reference_oracle_stats(scores, graph(4), remaining, 2)
    assert result == expected == [3, 1]
    assert stats == expected_stats
    assert (stats.visited, stats.capacity_rejections) == (3, 1)
