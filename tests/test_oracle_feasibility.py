"""Oracle-Greedy always returns a feasible, maximal arrangement.

Property test over random, heavily tied and NaN-laced scores, on both
conflict-graph backends and on graphs from ``random_conflict_graph``,
on small catalogues (|V| < 512, where the top-m prefix often holds
every live event and a stable sort serves) and on large ones (|V| >=
512, where the prefix is always shorter than the catalogue).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebsn.conflicts import (
    DenseConflictGraph,
    SparseConflictGraph,
    random_conflict_array,
    random_conflict_graph,
)
from repro.oracle.greedy import oracle_greedy


def make_graph(kind, num_events, ratio, seed):
    if kind == "builder":
        return random_conflict_graph(num_events, ratio, seed)
    backend = DenseConflictGraph if kind == "dense" else SparseConflictGraph
    return backend(num_events, random_conflict_array(num_events, ratio, seed))


def make_scores(kind, rng, num_events):
    if kind == "tied":
        return rng.integers(0, 4, size=num_events).astype(float) / 2.0
    scores = rng.normal(size=num_events)
    if kind == "nan":
        scores[rng.uniform(size=num_events) < 0.3] = np.nan
    return scores


#: (|V| range, c_u range): the first reaches the stable sort of the
#: live events whenever max(4 c_u, 16) covers them; the second starts
#: from the top-m prefix, since max(4 c_u, 16) <= 80 is far below the
#: live count (about two thirds of |V| >= 512).
REGIMES = {
    "full_sort": ((1, 511), (1, 12)),
    "prefix": ((512, 712), (1, 20)),
}


@pytest.mark.parametrize("regime", sorted(REGIMES))
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    graph_kind=st.sampled_from(["dense", "sparse", "builder"]),
    score_kind=st.sampled_from(["random", "tied", "nan"]),
    ratio=st.sampled_from([0.0, 0.05, 0.25, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_arrangement_is_feasible_and_maximal(
    regime, data, graph_kind, score_kind, ratio, seed
):
    (low, high), (cu_low, cu_high) = REGIMES[regime]
    num_events = data.draw(st.integers(low, high), label="num_events")
    user_capacity = data.draw(st.integers(cu_low, cu_high), label="user_capacity")
    rng = np.random.default_rng(seed)
    conflicts = make_graph(graph_kind, num_events, ratio, seed)
    scores = make_scores(score_kind, rng, num_events)
    remaining = rng.integers(0, 3, size=num_events).astype(float)

    arrangement = oracle_greedy(scores, conflicts, remaining, user_capacity)

    assert len(arrangement) <= user_capacity
    assert len(set(arrangement)) == len(arrangement)
    assert all(remaining[event] > 0 for event in arrangement)
    assert conflicts.is_independent(arrangement)
    if len(arrangement) < user_capacity:
        # Greedy stops early only when nothing else fits.
        chosen = set(arrangement)
        for event in np.flatnonzero(remaining > 0).tolist():
            if event not in chosen:
                assert conflicts.conflicts_with_any(event, arrangement)
