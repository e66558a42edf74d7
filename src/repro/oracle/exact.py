"""Exact arrangement oracle via branch and bound.

Finds the feasible arrangement (non-conflicting, capacity-respecting,
size <= ``c_u``) maximising the summed score.  Exponential in the worst
case — intended for small instances: certifying Oracle-Greedy's
``1/c_u`` approximation bound in tests, and the oracle-quality ablation
benchmark.

Only events with strictly positive score can improve the objective, so
the search is restricted to them; this matches Theorem 1, which bounds
``sum_{v in A_t | r>0} r`` against the optimum over positive-score
events.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import numpy.typing as npt

from repro.ebsn.conflicts import ConflictGraph
from repro.exceptions import ConfigurationError

#: Refuse instances with more candidate events than this (the search is
#: exponential; anything larger should use Oracle-Greedy).
MAX_EXACT_CANDIDATES = 40


def exact_arrangement(
    scores: npt.ArrayLike,
    conflicts: ConflictGraph,
    remaining_capacities: npt.ArrayLike,
    user_capacity: int,
) -> List[int]:
    """Return a maximum-score feasible arrangement (positive scores only)."""
    score_vec: npt.NDArray[np.float64] = np.asarray(scores, dtype=float)
    capacity_vec: npt.NDArray[np.float64] = np.asarray(
        remaining_capacities, dtype=float
    )
    if score_vec.ndim != 1 or score_vec.shape != capacity_vec.shape:
        raise ConfigurationError("scores and capacities must be matching vectors")
    if user_capacity < 1:
        raise ConfigurationError(f"user capacity must be >= 1, got {user_capacity}")

    candidates = [
        int(v)
        for v in np.argsort(-score_vec, kind="stable")
        if score_vec[v] > 0 and capacity_vec[v] > 0
    ]
    if len(candidates) > MAX_EXACT_CANDIDATES:
        raise ConfigurationError(
            f"{len(candidates)} positive-score events exceed the exact-oracle "
            f"limit of {MAX_EXACT_CANDIDATES}"
        )

    best_set: List[int] = []
    best_value = 0.0
    # Suffix sums of sorted scores give an admissible upper bound for pruning.
    sorted_scores = [float(score_vec[v]) for v in candidates]

    def remaining_bound(start: int, slots: int) -> float:
        return float(sum(sorted_scores[start : start + slots]))

    def search(start: int, chosen: List[int], value: float) -> None:
        nonlocal best_set, best_value
        if value > best_value:
            best_value = value
            best_set = list(chosen)
        slots = user_capacity - len(chosen)
        if slots == 0 or start == len(candidates):
            return
        if value + remaining_bound(start, slots) <= best_value:
            return
        for idx in range(start, len(candidates)):
            event_id = candidates[idx]
            if conflicts.conflicts_with_any(event_id, chosen):
                continue
            if value + remaining_bound(idx, slots) <= best_value:
                break
            chosen.append(event_id)
            search(idx + 1, chosen, value + float(score_vec[event_id]))
            chosen.pop()

    search(0, [], 0.0)
    return sorted(best_set)


def arrangement_value(scores: npt.ArrayLike, arrangement: Sequence[int]) -> float:
    """Summed score of an arrangement, counting only positive scores.

    This is the quantity Theorem 1 compares:
    ``sum_{v in A | score(v) > 0} score(v)``.
    """
    score_vec: npt.NDArray[np.float64] = np.asarray(scores, dtype=float)
    return float(sum(score_vec[v] for v in arrangement if score_vec[v] > 0))
