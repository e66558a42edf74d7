"""Oracle-Greedy (Algorithm 2 of the paper).

Visit events in non-increasing order of estimated reward; add each
visited event to the arrangement if it still has capacity and does not
conflict with anything already chosen; stop once ``c_u`` events are
arranged.  Events with non-positive estimated reward are deliberately
*kept* (see the discussion after Example 2 in the paper): they only
enter when nothing better fits, and their true reward may be positive.

Complexity: the paper's analysis budgets ``O(|V| log |V|)`` for the
sort plus ``O(c_u |V|)`` conflict checks.  An event without capacity can
never be arranged, so the implementation first drops those (one
``O(|V|)`` mask) and orders only the ``L`` live events: an
``np.partition`` top-``m`` prefix with ``m = max(4 c_u, 16)``
(``O(L + m log m)``), continued over the strictly worse remainder only
when conflicts burn through the whole prefix.  The same path runs at
every ``|V|``; a stable sort of the live events serves only when the
prefix would hold them all or degenerates (NaN cutoff, ties covering
every event).  Drained events are never sorted or stepped through.
The visiting order of the live events — and therefore the returned
arrangement, ascending-id tie-break included — is identical to a full
stable sort of every event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np
import numpy.typing as npt

from repro.ebsn.conflicts import BaseConflictGraph
from repro.ebsn.users import check_user_capacity
from repro.exceptions import ConfigurationError

FloatArray = npt.NDArray[np.float64]
BoolArray = npt.NDArray[np.bool_]
IntArray = npt.NDArray[np.int_]

#: The top-m prefix holds ``max(PREFIX_FACTOR * c_u, PREFIX_MIN)``
#: candidates — slack for entries lost to conflicts.
_PREFIX_FACTOR = 4
_PREFIX_MIN = 16


@dataclass
class OracleStats:
    """Per-call diagnostics of one Oracle-Greedy invocation.

    Filled only when a caller passes ``stats=`` to :func:`oracle_greedy`.
    The counts are derived after the scan from where its last pick sits
    in the full visiting order, so the scan itself is the same loop
    with or without instrumentation.

    Attributes
    ----------
    candidates:
        Events with remaining capacity at call time (the feasible pool).
    visited:
        Events the greedy scan of every event would have inspected.
    capacity_rejections:
        Visited events skipped because their capacity was exhausted.
    conflict_rejections:
        Visited events skipped because they conflict with a chosen one.
    arranged:
        Size of the returned arrangement.
    user_capacity:
        ``c_u`` of the request (denominator of the fill rate).
    """

    candidates: int = 0
    visited: int = 0
    capacity_rejections: int = 0
    conflict_rejections: int = 0
    arranged: int = 0
    user_capacity: int = 0

    @property
    def fill_rate(self) -> float:
        """``arranged / c_u`` — 1.0 means the request was fully served."""
        return self.arranged / self.user_capacity if self.user_capacity else 0.0


def _greedy_scan(
    live_order: Iterable[int],
    conflicts: BaseConflictGraph,
    user_capacity: int,
    arrangement: List[int],
    blocked: BoolArray,
) -> None:
    """Append the unblocked events of ``live_order`` until ``c_u`` are
    arranged (mutates in place).

    ``live_order`` is a list for a short top-m prefix and an array
    otherwise: an array is iterated lazily, so a scan that fills up
    after a handful of events never converts the rest of the order to
    Python ints.
    """
    for event_id in live_order:
        if blocked[event_id]:
            continue
        arrangement.append(int(event_id))
        if len(arrangement) >= user_capacity:
            return
        blocked |= conflicts.neighbor_mask_view(arrangement[-1])


def _top_prefix_order(scores: FloatArray, prefix: int) -> Optional[IntArray]:
    """Indices of every entry scoring at least the ``prefix``-th best, in
    exactly the order a full stable sort on ``-scores`` would visit them.

    Returns ``None`` when the tied tail around the cutoff makes the
    prefix degenerate (no better than sorting everything).
    """
    # The ``prefix``-th best score; NaN (sorted last) when fewer than
    # ``prefix`` scores are numbers.  ``-scores`` is a fresh array, so it
    # is partitioned in place (``np.partition`` would copy it again).
    negated = -scores
    negated.partition(prefix - 1)
    cutoff = -negated[prefix - 1]
    if cutoff != cutoff:  # NaN, un-orderable scores: let the full sort decide
        return None
    # Entries tied *at* the cutoff may outnumber the prefix's free
    # slots, so take all of them to keep the ascending-id tie-break exact.
    candidates: IntArray = (scores >= cutoff).nonzero()[0]
    if candidates.size >= scores.size:
        return None
    # ``candidates`` is ascending; a stable sort on the negated scores
    # therefore reproduces the global tie-break.
    return candidates[(-scores[candidates]).argsort(kind="stable")]


def _ahead_by_score(scores: FloatArray, event_id: int) -> BoolArray:
    """Events a stable sort on ``-scores`` visits before ``event_id``."""
    score = scores[event_id]
    if np.isnan(score):  # NaN sorts last: every number, then lower ids
        ahead: BoolArray = ~np.isnan(scores)
        ahead[:event_id] = True
        return ahead
    ahead = scores > score
    ahead[:event_id] |= scores[:event_id] == score
    return ahead


def _ahead_in_order(order: IntArray, event_id: int) -> BoolArray:
    """Events ``order`` visits before ``event_id``."""
    ahead: BoolArray = np.zeros(order.size, dtype=bool)
    ahead[order[: int((order == event_id).nonzero()[0][0])]] = True
    return ahead


def _fill_stats(
    stats: OracleStats,
    arrangement: List[int],
    user_capacity: int,
    capacities: FloatArray,
    dead: BoolArray,
    ahead_of: Callable[[int], BoolArray],
) -> None:
    """Derive what a scan over every event would have counted.

    That scan stops right after the ``c_u``-th pick, having visited it
    and everything ahead of it; a short arrangement means it visited
    all of ``V``.  Visited dead events are capacity rejections, and the
    other visited events that were not arranged are conflict rejections.
    """
    if len(arrangement) < user_capacity:
        visited, capacity_rejections = dead.size, int(dead.sum())
    else:
        ahead = ahead_of(arrangement[-1])
        visited = int(ahead.sum()) + 1
        capacity_rejections = int((ahead & dead).sum())
    stats.user_capacity = int(user_capacity)
    stats.candidates = int((capacities > 0).sum())  # NaN: live, not a candidate
    stats.visited += visited
    stats.capacity_rejections += capacity_rejections
    stats.conflict_rejections += visited - capacity_rejections - len(arrangement)
    stats.arranged = len(arrangement)


def oracle_greedy(
    scores: npt.ArrayLike,
    conflicts: BaseConflictGraph,
    remaining_capacities: npt.ArrayLike,
    user_capacity: int,
    order: Optional[Sequence[int]] = None,
    stats: Optional[OracleStats] = None,
) -> List[int]:
    """Return a feasible arrangement greedily by score.

    Parameters
    ----------
    scores:
        Estimated reward per event id (``\\hat r_{t,v}``); higher is
        visited earlier.  Ties are broken by ascending event id so the
        result is deterministic.
    conflicts:
        The conflict graph.
    remaining_capacities:
        Remaining capacity per event id; events at 0 are skipped.
    user_capacity:
        ``c_u`` — the maximum arrangement size, an integer >= 1.
    order:
        Optional explicit visiting order (used by the Random baseline);
        overrides the score sort when given.
    stats:
        Optional :class:`OracleStats` to fill with per-call diagnostics
        (candidate pool size, skip reasons, fill rate).  The returned
        arrangement is identical either way.

    Returns
    -------
    list of int
        Event ids in the order they were arranged.
    """
    score_vec: FloatArray = np.asarray(scores, dtype=float)
    capacity_vec: FloatArray = np.asarray(remaining_capacities, dtype=float)
    if score_vec.shape != capacity_vec.shape:
        raise ConfigurationError(
            f"scores shape {score_vec.shape} != capacities shape "
            f"{capacity_vec.shape}"
        )
    if score_vec.ndim != 1:
        raise ConfigurationError("scores must be one-dimensional")
    if score_vec.size != conflicts.num_events:
        raise ConfigurationError(
            f"{score_vec.size} scores but conflict graph covers "
            f"{conflicts.num_events} events"
        )
    check_user_capacity(user_capacity)

    arrangement: List[int] = []
    blocked: BoolArray = np.zeros(score_vec.size, dtype=bool)
    # A NaN capacity stays live: ``NaN <= 0`` is false.  Each path below
    # skips its O(|V|) liveness gather when nothing is drained
    # (``count_nonzero`` is one C call; ``ndarray.any`` pays a Python
    # reduction wrapper).
    dead: BoolArray = capacity_vec <= 0

    if order is not None:
        visit_order: IntArray = np.asarray(order, dtype=int).reshape(-1)
        not_a_permutation = "order must be a permutation of all event ids"
        # The length first: ``bincount`` sizes its output by the largest id.
        if visit_order.size != score_vec.size:
            raise ConfigurationError(not_a_permutation)
        # Permutation check via bincount: O(|V|) instead of the
        # O(|V| log |V|) sort — the Random baseline pays this per round.
        # |V| ids in range fill |V| slots exactly when none repeats; an id
        # >= |V| lengthens ``counts`` and a negative one makes it raise.
        try:
            counts = np.bincount(visit_order, minlength=score_vec.size)
        except ValueError:
            raise ConfigurationError(not_a_permutation) from None
        if counts.size != score_vec.size or np.count_nonzero(counts) != counts.size:
            raise ConfigurationError(not_a_permutation)
        live_order = (
            visit_order[~dead[visit_order]] if np.count_nonzero(dead) else visit_order
        )
        _greedy_scan(live_order, conflicts, user_capacity, arrangement, blocked)
        if stats is not None:
            _fill_stats(
                stats, arrangement, user_capacity, capacity_vec, dead,
                lambda event_id: _ahead_in_order(visit_order, event_id),
            )
        return arrangement

    # Order the live events only; ``head`` and ``rest`` index ``live_scores``.
    live: Optional[IntArray] = (
        (~dead).nonzero()[0] if np.count_nonzero(dead) else None
    )
    live_scores = score_vec if live is None else score_vec[live]
    prefix = max(_PREFIX_FACTOR * user_capacity, _PREFIX_MIN)
    head = (
        _top_prefix_order(live_scores, prefix) if prefix < live_scores.size else None
    )
    visit: Iterable[int]
    if head is None:
        # Stable sort on (-score): non-increasing score, ascending-id ties.
        head = (-live_scores).argsort(kind="stable")
        visit = head if live is None else live[head]
    else:
        # A short top-m prefix: visit it as Python ints.
        visit = (head if live is None else live[head]).tolist()
    _greedy_scan(visit, conflicts, user_capacity, arrangement, blocked)
    if len(arrangement) < user_capacity and head.size < live_scores.size:
        # Prefix exhausted by conflicts: order the strictly worse
        # remainder and keep scanning with the same state.  The
        # concatenation [prefix order, remainder order] is exactly the
        # full stable sort, so the result is unchanged.  ``~(>= cutoff)``
        # rather than ``< cutoff`` so un-orderable (NaN) entries still
        # get visited, last, as a full sort would.
        rest: IntArray = (~(live_scores >= live_scores[head[-1]])).nonzero()[0]
        rest = rest[(-live_scores[rest]).argsort(kind="stable")]
        _greedy_scan(
            rest if live is None else live[rest],
            conflicts, user_capacity, arrangement, blocked,
        )
    if stats is not None:
        _fill_stats(
            stats, arrangement, user_capacity, capacity_vec, dead,
            lambda event_id: _ahead_by_score(score_vec, event_id),
        )
    return arrangement
