"""Conflict graphs over events (Definition 1 of the paper).

A pair of events conflicts when a single user can attend at most one of
them (e.g. overlapping start times).  Two interchangeable backends
implement the same interface:

* :class:`DenseConflictGraph` — an ``|V| x |V|`` boolean matrix; right
  choice for the synthetic workloads where the conflict ratio ``cr``
  can reach 1.0.
* :class:`SparseConflictGraph` — adjacency sets; right choice for small
  or sparse instances such as the 50-event Damai catalogue.

:func:`ConflictGraph` (the public constructor) picks a backend by
density.  A random conflict set of target ratio
``cr = |CF| / (|V| (|V|-1) / 2)`` (Table 4) is one draw of distinct
*ranks* — flat indices into the row-major upper triangle — made with
``Generator.choice(total, size, replace=False)``:

* :func:`random_conflict_array` / :func:`random_conflicts` unrank the
  ranks into ``(i, j)`` pairs, in draw order.
* :func:`random_conflict_graph` needs only the *set* of ranks.  Its
  sparse path unranks them like the pair path.  Its dense path marks
  the set in a flat upper-triangle mask, copies each row's slice into
  the matrix and mirrors it; no pair list is ever built.  From
  ``_TAIL_SET_MIN_PAIRS`` candidate pairs on it does not call
  ``choice`` at all: it draws the same values ``choice``'s tail shuffle
  draws and computes the set that shuffle leaves
  (:func:`_mark_tail_shuffle_set`), without the shuffle's int64 array
  over every pair.

Every path consumes the seed's generator identically, so a world built
from the graph equals one built from the pairs, and a caller that
shares its generator (the Meetup builder) sees the same stream
afterwards.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.linalg.sampling import RngLike, make_rng

Pair = Tuple[int, int]

#: Pair-count density above which the dense backend is selected.
_DENSE_THRESHOLD = 0.05

#: Candidate-pair count from which the dense builder computes the rank
#: set of ``choice``'s tail shuffle itself (:func:`_takes_tail_set`).
#: Below it ``choice`` is as fast or faster: 0.6 vs 1.6 ms at |V| = 500,
#: a tie at |V| = 2000 (DESIGN.md decision 16).
_TAIL_SET_MIN_PAIRS = 1 << 22

#: Draws per chunk when the tail set is built (512 KiB of int64).
_TAIL_SET_CHUNK = 1 << 16


def _normalize_pair(i: int, j: int) -> Pair:
    if i == j:
        raise ConfigurationError(f"an event cannot conflict with itself: {i}")
    if i < 0 or j < 0:
        raise ConfigurationError(f"event ids must be >= 0, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


class BaseConflictGraph:
    """Interface shared by both conflict-graph backends."""

    num_events: int

    def conflicts(self, i: int, j: int) -> bool:
        """Whether events ``i`` and ``j`` conflict."""
        raise NotImplementedError

    def conflicts_with_any(self, event_id: int, others: Sequence[int]) -> bool:
        """Whether ``event_id`` conflicts with any event in ``others``."""
        raise NotImplementedError

    def neighbors(self, event_id: int) -> FrozenSet[int]:
        """All events conflicting with ``event_id``."""
        raise NotImplementedError

    def neighbor_mask(self, event_id: int) -> np.ndarray:
        """Boolean mask over all events conflicting with ``event_id``."""
        mask = np.zeros(self.num_events, dtype=bool)
        for neighbor in self.neighbors(event_id):
            mask[neighbor] = True
        return mask

    def neighbor_mask_view(self, event_id: int) -> np.ndarray:
        """Like :meth:`neighbor_mask` but *may* alias internal storage.

        Hot-path accessor for read-only consumers (the greedy oracle
        ORs it into its own scratch mask every arranged event); callers
        must not mutate the result.  The base implementation simply
        builds a fresh mask.
        """
        return self.neighbor_mask(event_id)

    def pairs(self) -> Iterator[Pair]:
        """Iterate all conflicting pairs ``(i, j)`` with ``i < j``."""
        raise NotImplementedError

    def num_pairs(self) -> int:
        """``|CF|``."""
        raise NotImplementedError

    def is_independent(self, events: Sequence[int]) -> bool:
        """Whether ``events`` is pairwise non-conflicting."""
        events = list(events)
        for idx, i in enumerate(events):
            if self.conflicts_with_any(i, events[idx + 1 :]):
                return False
        return True

    def conflict_ratio(self) -> float:
        """``cr = |CF| / (|V| (|V|-1) / 2)`` (0 when |V| < 2)."""
        total = self.num_events * (self.num_events - 1) // 2
        return self.num_pairs() / total if total else 0.0

    def _check_id(self, event_id: int) -> None:
        if not 0 <= event_id < self.num_events:
            raise ConfigurationError(
                f"event id {event_id} outside 0..{self.num_events - 1}"
            )


class DenseConflictGraph(BaseConflictGraph):
    """Boolean-matrix conflict graph; O(1) pair queries, O(|V|) masks."""

    def __init__(self, num_events: int, pairs: Iterable[Pair] = ()) -> None:
        if num_events < 1:
            raise ConfigurationError(f"num_events must be >= 1, got {num_events}")
        self.num_events = num_events
        self._matrix = np.zeros((num_events, num_events), dtype=bool)
        if isinstance(pairs, np.ndarray):
            # Fast path: an ``(n, 2)`` id array goes straight in without
            # a 125k-tuple Python round trip (world builds at |V|=1000
            # spend more time boxing pairs than sampling them).
            pair_array = np.asarray(pairs, dtype=int).reshape(-1, 2)
        else:
            pair_array = np.asarray(list(pairs), dtype=int)
        if pair_array.size:
            # Bulk-validate and set the whole pair set at once: the
            # synthetic default (cr=0.25, |V|=1000) is ~125k pairs, far
            # too many for a per-pair Python ``add`` loop.
            rows, cols = pair_array[:, 0], pair_array[:, 1]
            if (rows == cols).any():
                offender = int(rows[rows == cols][0])
                raise ConfigurationError(
                    f"an event cannot conflict with itself: {offender}"
                )
            if (pair_array < 0).any() or (pair_array >= num_events).any():
                raise ConfigurationError(
                    f"event ids must be in 0..{num_events - 1}"
                )
            self._matrix[rows, cols] = True
            self._matrix[cols, rows] = True

    def add(self, i: int, j: int) -> None:
        i, j = _normalize_pair(i, j)
        self._check_id(i)
        self._check_id(j)
        self._matrix[i, j] = True
        self._matrix[j, i] = True

    def conflicts(self, i: int, j: int) -> bool:
        self._check_id(i)
        self._check_id(j)
        return bool(self._matrix[i, j])

    def conflicts_with_any(self, event_id: int, others: Sequence[int]) -> bool:
        self._check_id(event_id)
        if not len(others):
            return False
        return bool(self._matrix[event_id, list(others)].any())

    def is_independent(self, events: Sequence[int]) -> bool:
        events = list(events)
        num = len(events)
        matrix = self._matrix
        if num < 2:
            for event_id in events:
                self._check_id(event_id)
            return True
        for event_id in events:
            if not 0 <= event_id < self.num_events:
                self._check_id(event_id)  # raises with the standard message
        if num <= 16:
            # Arrangements are at most ``c_u`` events; a scalar pair loop
            # beats the ``np.ix_`` submatrix gather by ~4x at that size.
            for idx in range(num - 1):
                row = matrix[events[idx]]
                for jdx in range(idx + 1, num):
                    if row[events[jdx]]:
                        return False
            return True
        return not matrix[np.ix_(events, events)].any()

    def conflict_mask(self, events: Sequence[int]) -> np.ndarray:
        """Boolean mask of all events conflicting with any of ``events``."""
        if not len(events):
            return np.zeros(self.num_events, dtype=bool)
        return self._matrix[list(events)].any(axis=0)

    def neighbors(self, event_id: int) -> FrozenSet[int]:
        self._check_id(event_id)
        return frozenset(np.flatnonzero(self._matrix[event_id]).tolist())

    def neighbor_mask(self, event_id: int) -> np.ndarray:
        self._check_id(event_id)
        return self._matrix[event_id].copy()

    def neighbor_mask_view(self, event_id: int) -> np.ndarray:
        self._check_id(event_id)
        return self._matrix[event_id]

    def pairs(self) -> Iterator[Pair]:
        rows, cols = np.nonzero(np.triu(self._matrix, k=1))
        return iter(list(zip(rows.tolist(), cols.tolist())))

    def num_pairs(self) -> int:
        return int(self._matrix.sum()) // 2


class SparseConflictGraph(BaseConflictGraph):
    """Adjacency-set conflict graph; memory proportional to ``|CF|``."""

    def __init__(self, num_events: int, pairs: Iterable[Pair] = ()) -> None:
        if num_events < 1:
            raise ConfigurationError(f"num_events must be >= 1, got {num_events}")
        self.num_events = num_events
        self._adjacency: List[Set[int]] = [set() for _ in range(num_events)]
        self._num_pairs = 0
        for i, j in pairs:
            self.add(i, j)

    def add(self, i: int, j: int) -> None:
        i, j = _normalize_pair(i, j)
        self._check_id(i)
        self._check_id(j)
        if j not in self._adjacency[i]:
            self._adjacency[i].add(j)
            self._adjacency[j].add(i)
            self._num_pairs += 1

    def conflicts(self, i: int, j: int) -> bool:
        self._check_id(i)
        self._check_id(j)
        return j in self._adjacency[i]

    def conflicts_with_any(self, event_id: int, others: Sequence[int]) -> bool:
        self._check_id(event_id)
        adjacent = self._adjacency[event_id]
        return any(o in adjacent for o in others)

    def conflict_mask(self, events: Sequence[int]) -> np.ndarray:
        mask = np.zeros(self.num_events, dtype=bool)
        for e in events:
            self._check_id(e)
            for neighbor in self._adjacency[e]:
                mask[neighbor] = True
        return mask

    def neighbors(self, event_id: int) -> FrozenSet[int]:
        self._check_id(event_id)
        return frozenset(self._adjacency[event_id])

    def pairs(self) -> Iterator[Pair]:
        for i, adjacent in enumerate(self._adjacency):
            for j in sorted(adjacent):
                if i < j:
                    yield (i, j)

    def num_pairs(self) -> int:
        return self._num_pairs


def _prefers_dense(num_events: int, num_pairs: int) -> bool:
    """The backend rule: dense when |V| is small enough that the matrix
    is cheap anyway, or when ``|CF|`` exceeds ``_DENSE_THRESHOLD`` of
    all possible pairs."""
    total = max(num_events * (num_events - 1) // 2, 1)
    return num_events <= 2048 or num_pairs / total > _DENSE_THRESHOLD


def ConflictGraph(
    num_events: int, pairs: Iterable[Pair] = (), dense: "bool | None" = None
) -> BaseConflictGraph:
    """Build a conflict graph, selecting a backend by density.

    ``dense=None`` picks :class:`DenseConflictGraph` when the pair count
    exceeds ``_DENSE_THRESHOLD`` of all possible pairs (or when |V| is
    small enough that the matrix is cheap anyway).
    """
    if isinstance(pairs, np.ndarray):
        pair_input: "np.ndarray | List[Pair]" = pairs.reshape(-1, 2)
        num_pairs = pair_input.shape[0]
    else:
        pair_input = [(int(i), int(j)) for i, j in pairs]
        num_pairs = len(pair_input)
    if dense is None:
        dense = _prefers_dense(num_events, num_pairs)
    if not dense and isinstance(pair_input, np.ndarray):
        pair_input = list(zip(pair_input[:, 0].tolist(), pair_input[:, 1].tolist()))
    backend = DenseConflictGraph if dense else SparseConflictGraph
    return backend(num_events, pair_input)


def _conflict_target(num_events: int, conflict_ratio: float) -> Tuple[int, int]:
    """Validate the arguments; return ``(total, target)``: the
    candidate pairs ``|V| (|V|-1) / 2`` and ``round(cr * total)``."""
    if not 0.0 <= conflict_ratio <= 1.0:
        raise ConfigurationError(f"conflict_ratio must be in [0, 1], got {conflict_ratio}")
    if num_events < 1:
        raise ConfigurationError(f"num_events must be >= 1, got {num_events}")
    total = num_events * (num_events - 1) // 2
    return total, int(round(conflict_ratio * total))


def _sample_conflict_ranks(
    num_events: int, conflict_ratio: float, seed: RngLike
) -> np.ndarray:
    """Draw ``round(cr * |V| (|V|-1) / 2)`` distinct pair ranks, in order.

    A rank is a flat index into the row-major upper triangle: row ``i``
    owns ranks ``[offset_i, offset_i + |V| - 1 - i)``.  The pair path
    and the graph paths draw here, except where the dense graph path
    draws the same set through :func:`_mark_tail_shuffle_set`.  Both
    leave the generator untouched when the target is zero.
    """
    total, target = _conflict_target(num_events, conflict_ratio)
    if target == 0:
        return np.empty(0, dtype=np.int64)
    return make_rng(seed).choice(total, size=target, replace=False)


def _takes_tail_set(total: int, size: int) -> bool:
    """Whether the dense builder computes the rank set itself
    (:func:`_mark_tail_shuffle_set`) instead of calling ``choice``.

    Only where numpy takes its tail-shuffle branch (``total > 10000``
    and ``size > total // 50``), over at least ``_TAIL_SET_MIN_PAIRS``
    candidates.  Below 2^31 candidates (|V| < 65,537) the builder's keys
    fit 62 bits and its parent map int32.
    """
    return _TAIL_SET_MIN_PAIRS <= total < 1 << 31 and total > 10000 and size > total // 50


def _mark_tail_shuffle_set(upper: np.ndarray, size: int, rng: np.random.Generator) -> None:
    """Mark the set ``choice``'s tail shuffle returns, without its array.

    ``choice(total, size, replace=False)`` in its tail-shuffle branch
    fills ``a = arange(total)``, swaps ``a[i]`` with ``a[t_i]``, ``t_i``
    uniform on ``[0, i]``, for ``i = total-1`` down to ``m = total -
    size``, and returns ``a[m:]``.  That set is the one Floyd's
    algorithm builds from the same draws in ascending ``i``: add ``t_i``,
    or ``i`` when ``t_i`` is already in (DESIGN.md decision 16).  So it
    holds every draw, plus each step ``i`` that added itself: when
    ``t_i == i``, when an earlier step drew ``t_i`` too, or when
    ``m <= t_i < i`` and step ``t_i`` added itself.  ``integers(0,
    highs, endpoint=True)`` makes ``choice``'s bounded draws in its
    order, so the generator ends where ``choice`` leaves it.  Peak
    memory is ~10 bytes a drawn rank instead of ``choice``'s 8 bytes a
    candidate.
    """
    total = upper.size
    m = total - size
    shift = size.bit_length()
    low = (1 << shift) - 1
    # Key (t_i << shift) | (i - m): sorting puts equal draws together,
    # the earliest step first.
    keys = np.empty(size, dtype=np.int64)
    for start in range(0, size, _TAIL_SET_CHUNK):
        stop = min(start + _TAIL_SET_CHUNK, size)
        steps = np.arange(total - 1 - start, total - 1 - stop, -1, dtype=np.int64)
        draws = rng.integers(0, steps, endpoint=True)
        steps -= m
        draws <<= shift
        draws |= steps
        keys[start:stop] = draws
    keys.sort()
    # ``added[i - m]``: step ``i`` added itself.  First, the repeats.
    added = np.zeros(size, dtype=bool)
    previous = -1
    for start in range(0, size, _TAIL_SET_CHUNK):
        chunk = keys[start : start + _TAIL_SET_CHUNK]
        drawn = chunk >> shift
        upper[drawn] = True
        repeats = np.empty(drawn.size, dtype=bool)
        repeats[0] = drawn[0] == previous
        np.equal(drawn[1:], drawn[:-1], out=repeats[1:])
        added[chunk[repeats] & low] = True
        previous = drawn[-1]
    # The draws that land in the tail (14% of them at cr = 0.25), copied
    # out so the key buffer is freed before the parent map (``chunk`` is
    # a view of it).
    in_tail = keys[np.searchsorted(keys, m << shift) :].copy()
    del keys, chunk
    steps = in_tail & low
    in_tail >>= shift
    in_tail -= m
    added[steps[in_tail == steps]] = True
    below = in_tail < steps
    steps, parents = steps[below], in_tail[below]
    del in_tail, below
    # Step ``i`` added itself if step ``t_i`` did: resolve the chains
    # by pointer jumping (each round doubles the hops covered).
    parent = np.full(size, -1, dtype=np.int32)
    parent[steps] = parents
    active = steps
    while active.size:
        up = parent[active]
        added[active] |= added[up]
        up = parent[up]
        parent[active] = up
        active = active[up >= 0]
    upper[m:] |= added


def _unrank_pairs(num_events: int, ranks: np.ndarray) -> np.ndarray:
    """The ``(n, 2)`` pairs ``(i, j)``, ``i < j``, of ``ranks``, in order."""
    if not ranks.size:
        return np.empty((0, 2), dtype=int)
    offsets = np.concatenate(
        [[0], np.cumsum(num_events - 1 - np.arange(num_events - 1))]
    )
    rows = np.searchsorted(offsets, ranks, side="right") - 1
    cols = ranks - offsets[rows] + rows + 1
    return np.stack([rows, cols], axis=1).astype(int, copy=False)


def random_conflict_graph(
    num_events: int, conflict_ratio: float, seed: RngLike = None
) -> BaseConflictGraph:
    """The conflict graph of :func:`random_conflict_array`'s draw.

    Equal to ``ConflictGraph(num_events, random_conflict_array(...))``
    for the same seed — same backend, same pairs, same generator use —
    but the dense backend is filled from the ranks directly: a flat
    upper-triangle mask of ``|V| (|V|-1) / 2`` bytes, one contiguous
    slice copy per row, then a tiled mirror of the upper triangle.  The
    matrix depends only on the set of ranks, so the order the pair path
    would scatter them in does not matter.  At |V| = 10^4 and cr = 0.25
    this skips unranking and scattering 12.5M pairs, and
    :func:`_mark_tail_shuffle_set` skips ``choice``'s 381 MiB int64 array.
    """
    total, target = _conflict_target(num_events, conflict_ratio)
    if _prefers_dense(num_events, target) and _takes_tail_set(total, target):
        upper = np.zeros(total, dtype=bool)
        _mark_tail_shuffle_set(upper, target, make_rng(seed))
    else:
        ranks = _sample_conflict_ranks(num_events, conflict_ratio, seed)
        if not _prefers_dense(num_events, ranks.size):
            return ConflictGraph(num_events, _unrank_pairs(num_events, ranks), dense=False)
        upper = np.zeros(total, dtype=bool)
        upper[ranks] = True
        del ranks  # 8 bytes a pair: free them before the |V|^2 matrix
    graph = DenseConflictGraph(num_events)
    matrix = graph._matrix
    offset = 0
    for i in range(num_events - 1):
        length = num_events - 1 - i
        matrix[i, i + 1 :] = upper[offset : offset + length]
        offset += length
    del upper
    # Mirror the upper triangle in cache-resident 256 x 256 tiles: a
    # whole-matrix ``matrix |= matrix.T`` reads the transpose with a
    # |V|-byte stride and is ~4x slower at |V| = 10^4 (same result).
    tile = 256
    for r0 in range(0, num_events, tile):
        for c0 in range(r0, num_events, tile):
            matrix[c0 : c0 + tile, r0 : r0 + tile] |= matrix[r0 : r0 + tile, c0 : c0 + tile].T
    return graph


def random_conflict_array(
    num_events: int, conflict_ratio: float, seed: RngLike = None
) -> np.ndarray:
    """Sample ``round(cr * |V| (|V|-1) / 2)`` distinct conflicting pairs.

    Returns an ``(n, 2)`` int array with ``i < j`` per row, in draw
    order — the form :func:`ConflictGraph` ingests without any per-pair
    Python boxing.  Matches Table 4 of the paper where ``cr`` ranges
    over {0, 0.25, 0.5, 0.75, 1}.
    """
    ranks = _sample_conflict_ranks(num_events, conflict_ratio, seed)
    return _unrank_pairs(num_events, ranks)


def random_conflicts(
    num_events: int, conflict_ratio: float, seed: RngLike = None
) -> List[Pair]:
    """List-of-tuples form of :func:`random_conflict_array` (same draws)."""
    pair_array = random_conflict_array(num_events, conflict_ratio, seed)
    return list(zip(pair_array[:, 0].tolist(), pair_array[:, 1].tolist()))
