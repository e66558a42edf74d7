"""Conflict graphs over events (Definition 1 of the paper).

A pair of events conflicts when a single user can attend at most one of
them (e.g. overlapping start times).  :class:`ConflictGraph` stores the
symmetric relation as packed bits: row ``i`` is ``ceil(|V| / 8)`` bytes,
and bit ``j & 7`` of byte ``j >> 3`` (little-endian within the byte) is
set when ``i`` and ``j`` conflict.  That is |V| * ceil(|V| / 8) bytes:
11.9 MiB at |V| = 10^4, 31 KiB at |V| = 500.  Algorithm 2 only asks
whether a visited event conflicts with one already arranged, so the
greedy oracle ORs packed rows into a packed mask and tests one bit per
candidate.

A random conflict set of target ratio
``cr = |CF| / (|V| (|V|-1) / 2)`` (Table 4) is one draw of distinct
*ranks* — flat indices into the row-major upper triangle — made with
``Generator.choice(total, size, replace=False)``:

* :func:`random_conflict_array` / :func:`random_conflicts` unrank the
  ranks into ``(i, j)`` pairs, in draw order.
* :func:`random_conflict_graph` needs only the *set* of ranks.  It marks
  the set in a packed bitset over the upper triangle and packs the rows
  from it, mirrored tile by tile (:func:`_graph_from_upper`); no pair
  list is ever built.  From ``_TAIL_SET_MIN_PAIRS`` candidate pairs on
  it does not call ``choice`` at all: it draws the same values
  ``choice``'s tail shuffle draws and computes the set that shuffle
  leaves (:func:`_tail_shuffle_set`), without the shuffle's int64 array
  over every pair.

Every path consumes the seed's generator identically, so a world built
from the graph equals one built from the pairs, and a caller that
shares its generator (the Meetup builder) sees the same stream
afterwards.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.linalg.sampling import RngLike, make_rng

Pair = Tuple[int, int]

#: ``_BIT[k]``: the byte with only bit ``k`` set.
_BIT = (1 << np.arange(8)).astype(np.uint8)

#: ``_POPCOUNT[b]``: the set bits of byte ``b`` (``np.bitwise_count``
#: needs numpy 2; the floor is 1.21).
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)

#: Rows per block when a graph is packed, mirrored, counted or listed.
_BLOCK = 256

#: Candidate-pair count from which the builder computes the rank set of
#: ``choice``'s tail shuffle itself (:func:`_takes_tail_set`).  Below it
#: ``choice`` is as fast or faster (DESIGN.md decision 16).
_TAIL_SET_MIN_PAIRS = 1 << 22

#: Draws per chunk when the tail set is built.
_TAIL_SET_CHUNK = 1 << 16


def _normalize_pair(i: int, j: int) -> Pair:
    if i == j:
        raise ConfigurationError(f"an event cannot conflict with itself: {i}")
    if i < 0 or j < 0:
        raise ConfigurationError(f"event ids must be >= 0, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


class ConflictGraph:
    """Packed-bit conflict graph: O(1) pair queries, |V|/8-byte rows.

    ``pairs`` is an iterable of ``(i, j)`` or an ``(n, 2)`` id array;
    repeats and either order are accepted.  ``bits`` is the packed
    ``(|V|, ceil(|V| / 8))`` uint8 matrix; callers only read it.
    """

    def __init__(self, num_events: int, pairs: Iterable[Pair] = ()) -> None:
        if num_events < 1:
            raise ConfigurationError(f"num_events must be >= 1, got {num_events}")
        self.num_events = num_events
        self.bits = np.zeros((num_events, (num_events + 7) >> 3), dtype=np.uint8)
        source = pairs if isinstance(pairs, np.ndarray) else list(pairs)
        pair_array = np.asarray(source, dtype=np.intp).reshape(-1, 2)
        if not pair_array.size:
            return
        rows, cols = pair_array[:, 0], pair_array[:, 1]
        if (rows == cols).any():
            offender = int(rows[rows == cols][0])
            raise ConfigurationError(f"an event cannot conflict with itself: {offender}")
        if (pair_array < 0).any() or (pair_array >= num_events).any():
            raise ConfigurationError(f"event ids must be in 0..{num_events - 1}")
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        np.bitwise_or.at(self.bits, (rows, cols >> 3), _BIT.take(cols & 7))

    def add(self, i: int, j: int) -> None:
        """Mark events ``i`` and ``j`` as conflicting."""
        i, j = _normalize_pair(i, j)
        self._check_id(i)
        self._check_id(j)
        self.bits[i, j >> 3] |= _BIT[j & 7]
        self.bits[j, i >> 3] |= _BIT[i & 7]

    def conflicts(self, i: int, j: int) -> bool:
        """Whether events ``i`` and ``j`` conflict."""
        self._check_id(i)
        self._check_id(j)
        return bool(self.bits.item(i, j >> 3) >> (j & 7) & 1)

    def conflicts_with_any(self, event_id: int, others: Sequence[int]) -> bool:
        """Whether ``event_id`` conflicts with any event in ``others``."""
        self._check_id(event_id)
        item = self.bits.item
        return any(item(event_id, j >> 3) >> (j & 7) & 1 for j in others)

    def is_independent(self, events: Sequence[int]) -> bool:
        """Whether ``events`` is pairwise non-conflicting.

        Arrangements hold at most ``c_u`` events, so this is a scalar
        bit test per pair (``Platform.commit`` calls it every round).
        """
        events = list(events)
        for event_id in events:
            if not 0 <= event_id < self.num_events:
                self._check_id(event_id)  # raises with the standard message
        item = self.bits.item
        for idx, i in enumerate(events):
            for j in events[idx + 1 :]:
                if item(i, j >> 3) >> (j & 7) & 1:
                    return False
        return True

    def neighbors(self, event_id: int) -> FrozenSet[int]:
        """All events conflicting with ``event_id``."""
        return frozenset(self.neighbor_mask(event_id).nonzero()[0].tolist())

    def neighbor_mask(self, event_id: int) -> np.ndarray:
        """Boolean mask over all events conflicting with ``event_id``."""
        self._check_id(event_id)
        return self._unpack(self.bits[event_id])

    def conflict_mask(self, events: Sequence[int]) -> np.ndarray:
        """Boolean mask of all events conflicting with any of ``events``."""
        events = list(events)
        for event_id in events:
            self._check_id(event_id)
        if not events:
            return np.zeros(self.num_events, dtype=bool)
        return self._unpack(np.bitwise_or.reduce(self.bits[events], axis=0))

    def pairs(self) -> Iterator[Pair]:
        """Iterate all conflicting pairs ``(i, j)`` with ``i < j``, sorted."""
        for start in range(0, self.num_events, _BLOCK):
            block = self._unpack(self.bits[start : start + _BLOCK])
            rows, cols = np.triu(block, k=start + 1).nonzero()
            yield from zip((rows + start).tolist(), cols.tolist())

    def num_pairs(self) -> int:
        """``|CF|``: half the set bits (each pair is stored twice)."""
        return sum(
            int(_POPCOUNT[self.bits[start : start + _BLOCK]].sum())
            for start in range(0, self.num_events, _BLOCK)
        ) // 2

    def conflict_ratio(self) -> float:
        """``cr = |CF| / (|V| (|V|-1) / 2)`` (0 when |V| < 2)."""
        total = self.num_events * (self.num_events - 1) // 2
        return self.num_pairs() / total if total else 0.0

    def _unpack(self, packed: np.ndarray) -> np.ndarray:
        """Packed rows (last axis) as booleans over the |V| events."""
        return np.unpackbits(packed, axis=-1, count=self.num_events, bitorder="little").view(bool)

    def _check_id(self, event_id: int) -> None:
        if not 0 <= event_id < self.num_events:
            raise ConfigurationError(
                f"event id {event_id} outside 0..{self.num_events - 1}"
            )


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
    and the graph path draw here, except where the graph path draws the
    same set through :func:`_tail_shuffle_set`.  Both leave the
    generator untouched when the target is zero.
    """
    total, target = _conflict_target(num_events, conflict_ratio)
    if target == 0:
        return np.empty(0, dtype=np.int64)
    return make_rng(seed).choice(total, size=target, replace=False)


def _takes_tail_set(total: int, size: int) -> bool:
    """Whether the builder computes the rank set itself
    (:func:`_tail_shuffle_set`) instead of calling ``choice``.

    Only where numpy takes its tail-shuffle branch (``total > 10000``
    and ``size > total // 50``), over at least ``_TAIL_SET_MIN_PAIRS``
    candidates.  Up to 2^32 candidates (|V| <= 92,682) a draw fits the
    builder's uint32.
    """
    return _TAIL_SET_MIN_PAIRS <= total <= 1 << 32 and total > 10000 and size > total // 50


def _tail_shuffle_set(total: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """The set ``choice``'s tail shuffle returns, as a packed bitset
    over the ``total`` ranks, without the shuffle's array.

    ``choice(total, size, replace=False)`` in its tail-shuffle branch
    fills ``a = arange(total)``, swaps ``a[i]`` with ``a[t_i]``, ``t_i``
    uniform on ``[0, i]``, for ``i = total-1`` down to ``m = total -
    size``, and returns ``a[m:]``.  That set is the one Floyd's
    algorithm builds from the same draws in ascending ``i``: add ``t_i``,
    or ``i`` when ``t_i`` is already in (DESIGN.md decision 16).  So it
    holds every draw, plus each step ``i`` that added itself: when an
    earlier step drew ``t_i`` too, or when ``m <= t_i < i`` and step
    ``t_i`` added itself.  ``integers(0, highs, endpoint=True)`` makes
    ``choice``'s bounded draws in its order, so the generator ends where
    ``choice`` leaves it.  The draws are kept as uint32, 4 bytes a drawn
    rank, and the set as bits: total / 8 bytes.
    """
    m = total - size
    draws = np.empty(size, dtype=np.uint32)  # draws[k] = t_(total-1-k)
    for start in range(0, size, _TAIL_SET_CHUNK):
        stop = min(start + _TAIL_SET_CHUNK, size)
        highs = np.arange(total - 1 - start, total - 1 - stop, -1, dtype=np.int64)
        draws[start:stop] = rng.integers(0, highs, endpoint=True)
    chosen = np.zeros((total + 7) >> 3, dtype=np.uint8)
    shift = (_TAIL_SET_CHUNK + 7).bit_length()
    offsets = np.arange(_TAIL_SET_CHUNK + 8, dtype=np.int64)
    added = np.empty(_TAIL_SET_CHUNK + 8, dtype=bool)
    # Floyd's steps in ascending chunks [i0, i1), indexed from the byte
    # boundary ``base`` below i0; every chunk after the first starts on
    # a multiple of the chunk size.
    i0 = m
    while i0 < total:
        base = i0 & ~7
        i1 = min((i0 // _TAIL_SET_CHUNK + 1) * _TAIL_SET_CHUNK, total)
        span = i1 - base
        # Key (t_i << shift) | (i - base): sorting puts equal draws
        # together, the earliest step first.
        keys = draws[total - i1 : total - i0][::-1].astype(np.int64)
        keys <<= shift
        keys |= offsets[i0 - base : span]
        keys.sort()
        drawn = keys >> shift
        steps = keys & ((1 << shift) - 1)
        byte, bit = drawn >> 3, _BIT.take(drawn & 7)
        held = chosen.take(byte)
        # Step i adds itself when t_i is in already: from an earlier
        # chunk, from an earlier step of this one ...
        hit = (held & bit).astype(bool)
        np.logical_or(hit[1:], drawn[1:] == drawn[:-1], out=hit[1:])
        added[:span] = False
        added[steps] = hit
        # ... or as a step ``i0 <= t_i < i`` that added itself: resolve
        # those chains by pointer jumping (each round doubles the hops).
        tail = int(np.searchsorted(drawn, i0))
        parents = drawn[tail:] - base
        chained = (parents < steps[tail:]) & ~hit[tail:]
        active = steps[tail:][chained]
        if active.size:
            parent = np.full(span, -1, dtype=np.int64)
            parent[active] = parents[chained]
            while active.size:
                up = parent[active]
                added[active] |= added[up]
                up = parent[up]
                parent[active] = up
                active = active[up >= 0]
        # Mark the draws.  Where two share a byte the scatter keeps one
        # of them, so OR those in again.
        held |= bit
        chosen[byte] = held
        shared = (byte[1:] == byte[:-1]).nonzero()[0]
        if shared.size:
            shared = np.concatenate([shared, shared + 1])
            np.bitwise_or.at(chosen, byte[shared], bit[shared])
        chosen[base >> 3 : (i1 + 7) >> 3] |= np.packbits(added[:span], bitorder="little")
        i0 = i1
    return chosen


def _graph_from_upper(num_events: int, upper: np.ndarray) -> ConflictGraph:
    """The graph whose pairs are the ranks set in the packed bitset
    ``upper``.

    Rows are packed ``_BLOCK`` at a time from a 0/1 byte block: each
    row's contiguous slice of ranks is copied in, then the block is
    packed along its rows (its upper triangle) and down its columns
    (the mirror, for the rows below).  A column pack ORs eight rows'
    bytes shifted by 0..7 in uint64 lanes, eight columns a lane.
    """
    graph = ConflictGraph(num_events)
    bits = graph.bits
    width = bits.shape[1] << 3
    block = np.zeros((_BLOCK, width), dtype=np.uint8)
    lanes = block.view(np.uint64).reshape(_BLOCK >> 3, 8, width >> 3)
    offset = 0
    for r0 in range(0, num_events, _BLOCK):
        r1 = min(r0 + _BLOCK, num_events)
        count = (r1 - r0) * (2 * num_events - r0 - r1 - 1) // 2
        first = offset >> 3
        flat = np.unpackbits(upper[first : (offset + count + 7) >> 3], bitorder="little")
        start = offset - (first << 3)
        offset += count
        # Columns below r0 are never read; clearing [r0, r1) clears the
        # lower triangle and whatever the last, short block leaves over.
        block[:, r0:r1] = 0
        for row in range(r0, r1):
            stop = start + num_events - 1 - row
            block[row - r0, row + 1 : num_events] = flat[start:stop]
            start = stop
        b0 = r0 >> 3
        bits[r0:r1, b0:] = np.packbits(block[: r1 - r0, r0:], axis=1, bitorder="little")
        packed = lanes[:, 0].copy()
        for lane in range(1, 8):
            packed |= lanes[:, lane] << lane
        columns = packed.view(np.uint8)[: (r1 - r0 + 7) >> 3]
        b1 = b0 + columns.shape[0]
        bits[r0:r1, b0:b1] |= columns[:, r0:r1].T
        bits[r1:, b0:b1] = columns[:, r1:num_events].T
    return graph


def _pack_ranks(total: int, ranks: np.ndarray) -> np.ndarray:
    """``ranks`` as a packed bitset over ``total`` candidates.

    Through a bool mask when it costs at most the ranks' own 8 bytes
    each (7x faster than ``ufunc.at`` at |V| = 500, cr = 0.25), else
    bit by bit, so a sparse set never takes a byte a candidate.
    """
    if ranks.size * 8 >= total:
        mask = np.zeros(total, dtype=bool)
        mask[ranks] = True
        return np.packbits(mask, bitorder="little")
    upper = np.zeros((total + 7) >> 3, dtype=np.uint8)
    np.bitwise_or.at(upper, ranks >> 3, _BIT.take(ranks & 7))
    return upper


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
) -> ConflictGraph:
    """The conflict graph of :func:`random_conflict_array`'s draw.

    Equal to ``ConflictGraph(num_events, random_conflict_array(...))``
    for the same seed — same pairs, same generator use — but filled from
    the set of ranks, as a packed upper-triangle bitset of
    ``|V| (|V|-1) / 16`` bytes.  The graph depends only on that set, so
    the order the pair path would add the pairs in does not matter.  At
    |V| = 10^4 and cr = 0.25 this skips unranking and scattering 12.5M
    pairs, and :func:`_tail_shuffle_set` skips ``choice``'s 381 MiB
    int64 array.
    """
    total, target = _conflict_target(num_events, conflict_ratio)
    if _takes_tail_set(total, target):
        upper = _tail_shuffle_set(total, target, make_rng(seed))
    else:
        upper = _pack_ranks(total, _sample_conflict_ranks(num_events, conflict_ratio, seed))
    return _graph_from_upper(num_events, upper)


def random_conflict_array(
    num_events: int, conflict_ratio: float, seed: RngLike = None
) -> np.ndarray:
    """Sample ``round(cr * |V| (|V|-1) / 2)`` distinct conflicting pairs.

    Returns an ``(n, 2)`` int array with ``i < j`` per row, in draw
    order — the form :class:`ConflictGraph` ingests without any per-pair
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
