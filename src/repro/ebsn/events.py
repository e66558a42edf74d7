"""Event records and the capacity-tracking event store.

Events are identified by dense integer ids ``0 .. |V|-1`` so policies
can use numpy arrays indexed by event id throughout; richer metadata
(title, category, venue) is optional and only populated by the
Damai/Meetup dataset generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.exceptions import CapacityError, ConfigurationError, UnknownEventError


@dataclass(frozen=True)
class Event:
    """A single event in the catalogue.

    Attributes
    ----------
    event_id:
        Dense integer id in ``0 .. |V|-1``.
    capacity:
        Maximum number of attendees ``c_v`` (may be ``math.inf`` for the
        basic-contextual-bandit setting where capacities are ignored).
    title, category, subcategory:
        Optional human-readable metadata (used by the Damai dataset).
    tags:
        Tag strings used by the OnlineGreedy-GEACC baseline.
    attributes:
        Free-form metadata (price band, venue, day of week, ...).
    """

    event_id: int
    capacity: float
    title: str = ""
    category: str = ""
    subcategory: str = ""
    tags: Sequence[str] = field(default_factory=tuple)
    attributes: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.event_id < 0:
            raise ConfigurationError(f"event_id must be >= 0, got {self.event_id}")
        if not (self.capacity >= 0):
            raise ConfigurationError(
                f"capacity must be non-negative, got {self.capacity}"
            )


class EventStore:
    """The event catalogue with per-event remaining-capacity accounting.

    The store is the single source of truth for which events are still
    available (``c_v > 0``); the simulation decrements capacities only
    for *accepted* events, matching line 12 of Algorithms 1/3/4.
    """

    def __init__(self, events: Iterable[Event]) -> None:
        self._events: Optional[List[Event]] = sorted(events, key=lambda e: e.event_id)
        if not self._events:
            raise ConfigurationError("an EventStore needs at least one event")
        ids = [e.event_id for e in self._events]
        if ids != list(range(len(ids))):
            raise ConfigurationError(
                "event ids must be the dense range 0..|V|-1, got " + repr(ids[:10])
            )
        self._num_events = len(self._events)
        self._initial_capacity = np.array(
            [e.capacity for e in self._events], dtype=float
        )
        self._remaining = self._initial_capacity.copy()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_capacities(cls, capacities: Sequence[float]) -> "EventStore":
        """Build a bare store (no metadata) from a capacity sequence.

        Fast path used once per policy per run: capacities are
        validated vectorised and the :class:`Event` records are
        materialised lazily (only metadata readers touch them), so a
        fresh |V|=1000 store costs one array copy instead of a thousand
        dataclass constructions.
        """
        caps = np.asarray(capacities, dtype=float).reshape(-1)
        if caps.size == 0:
            raise ConfigurationError("an EventStore needs at least one event")
        if not bool((caps >= 0).all()):  # NaN fails too, like Event itself
            bad = caps[~(caps >= 0)][0]
            raise ConfigurationError(f"capacity must be non-negative, got {bad}")
        store = cls.__new__(cls)
        store._events = None
        store._num_events = int(caps.size)
        store._initial_capacity = caps.copy()
        store._remaining = caps.copy()
        return store

    def _event_records(self) -> List[Event]:
        """The per-event records, materialised on first metadata access."""
        if self._events is None:
            self._events = [
                Event(i, float(c)) for i, c in enumerate(self._initial_capacity)
            ]
        return self._events

    @classmethod
    def with_unlimited_capacity(cls, num_events: int) -> "EventStore":
        """Build a store where no event ever fills up (basic bandit mode)."""
        return cls(Event(i, math.inf) for i in range(num_events))

    # ------------------------------------------------------------------
    # Catalogue access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_events

    def __iter__(self) -> Iterator[Event]:
        return iter(self._event_records())

    def __getitem__(self, event_id: int) -> Event:
        self._check_id(event_id)
        return self._event_records()[event_id]

    def _check_id(self, event_id: int) -> None:
        if not 0 <= event_id < self._num_events:
            raise UnknownEventError(event_id)

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def remaining_capacities(self) -> np.ndarray:
        """Remaining capacity per event id (copy)."""
        return self._remaining.copy()

    @property
    def initial_capacities(self) -> np.ndarray:
        """Initial capacity per event id (copy)."""
        return self._initial_capacity.copy()

    def remaining(self, event_id: int) -> float:
        """Remaining capacity of one event."""
        self._check_id(event_id)
        return float(self._remaining[event_id])

    def is_available(self, event_id: int) -> bool:
        """Whether the event can still take at least one attendee."""
        self._check_id(event_id)
        return bool(self._remaining[event_id] > 0)

    def all_available(self, event_ids: Sequence[int]) -> bool:
        """Whether *every* listed event has remaining capacity.

        The arrangement-validation hot path: arrangements hold at most
        ``c_u`` events, so a scalar loop beats building an index array.
        Unknown ids raise (checked for the whole list before any
        availability verdict), exactly like the scalar accessor.
        """
        num_events = self._num_events
        remaining = self._remaining
        available = True
        for event_id in event_ids:
            event_id = int(event_id)
            if not 0 <= event_id < num_events:
                raise UnknownEventError(event_id)
            if remaining[event_id] <= 0:
                available = False
        return available

    def available_mask(self) -> np.ndarray:
        """Boolean mask over event ids with remaining capacity > 0."""
        return self._remaining > 0

    def num_available(self) -> int:
        """How many events still have free capacity."""
        return int(np.count_nonzero(self._remaining > 0))

    def register(self, event_id: int) -> None:
        """Consume one capacity slot of ``event_id`` (an accepted event)."""
        self._check_id(event_id)
        left = self._remaining[event_id]
        if left <= 0:
            raise CapacityError(f"event {event_id} is already full")
        if math.isfinite(left):
            self._remaining[event_id] = left - 1

    def release(self, event_id: int) -> None:
        """Return one capacity slot (used only by tests and what-if tools)."""
        self._check_id(event_id)
        if self._remaining[event_id] >= self._initial_capacity[event_id]:
            raise CapacityError(f"event {event_id} has no registration to release")
        if math.isfinite(self._remaining[event_id]):
            self._remaining[event_id] += 1

    def reset(self) -> None:
        """Restore all capacities to their initial values."""
        self._remaining = self._initial_capacity.copy()

    def restore_remaining(self, remaining: Sequence[float]) -> None:
        """Overwrite the remaining capacities from a checkpoint.

        The vector must cover every event and stay within
        ``[0, initial]`` per event — a snapshot from a differently
        sized or differently provisioned store is rejected up front.
        """
        values = np.asarray(remaining, dtype=float).reshape(-1)
        if values.size != self._num_events:
            raise ConfigurationError(
                f"remaining-capacity vector has {values.size} entries, "
                f"store has {self._num_events} events"
            )
        finite = np.isfinite(self._initial_capacity)
        within = (values >= 0) & (
            ~finite | (values <= self._initial_capacity)
        )
        if not bool(within.all()):
            bad = int(np.flatnonzero(~within)[0])
            raise ConfigurationError(
                f"remaining capacity {values[bad]} of event {bad} outside "
                f"[0, {self._initial_capacity[bad]}]"
            )
        self._remaining = values.copy()

    def total_remaining(self) -> float:
        """Sum of remaining capacities (``inf`` if any event is unlimited)."""
        return float(self._remaining.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventStore(|V|={len(self)}, available={self.num_available()})"
