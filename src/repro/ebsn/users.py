"""User records and online arrival streams.

In FASEA the user set ``U`` is revealed online: at time step ``t`` a
user arrives with capacity ``c_u`` (how many events they are willing to
attend) and a context vector per event.  The arrival *stream* abstracts
where those users come from — drawn i.i.d. for the synthetic workloads,
or replayed from a fixed roster for the Damai real-data experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.linalg.sampling import (
    RngLike,
    capture_rng_state,
    make_rng,
    restore_rng_state,
)


@dataclass(frozen=True)
class User:
    """A platform user.

    Attributes
    ----------
    user_id:
        Identifier; unique per arrival for synthetic streams, stable
        across rounds for the real-data replay.
    capacity:
        ``c_u`` — the maximum number of events to arrange this round.
    home_location:
        Optional (x, y) used by the Damai dataset to derive the
        normalised-distance feature.
    preferred_tags:
        Tags used by the OnlineGreedy-GEACC baseline.
    attributes:
        Free-form metadata.
    """

    user_id: int
    capacity: int
    home_location: Optional[Tuple[float, float]] = None
    preferred_tags: Sequence[str] = field(default_factory=tuple)
    attributes: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_user_capacity(self.capacity)


def check_user_capacity(capacity: object) -> None:
    """Raise :class:`ConfigurationError` unless ``capacity`` is an integer >= 1.

    ``c_u`` counts events (Definition 3), so only Python and numpy
    integers qualify.  A bare ``capacity < 1`` would let NaN through
    (``nan < 1`` is false), and every later ``len(...) > capacity``
    check would then pass too.
    """
    if not isinstance(capacity, (int, np.integer)) or capacity < 1:
        raise ConfigurationError(
            f"user capacity must be an integer >= 1, got {capacity!r}"
        )


class UserArrivalStream:
    """An online stream of users, one per time step.

    The default stream draws ``c_u`` uniformly from
    ``[min_capacity, max_capacity]`` (Table 4: Uniform [1, 5]).
    """

    def __init__(
        self,
        min_capacity: int = 1,
        max_capacity: int = 5,
        seed: RngLike = None,
    ) -> None:
        if min_capacity < 1:
            raise ConfigurationError(
                f"min_capacity must be >= 1, got {min_capacity}"
            )
        if max_capacity < min_capacity:
            raise ConfigurationError(
                f"max_capacity {max_capacity} < min_capacity {min_capacity}"
            )
        self.min_capacity = min_capacity
        self.max_capacity = max_capacity
        self._rng = make_rng(seed)
        self._next_id = 0

    def next_user(self) -> User:
        """Draw the next arriving user."""
        capacity = int(
            self._rng.integers(self.min_capacity, self.max_capacity + 1)
        )
        user = User(user_id=self._next_id, capacity=capacity)
        self._next_id += 1
        return user

    def take(self, count: int) -> Iterator[User]:
        """Yield the next ``count`` arrivals."""
        for _ in range(count):
            yield self.next_user()

    def state_dict(self) -> Dict[str, object]:
        """The dynamic stream state (RNG position + next user id)."""
        return {"rng": capture_rng_state(self._rng), "next_id": self._next_id}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot from :meth:`state_dict` (exact position)."""
        restore_rng_state(self._rng, state["rng"])  # type: ignore[arg-type]
        self._next_id = int(state["next_id"])  # type: ignore[arg-type]


class FixedUserStream(UserArrivalStream):
    """Replay the same user every round (the real-data experiment).

    The paper's Damai experiment displays the same feature vectors to
    the same user for 1000/10000 rounds to measure how quickly each
    policy learns; this stream models that by returning a fixed
    :class:`User` whose ``user_id`` stays constant.
    """

    def __init__(self, user: User) -> None:
        self._user = user

    def next_user(self) -> User:
        return self._user


class RosterUserStream(UserArrivalStream):
    """Cycle through a fixed roster of users in order.

    Used by the per-user-theta extension (Remark 1), where a small set
    of users with distinct interests returns to the platform repeatedly.
    """

    def __init__(self, roster: Sequence[User]) -> None:
        if not roster:
            raise ConfigurationError("roster must contain at least one user")
        self._roster = list(roster)
        self._position = 0

    def next_user(self) -> User:
        user = self._roster[self._position % len(self._roster)]
        self._position += 1
        return user
