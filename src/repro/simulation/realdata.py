"""Real-dataset replay (Section 5.2, Figure 10 and Table 7).

The paper's real experiment replays the *same* user against the *same*
50 feature vectors for many rounds with deterministic Yes/No feedback,
measuring how quickly each policy locks onto the user's favoured
events.  Capacities are unbounded (the catalogue repeats every round);
conflicts still apply.

``Full Knowledge`` is the clairvoyant reference: the maximum number of
pairwise non-conflicting Yes-events, capped at ``c_u``.  Its accept
ratio is that maximum divided by ``c_u`` — the paper keeps the
denominator at ``c_u`` "assuming that we still arrange c_u events to a
user even if it is impossible to arrange c_u non-conflicting events all
with feedbacks of Yes".

:func:`run_real_policy` is that replay as a round source of the shared
loop, :func:`~repro.simulation.fleet.play_fleet` (no true theta: no drift).
"""

from __future__ import annotations

from typing import Literal, Optional, Tuple, Union

import numpy as np

from repro.bandits.base import Policy
from repro.datasets.damai import DamaiDataset, DamaiUser
from repro.ebsn.events import EventStore
from repro.ebsn.platform import Platform
from repro.ebsn.users import User
from repro.exceptions import ConfigurationError
from repro.oracle.exact import exact_arrangement
from repro.simulation.fleet import play_fleet
from repro.simulation.history import History

CapacityMode = Union[int, Literal["full"]]


def resolve_capacity(user: DamaiUser, mode: CapacityMode) -> int:
    """Resolve the paper's two capacity settings: ``5`` or ``"full"``.

    ``"full"`` sets ``c_u`` to the user's number of Yes feedbacks
    (Table 7's second block).
    """
    if mode == "full":
        return user.yes_count
    capacity = int(mode)
    if capacity < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
    return capacity


def full_knowledge_count(dataset: DamaiDataset, user: DamaiUser, capacity: int) -> int:
    """Max pairwise non-conflicting Yes-events, capped at ``capacity``."""
    scores = dataset.feedback_vector(user)  # 1 for Yes, 0 for No
    arrangement = exact_arrangement(
        scores=scores,
        conflicts=dataset.conflicts,
        remaining_capacities=np.ones(dataset.num_events),
        user_capacity=capacity,
    )
    return len(arrangement)


def full_knowledge_accept_ratio(
    dataset: DamaiDataset, user: DamaiUser, mode: CapacityMode
) -> float:
    """The Full-Knowledge row of Table 7 for one user."""
    capacity = resolve_capacity(user, mode)
    return full_knowledge_count(dataset, user, capacity) / capacity


def full_knowledge_history(
    dataset: DamaiDataset, user: DamaiUser, mode: CapacityMode, horizon: int
) -> History:
    """A constant-reward reference history (the real-data regret anchor)."""
    capacity = resolve_capacity(user, mode)
    best = full_knowledge_count(dataset, user, capacity)
    return History(
        policy_name="Full Knowledge",
        rewards=np.full(horizon, float(best)),
        arranged=np.full(horizon, float(capacity)),
    )


class _RealRounds:
    """One Damai user as a round source: the same round, every round."""

    theta: Optional[np.ndarray] = None  # real data has no true theta

    def __init__(self, dataset: DamaiDataset, user: DamaiUser, capacity: int) -> None:
        self.dataset = dataset
        self.user = User(user_id=user.user_id, capacity=capacity)
        self.contexts = dataset.feature_matrix(user)
        self.accepts = dataset.feedback_vector(user) > 0

    def make_platform(self) -> Platform:
        return Platform(EventStore(self.dataset.platform_events()), self.dataset.conflicts)

    def reveal(self, t: int) -> Tuple[User, np.ndarray, np.ndarray]:
        return self.user, self.contexts, self.accepts


def run_real_policy(
    policy: Policy,
    dataset: DamaiDataset,
    user: DamaiUser,
    mode: CapacityMode,
    horizon: int,
) -> History:
    """Replay ``policy`` against one user for ``horizon`` rounds.

    Every round shows the identical context matrix; feedback is the
    user's deterministic ground truth.  The platform still validates
    the conflict and capacity constraints each round.
    """
    source = _RealRounds(dataset, user, resolve_capacity(user, mode))
    return play_fleet(
        {policy.name: policy}, source, horizon, span_name="run_real_policy",
        span_attrs={"policy": policy.name, "user": user.user_id, "horizon": horizon},
    )[policy.name]
