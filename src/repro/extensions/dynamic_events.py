"""Time-varying event sets ``V_t`` (Remark 2 of the paper).

"It is easy to extend FASEA to the scenario where different sets of
events V_t are revealed at different time steps.  For example, when a
user logs in on Monday, V could be the set of events on Tuesday and
when a user logs in on Friday, V could be the set of events on the
weekend."

The schedule partitions the horizon into phases, each exposing a subset
of the catalogue.  Inactive events are presented to policies with zero
remaining capacity, so Oracle-Greedy skips them without any policy
changes; the shared model still learns from whatever *is* arranged.
:func:`run_dynamic_policy` is ``run_policy`` over a :class:`ScheduledPolicy`
wrapper that applies the mask; the round loop has no branch for it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bandits.base import Policy, RoundView
from repro.datasets.synthetic import SyntheticWorld
from repro.exceptions import ConfigurationError
from repro.obs.core import InstrumentationLike
from repro.simulation.history import History
from repro.simulation.runner import run_policy


@dataclass(frozen=True)
class DynamicEventSchedule:
    """Cyclic schedule of active-event masks.

    ``masks[k]`` is the boolean active mask during phase ``k``; phases
    rotate every ``phase_length`` time steps.
    """

    masks: Tuple[np.ndarray, ...]
    phase_length: int

    def __post_init__(self) -> None:
        if not self.masks:
            raise ConfigurationError("schedule needs at least one phase mask")
        if self.phase_length < 1:
            raise ConfigurationError(
                f"phase_length must be >= 1, got {self.phase_length}"
            )
        sizes = {mask.size for mask in self.masks}
        if len(sizes) != 1:
            raise ConfigurationError(f"masks cover differing event counts: {sizes}")
        for mask in self.masks:
            if not mask.any():
                raise ConfigurationError("every phase must expose at least one event")

    @property
    def num_events(self) -> int:
        return self.masks[0].size

    def active_mask(self, time_step: int) -> np.ndarray:
        """The active-event mask at 1-based ``time_step``."""
        if time_step < 1:
            raise ConfigurationError(f"time_step must be >= 1, got {time_step}")
        phase = ((time_step - 1) // self.phase_length) % len(self.masks)
        return self.masks[phase]

    @classmethod
    def round_robin(
        cls, num_events: int, num_phases: int, phase_length: int
    ) -> "DynamicEventSchedule":
        """Partition events into ``num_phases`` interleaved subsets."""
        if num_phases < 1 or num_phases > num_events:
            raise ConfigurationError(
                f"num_phases must be in [1, {num_events}], got {num_phases}"
            )
        masks = []
        ids = np.arange(num_events)
        for phase in range(num_phases):
            masks.append(ids % num_phases == phase)
        return cls(masks=tuple(masks), phase_length=phase_length)


class ScheduledPolicy(Policy):
    """``policy`` shown only the schedule's active events.

    A policy itself, like :class:`~repro.extensions.per_user.
    PerUserPolicyPool`: :meth:`select` and :meth:`observe` hand the
    inner policy one masked view, inactive events at zero capacity.
    """

    _view: RoundView  # this round's masked view, set by select

    def __init__(self, policy: Policy, schedule: DynamicEventSchedule) -> None:
        self.policy = policy
        self.schedule = schedule
        self.name = f"{policy.name}+dynamic"

    def select(self, view: RoundView) -> List[int]:
        mask = self.schedule.active_mask(view.time_step)
        remaining = np.where(mask, view.remaining_capacities, 0.0)
        self._view = replace(view, remaining_capacities=remaining)
        arrangement = self.policy.select(self._view)
        if any(not mask[event_id] for event_id in arrangement):
            raise ConfigurationError(
                f"policy arranged an inactive event at t={view.time_step}: {arrangement}"
            )
        return arrangement

    def observe(self, view: RoundView, arranged: Sequence[int], rewards: Sequence[float]) -> None:
        self.policy.observe(self._view, arranged, rewards)

    # The inner policy records telemetry and decisions under this label.
    def bind_obs(self, obs: InstrumentationLike, label: Optional[str] = None) -> None:
        super().bind_obs(obs, label)
        self.policy.bind_obs(obs, self._obs_label)

    def enable_decision_capture(self, enabled: bool = True) -> None:
        self.policy.enable_decision_capture(enabled)

    def decision_info(self) -> Optional[Dict[str, Any]]:
        return self.policy.decision_info()

    def theta_estimate(self) -> Optional[np.ndarray]:
        return self.policy.theta_estimate()


def run_dynamic_policy(
    policy: Policy,
    world: SyntheticWorld,
    schedule: DynamicEventSchedule,
    horizon: Optional[int] = None,
    run_seed: int = 0,
) -> History:
    """Play ``policy`` on a world whose offer rotates per the schedule."""
    if schedule.num_events != world.config.num_events:
        raise ConfigurationError(
            f"schedule covers {schedule.num_events} events but world has "
            f"{world.config.num_events}"
        )
    return run_policy(ScheduledPolicy(policy, schedule), world, horizon, run_seed)
