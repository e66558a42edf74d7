"""The basic contextual bandit setting (Section 5.2, Figures 11-13).

"Capacities of events are unlimited, no events are conflicting and only
one event is arranged for one user each time" — i.e. classic linear
contextual bandit.  We reuse the full FASEA machinery with unlimited
capacities, an empty conflict set and ``c_u = 1``, so the exact same
policy code runs in both settings.
"""

from __future__ import annotations

import math

import numpy as np

from repro.datasets.synthetic import SyntheticConfig, SyntheticWorld, build_world


def build_basic_world(config: SyntheticConfig) -> SyntheticWorld:
    """A world with infinite capacities, no conflicts, single-event rounds."""
    basic_config = config.with_overrides(
        conflict_ratio=0.0,
        user_capacity_min=1,
        user_capacity_max=1,
    )
    world = build_world(basic_config)
    world.capacities = np.full(basic_config.num_events, math.inf)
    return SyntheticWorld(basic_config, world.theta, world.capacities, conflicts=[])
